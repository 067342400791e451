package reader

import (
	"math"
	"testing"

	"ecocapsule/internal/channel"
	"ecocapsule/internal/protocol"
	"ecocapsule/internal/sensors"
)

// linkOf returns a copy of the reader's link record for handle h.
func linkOf(t *testing.T, r *Reader, h uint16) link {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.byHandle.find(h)
	if l == nil {
		t.Fatalf("no link to %#04x", h)
	}
	return *l
}

// TestLinkGainBitIdenticalToChannel: the gain Deploy keeps is the one an
// eagerly built channel of the same link reports, bit for bit, at the
// default reflection order and at the city's order 1, and Deploy builds
// no waveform channel.
func TestLinkGainBitIdenticalToChannel(t *testing.T) {
	for _, order := range []int{0, 1} {
		cfg := wallConfig()
		cfg.MaxOrder = order
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			n := deployNode(t, r, uint16(0x100+i), 0.2+0.35*float64(i))
			l := linkOf(t, r, n.Handle())
			if l.ch != nil {
				t.Fatalf("order %d, %#04x: Deploy built a waveform channel", order, n.Handle())
			}
			ch, err := channel.New(r.linkConfigOf(n))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := l.gain, ch.PathGain(); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("order %d, %#04x: kept gain %x, eager channel %x", order, n.Handle(), got, want)
			}
		}
	}
}

// TestLazyChannelBitIdenticalToEager: a link's first acoustic round builds
// its channel, and that channel has the arrivals and Transmit output of
// one built eagerly from the same config and seed. A link the round did
// not read still has no channel.
func TestLazyChannelBitIdenticalToEager(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic pipeline integration case; run without -short to exercise it")
	}
	handles, xs := []uint16{0x41, 0x42, 0x43}, []float64{0.6, 0.8, 1.5}
	r := roundReader(t, handles, xs)
	for i, res := range r.AcousticReadRound(handles[:2], sensors.TypeTempHumidity, roundConfig()) {
		if res.Err != nil {
			t.Fatalf("slot %d: %v", i, res.Err)
		}
	}
	if linkOf(t, r, handles[2]).ch != nil {
		t.Errorf("%#04x: a link no round read has a channel", handles[2])
	}
	probe := make([]float64, 4000)
	for i := range probe {
		probe[i] = math.Sin(2 * math.Pi * 0.23 * float64(i))
	}
	for _, h := range handles[:2] {
		l := linkOf(t, r, h)
		if l.ch == nil {
			t.Fatalf("%#04x: the round built no channel", h)
		}
		eager, err := channel.New(r.linkConfigOf(l.n))
		if err != nil {
			t.Fatal(err)
		}
		lazyArr, eagerArr := l.ch.Arrivals(), eager.Arrivals()
		if len(lazyArr) != len(eagerArr) {
			t.Fatalf("%#04x: %d arrivals, eager %d", h, len(lazyArr), len(eagerArr))
		}
		for i := range eagerArr {
			if lazyArr[i] != eagerArr[i] {
				t.Fatalf("%#04x arrival %d: %+v, eager %+v", h, i, lazyArr[i], eagerArr[i])
			}
		}
		lazyOut, eagerOut := l.ch.Transmit(probe), eager.Transmit(probe)
		if len(lazyOut) != len(eagerOut) {
			t.Fatalf("%#04x: Transmit gave %d samples, eager %d", h, len(lazyOut), len(eagerOut))
		}
		for i := range eagerOut {
			if math.Float64bits(lazyOut[i]) != math.Float64bits(eagerOut[i]) {
				t.Fatalf("%#04x sample %d: %x, eager %x", h, i, lazyOut[i], eagerOut[i])
			}
		}
	}
}

// TestConcurrentFirstUseRoundAndBroadcast races a reader's first acoustic
// round against its first acoustic broadcast, so both build the same
// links' channels at once (run under -race); each side gets a fresh reader
// on which it starts first. The broadcast is addressed to no deployed
// capsule, so it changes no capsule's state, and both results must equal
// those of the same calls made one after the other.
func TestConcurrentFirstUseRoundAndBroadcast(t *testing.T) {
	if testing.Short() {
		t.Skip("full acoustic pipeline integration case; run without -short to exercise it")
	}
	handles, xs := []uint16{0x41, 0x42}, []float64{0.6, 0.8}
	cfg := roundConfig()
	p := protocol.Packet{Cmd: protocol.CmdReadSensor, Target: 0x7fff, Payload: []byte{byte(sensors.TypeTempHumidity)}}

	seq := roundReader(t, handles, xs)
	wantRound := seq.AcousticReadRound(handles, sensors.TypeTempHumidity, cfg)
	wantCast, err := seq.AcousticBroadcast(p, cfg)
	if err != nil {
		t.Fatal(err)
	}

	type cast struct {
		out BroadcastOutcome
		err error
	}
	for _, castFirst := range []bool{false, true} {
		r := roundReader(t, handles, xs)
		rounds, casts := make(chan []AcousticReadResult, 1), make(chan cast, 1)
		round := func() { rounds <- r.AcousticReadRound(handles, sensors.TypeTempHumidity, cfg) }
		broadcast := func() {
			out, err := r.AcousticBroadcast(p, cfg)
			casts <- cast{out, err}
		}
		first, second := round, broadcast
		if castFirst {
			first, second = broadcast, round
		}
		started := make(chan struct{})
		go func() {
			close(started)
			first()
		}()
		<-started
		go second()
		gotRound, c := <-rounds, <-casts
		if c.err != nil {
			t.Fatal(c.err)
		}
		requireSameResults(t, "round racing a broadcast", gotRound, wantRound)
		if got := c.out; got.Delivered != wantCast.Delivered || got.Corrupted != wantCast.Corrupted ||
			got.Unpowered != wantCast.Unpowered || len(got.Replies) != len(wantCast.Replies) {
			t.Errorf("broadcast racing a round = %+v, want %+v", got, wantCast)
		}
		if st := r.LinkCache().Stats(); st.Entries != len(handles) {
			t.Errorf("link cache holds %d entries, want one per link (%d)", st.Entries, len(handles))
		}
	}
}
