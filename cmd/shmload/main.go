// Command shmload is the latency-SLO harness for the shmwire monitoring
// plane. It boots an in-process shmwire server, subscribes N reconnecting
// clients, and drives R lock-step broadcast rounds through a seeded
// fault-injection plan: every status frame carries a trace context whose
// logical send timestamp lets each subscriber measure per-message delivery
// latency without trusting wall clocks. Losses, reconnect bounces and the
// latency model all draw from per-client seeded RNGs, so a fixed -seed
// reproduces the whole report — including p50/p95/p99 — byte for byte.
//
// Usage:
//
//	shmload [-clients 50] [-rounds 40] [-loss 0.05] [-drop-every 12] [-seed 1] [-json]
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/shmwire"
	"ecocapsule/internal/telemetry"
)

// Latency model constants: a delivered frame costs a base switching delay
// plus an exponential queueing tail; the first frame after a reconnect pays
// the session re-establishment penalty on top.
const (
	baseLatency      = 1.5e-3 // seconds
	tailScale        = 4e-3   // mean of the exponential queueing tail
	reconnectPenalty = 25e-3  // first delivery after a redial
)

// logicalTick is the simulated inter-round interval stamped into each
// broadcast's logical timestamp.
const logicalTick = 100 * time.Millisecond

// mLatency is the delivery-latency histogram the report summarises.
var mLatency = telemetry.NewHistogram("ecocapsule_shmload_latency_seconds",
	"modelled broadcast-to-subscriber delivery latency",
	[]float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5})

// Report is the machine-readable output of one load run.
type Report struct {
	Seed      int64   `json:"seed"`
	Clients   int     `json:"clients"`
	Rounds    int     `json:"rounds"`
	Loss      float64 `json:"loss"`
	DropEvery int     `json:"drop_every"`
	// Sent counts broadcast rounds; Messages = Sent * Clients is the number
	// of per-subscriber deliveries attempted.
	Sent      int `json:"sent"`
	Messages  int `json:"messages"`
	Delivered int `json:"delivered"`
	Dropped   int `json:"dropped"`
	// Reconnects counts session bounces; Resyncs counts snapshot frames
	// replayed to late (re)joiners.
	Reconnects     int               `json:"reconnects"`
	Resyncs        int               `json:"resyncs"`
	Latency        telemetry.Summary `json:"latency_seconds"`
	LeakedRoutines int               `json:"leaked_goroutines"`
}

// Text renders the report for humans.
func (rep Report) Text() string {
	return fmt.Sprintf(`shmload: %d clients x %d rounds, loss %.2f, seed %d
messages:   %d sent, %d delivered, %d dropped
reconnects: %d (resyncs %d)
latency:    p50 %.1fms  p95 %.1fms  p99 %.1fms  (mean %.1fms over %d)
goroutines: %d leaked
`,
		rep.Clients, rep.Rounds, rep.Loss, rep.Seed,
		rep.Messages, rep.Delivered, rep.Dropped,
		rep.Reconnects, rep.Resyncs,
		rep.Latency.P50*1e3, rep.Latency.P95*1e3, rep.Latency.P99*1e3,
		rep.Latency.Mean*1e3, rep.Latency.Count,
		rep.LeakedRoutines)
}

type config struct {
	clients   int
	rounds    int
	loss      float64
	dropEvery int
	seed      int64
}

// outcome is one client's verdict on one broadcast round.
type outcome struct {
	id        int
	delivered bool
	latency   float64
}

func main() {
	var (
		clients   = flag.Int("clients", 50, "concurrent reconnecting subscribers")
		rounds    = flag.Int("rounds", 40, "lock-step broadcast rounds to drive")
		loss      = flag.Float64("loss", 0.05, "per-delivery frame-loss probability")
		dropEvery = flag.Int("drop-every", 12, "bounce each client's session every N rounds (0 disables)")
		seed      = flag.Int64("seed", 1, "seed for faults, latency model and trace IDs")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON on stdout")
	)
	flag.Parse()
	if *clients < 1 || *rounds < 1 {
		fmt.Fprintln(os.Stderr, "shmload: -clients and -rounds must be >= 1")
		os.Exit(2)
	}
	if *loss < 0 || *loss >= 1 {
		fmt.Fprintln(os.Stderr, "shmload: -loss must be in [0, 1)")
		os.Exit(2)
	}
	rep, err := run(config{
		clients: *clients, rounds: *rounds, loss: *loss,
		dropEvery: *dropEvery, seed: *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "shmload: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "shmload: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	fmt.Print(rep.Text())
}

func run(cfg config) (Report, error) {
	baseline := runtime.NumGoroutine()
	srv, err := shmwire.NewServer("127.0.0.1:0")
	if err != nil {
		return Report{}, err
	}
	srv.SetLogf(func(string, ...any) {})
	addr := srv.Addr().String()

	// The broadcaster's seeded tracer: one root span for the run, one child
	// per round, stamped into the wire trace context so subscribers can
	// compute latency from the logical send timestamp.
	tracer := telemetry.NewTracer(cfg.seed)
	root := tracer.Start("shmload").
		Attr("clients", cfg.clients).Attr("rounds", cfg.rounds)

	outcomes := make(chan outcome, cfg.clients)
	resyncs := make([]int, cfg.clients)
	rcs := make([]*shmwire.ReconnectingClient, cfg.clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.clients; i++ {
		rcs[i] = shmwire.NewReconnectingClient(shmwire.ReconnectConfig{
			Addr:        addr,
			Name:        fmt.Sprintf("load-%03d", i),
			ReadTimeout: 30 * time.Second,
			// Redial instantly: the harness measures modelled latency, not
			// real backoff sleeps.
			Sleep: func(time.Duration) {},
		})
		wg.Add(1)
		go func(id int, rc *shmwire.ReconnectingClient) {
			defer wg.Done()
			runClient(id, rc, cfg, outcomes, &resyncs[id])
		}(i, rcs[i])
	}

	// Wait for the whole fleet of subscribers to register before round 0 so
	// the lock-step barrier can count on N outcomes per broadcast.
	for deadline := time.Now().Add(10 * time.Second); srv.Subscribers() < cfg.clients; {
		if time.Now().After(deadline) {
			return Report{}, fmt.Errorf("only %d/%d clients subscribed", srv.Subscribers(), cfg.clients)
		}
		time.Sleep(2 * time.Millisecond)
	}

	rep := Report{
		Seed: cfg.seed, Clients: cfg.clients, Rounds: cfg.rounds,
		Loss: cfg.loss, DropEvery: cfg.dropEvery,
	}
	perRound := make([]outcome, cfg.clients)
	for r := 0; r < cfg.rounds; r++ {
		ts := uint64(r+1) * uint64(logicalTick)
		bsp := root.Child("broadcast").Attr("round", r).Attr("logical_ts", ts)
		ctx := bsp.Context()
		tc := &shmwire.TraceContext{TraceID: ctx.TraceID, SpanID: ctx.SpanID, LogicalTS: ts}
		st := shmwire.Status{
			Timestamp: time.Unix(0, int64(ts)).UTC(),
			Expected:  uint16(cfg.clients), Reporting: uint16(cfg.clients),
		}
		srv.BroadcastStatusTraced(st, tc)
		rep.Sent++
		// Barrier: every client reports this round's outcome (bouncing
		// clients re-register first), so no subscriber can miss the next
		// broadcast and no RNG draw can race another round's. Outcomes land
		// in per-id slots and are folded in id order, keeping the float
		// accumulation — and therefore the JSON report — byte-reproducible.
		for n := 0; n < cfg.clients; n++ {
			o := <-outcomes
			perRound[o.id] = o
		}
		for _, o := range perRound {
			if o.delivered {
				rep.Delivered++
				mLatency.Observe(o.latency)
			} else {
				rep.Dropped++
			}
		}
		bsp.Attr("delivered", rep.Delivered).End()
	}
	root.End()

	for _, rc := range rcs {
		rc.Close()
	}
	srv.Close()
	wg.Wait()

	for _, n := range resyncs {
		rep.Resyncs += n
	}
	for _, rc := range rcs {
		rep.Reconnects += rc.Reconnects()
	}
	rep.Messages = rep.Sent * cfg.clients
	rep.Latency = mLatency.Summary()
	rep.LeakedRoutines = leakedGoroutines(baseline)
	return rep, nil
}

// leakedGoroutines lets transient goroutines settle, then reports how many
// remain above the baseline.
func leakedGoroutines(baseline int) int {
	for deadline := time.Now().Add(2 * time.Second); ; {
		if n := runtime.NumGoroutine(); n <= baseline || time.Now().After(deadline) {
			if n > baseline {
				return n - baseline
			}
			return 0
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runClient consumes the broadcast stream for one subscriber: one loss draw
// and one latency draw per fresh round frame, snapshot replays skipped as
// resyncs, and a scheduled session bounce (with resync round-trip) before
// the round outcome is reported so the barrier stays sound.
func runClient(id int, rc *shmwire.ReconnectingClient, cfg config,
	outcomes chan<- outcome, resyncs *int) {
	if err := rc.Connect(); err != nil {
		return
	}
	inj := faultinject.MustNew(faultinject.Plan{
		Seed:          cfg.seed*1000 + int64(id),
		FrameLossProb: cfg.loss,
	})
	rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(id)))
	var lastTS uint64
	penalty := false
	round := 0
	for {
		ev, err := rc.Next()
		if err != nil {
			return
		}
		if ev.Type != shmwire.MsgStatus || ev.Trace == nil {
			continue
		}
		ts := ev.Trace.LogicalTS
		if ts <= lastTS {
			// Snapshot replay after a (re)connect: already-seen state, no
			// loss or latency draw consumed.
			*resyncs++
			continue
		}
		lastTS = ts
		var frame [8]byte
		binary.BigEndian.PutUint64(frame[:], ts)
		_, delivered := inj.Uplink(uint16(id), frame[:])
		out := outcome{id: id, delivered: delivered}
		if delivered {
			out.latency = baseLatency + rng.ExpFloat64()*tailScale
			if penalty {
				out.latency += reconnectPenalty
				penalty = false
			}
		}
		// A scheduled bounce runs before the outcome signal: reconnect,
		// wait for the snapshot resync confirming re-registration, and only
		// then release the coordinator's barrier.
		if cfg.dropEvery > 0 && round < cfg.rounds-1 && (round+1+id)%cfg.dropEvery == 0 {
			rc.Bounce()
			if err := rc.Connect(); err != nil {
				return
			}
			for {
				sev, err := rc.Next()
				if err != nil {
					return
				}
				if sev.Type == shmwire.MsgStatus && sev.Trace != nil && sev.Trace.LogicalTS <= lastTS {
					*resyncs++
					break
				}
			}
			penalty = true
		}
		round++
		outcomes <- out
	}
}
