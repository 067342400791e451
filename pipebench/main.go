// Command pipebench is the repository's end-to-end benchmark: capsule
// excitation → acoustic link → PHY decode → fleet survey → shmwire
// broadcast → subscriber, as one closed loop per workload. See README.md.
//
//	pipebench --workload city_survey --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the run's
// metrics: the end-to-end ones with --trace 0, the per-layer ones from a
// separate traced run with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

const (
	// setups is how many times an untraced run sets the workload up;
	// setup_s is their median and the last one is measured.
	setups = 5
	// maxLoop caps the timed loop when ops run slower than planned, so a
	// run still ends within its time limit.
	maxLoop = 120 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: city_survey, faulted_survey or acoustic_round")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "seconds of timed ops (the run extends to reach 100 ops)")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "pipebench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := runBench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// instance is one set-up workload with its shmwire hub.
type instance struct {
	w   workload
	hub *hub
	// Set-up phases: constructor, first survey or round, server + dials.
	build, warm, connect time.Duration
	setup                time.Duration
}

// setUp builds, warms and connects one instance, then collects garbage so
// timing starts from a settled heap.
func setUp(name string, seed int64, traced bool) (*instance, error) {
	start := time.Now()
	w, err := newWorkload(name, seed, traced)
	if err != nil {
		return nil, err
	}
	in := &instance{w: w}
	if err := w.build(); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	in.build = time.Since(start)
	t := time.Now()
	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	in.warm = time.Since(t)
	t = time.Now()
	if in.hub, err = newHub(); err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	in.connect = time.Since(t)
	runtime.GC()
	in.setup = time.Since(start)
	return in, nil
}

// opRecord is the benchmark's account of one timed op.
type opRecord struct {
	traced    bool
	latency   time.Duration
	cpu       time.Duration
	delivered int
	requested int
	frames    int
	bytes     int
	counts    map[string]float64
	// err is a subscriber-side check failure (wrong frames or Status).
	err error
}

func runBench(name string, seed int64, seconds time.Duration, traced bool) (*result, error) {
	heap := startHeapSampler()
	defer heap.stop()

	n := setups
	if traced {
		n = 1 // set-up time is an end-to-end metric; the traced run needs one
	}
	var in *instance
	var setupTimes []float64
	for i := 0; i < n; i++ {
		if in != nil {
			in.hub.close()
			in = nil
			runtime.GC()
		}
		var err error
		if in, err = setUp(name, seed, traced); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, in.setup.Seconds())
	}
	defer in.hub.close()
	var series int
	if traced {
		series = registrySeries()
	}
	entries, hitRatio := in.w.cacheStats()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	ops, failed, err := timedLoop(in, tr, seconds)
	if err != nil {
		return nil, err
	}
	evictions := in.hub.evictions()
	res := &result{Attempted: len(ops), Failed: failed, Metrics: map[string]metric{}}
	res.Correct = failed == 0 && evictions == 0
	if !traced {
		if err := endToEnd(res, ops, setupTimes, heap.peak()); err != nil {
			return nil, err
		}
		return res, nil
	}
	probes, err := in.w.probes()
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	perLayer(res, in, ops, tr, probes)
	res.Metrics["telemetry.series"] = metric{float64(series), "count"}
	res.Metrics["channel.cache_entries"] = metric{entries, "count"}
	res.Metrics["channel.cache_hit_ratio"] = metric{hitRatio, "ratio"}
	res.Metrics["shmwire.evictions"] = metric{float64(evictions), "count"}
	if err := writeSpans(name, seed, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// timedLoop runs closed-loop ops for the given time, and on until 100 ops
// are in, alternating traced and untraced ops when tr is set.
func timedLoop(in *instance, tr *tracer, seconds time.Duration) ([]opRecord, int, error) {
	var ops []opRecord
	failed := 0
	loopStart := time.Now()
	for op := 0; ; op++ {
		el := time.Since(loopStart)
		if (el >= seconds && len(ops) >= minP90Samples) || el >= maxLoop {
			break
		}
		var optr *tracer
		if tr != nil && op%2 == 0 {
			optr = tr
		}
		rec, err := runOp(in, op, optr)
		if err != nil {
			return nil, 0, fmt.Errorf("op %d: %w", op, err)
		}
		if err := in.w.check(); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "pipebench: op %d: output check: %v\n", op, err)
		} else if rec.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "pipebench: op %d: subscriber check: %v\n", op, rec.err)
		}
		ops = append(ops, rec)
	}
	return ops, failed, nil
}

// runOp runs one op: the system's reads, the broadcast, and the wait until
// both subscribers hold the op's Status.
func runOp(in *instance, op int, tr *tracer) (opRecord, error) {
	var before map[string]float64
	if tr != nil {
		before = in.w.counters()
		in.w.setTraced(true)
		defer in.w.setTraced(false)
	}
	ru0 := rusage()
	start := time.Now()
	root := tr.begin(op, -1, "op")
	c := in.w.run(op, tr, root)
	ps, err := in.hub.publish(c.frames, c.status, tr, op, root)
	if err != nil {
		return opRecord{}, err
	}
	recs, err := in.hub.await()
	if err != nil {
		return opRecord{}, err
	}
	end := recs[0].at
	for _, r := range recs[1:] {
		if r.at.After(end) {
			end = r.at
		}
	}
	cpu := cpuTime(rusage()) - cpuTime(ru0)
	if tr != nil {
		tr.record(op, root, "shmwire.drain", ps.lastSend, end)
		tr.spans[root].end = end.Sub(tr.t0)
	}
	res := opRecord{
		traced:    tr != nil,
		latency:   end.Sub(start),
		cpu:       cpu,
		requested: c.requested,
		frames:    ps.frames,
		bytes:     ps.bytes,
	}
	counts := make([]int, len(recs))
	for i, r := range recs {
		counts[i] = r.frames
		switch {
		case r.frames != len(c.frames) || r.digest != ps.digest:
			res.err = fmt.Errorf("subscriber %d got %d frames (digest %x), sent %d (digest %x)",
				i, r.frames, r.digest, len(c.frames), ps.digest)
		case !statusEqual(c.status, r.status):
			res.err = fmt.Errorf("subscriber %d got Status %+v, sent %+v", i, r.status, c.status)
		}
	}
	res.delivered = deliveredReadings(counts)
	if tr != nil {
		after := in.w.counters()
		res.counts = map[string]float64{}
		for k, v := range after {
			res.counts[k] = v - before[k]
		}
	}
	return res, nil
}

// endToEnd fills the untraced run's metrics.
func endToEnd(res *result, ops []opRecord, setupTimes []float64, peakHeap float64) error {
	var lat []float64
	var wall, cpu time.Duration
	delivered, requested := 0, 0
	for _, o := range ops {
		lat = append(lat, ms(o.latency))
		wall += o.latency
		cpu += o.cpu
		delivered += o.delivered
		requested += o.requested
	}
	p90v, err := p90(lat)
	if err != nil {
		return err
	}
	m := res.Metrics
	m["setup_s"] = metric{median(setupTimes), "s"}
	m["latency_p50_ms"] = metric{median(lat), "ms"}
	m["latency_p90_ms"] = metric{p90v, "ms"}
	m["readings_per_s"] = metric{float64(delivered) / wall.Seconds(), "1/s"}
	m["delivered_ratio"] = metric{float64(delivered) / float64(requested), "ratio"}
	m["cpu_ms_per_op"] = metric{ms(cpu) / float64(len(ops)), "ms"}
	m["peak_heap_mb"] = metric{peakHeap / (1 << 20), "MB"}
	return nil
}

// Per-layer metrics the traced run derives from span names.
var spanMetrics = map[string]string{
	"fleet.survey":         "fleet.survey_ms",
	"reader.charge":        "reader.charge_ms",
	"reader.round":         "reader.round_ms",
	"shmwire.broadcast":    "shmwire.broadcast_ms",
	"shmwire.backpressure": "shmwire.backpressure_ms",
	"shmwire.drain":        "shmwire.drain_ms",
}

// Per-op count metrics the traced run takes from workload counters; a
// workload without the layer reports 0.
var countMetrics = []string{
	"fleet.reads_per_op", "reader.retries_per_op", "reader.corrupted_per_op",
	"fleet.rerouted_per_op", "faultinject.frames_per_op", "faultinject.dropped_per_op",
	"faultinject.brownouts_per_op",
}

// Per-layer metrics the traced run takes from standalone probes, with
// their units; a workload without the layer reports 0.
var probeMetrics = map[string]string{
	"reader.read_us": "us", "fleet.charge_ms": "ms",
	"phy.modulate_ms": "ms", "channel.transmit_ms": "ms", "phy.demod_slots_ms": "ms",
}

// perLayer fills the traced run's metrics.
func perLayer(res *result, in *instance, ops []opRecord, tr *tracer, probes map[string]float64) {
	m := res.Metrics
	m["fleet.build_s"] = metric{in.build.Seconds(), "s"}
	m["fleet.warmup_s"] = metric{in.warm.Seconds(), "s"}
	m["shmwire.connect_ms"] = metric{ms(in.connect), "ms"}

	var tracedLat, plainLat []float64
	traced := 0
	sums := map[string]float64{}
	var frames, bytes int
	for _, o := range ops {
		if !o.traced {
			plainLat = append(plainLat, ms(o.latency))
			continue
		}
		traced++
		tracedLat = append(tracedLat, ms(o.latency))
		frames += o.frames
		bytes += o.bytes
		for k, v := range o.counts {
			sums[k] += v
		}
	}
	per := func(v float64) float64 { return v / float64(traced) }
	for _, k := range countMetrics {
		m[k] = metric{per(sums[k]), "count"}
	}
	m["faultinject.hook_us"] = metric{per(sums["faultinject.hook_us"]), "us"}
	busy := 0.0
	if sums["conc.wall_s"] > 0 {
		busy = sums["conc.cpu_s"] / (sums["conc.wall_s"] * float64(runtime.GOMAXPROCS(0)))
	}
	m["conc.busy_ratio"] = metric{busy, "ratio"}
	m["shmwire.frames_per_op"] = metric{per(float64(frames)), "count"}
	m["shmwire.bytes_per_op"] = metric{per(float64(bytes)), "bytes"}

	// Per-op span totals by layer, then the median over traced ops.
	perOp := map[string]map[int]float64{}
	for _, name := range spanMetrics {
		perOp[name] = map[int]float64{}
	}
	self := selfTimes(tr.spans)
	var accounted, wall time.Duration
	for i, s := range tr.spans {
		if s.parent < 0 {
			wall += s.end - s.start
			continue
		}
		accounted += self[i]
		if metricName, ok := spanMetrics[s.name]; ok {
			perOp[metricName][s.op] += ms(s.end - s.start)
		}
	}
	for _, metricName := range spanMetrics {
		vals := make([]float64, 0, traced)
		for _, v := range perOp[metricName] {
			vals = append(vals, v)
		}
		for len(vals) < traced {
			vals = append(vals, 0) // ops where the layer took no time
		}
		m[metricName] = metric{median(vals), "ms"}
	}
	for k, unit := range probeMetrics {
		m[k] = metric{probes[k], unit}
	}
	m["trace.accounted_ratio"] = metric{float64(accounted) / float64(wall), "ratio"}
	m["trace.overhead_ratio"] = metric{median(tracedLat) / median(plainLat), "ratio"}
}

// writeSpans writes the traced run's spans as JSON lines under
// .bench_build, one object per span with its op, parent, name and
// start/end in nanoseconds since the run began.
func writeSpans(name string, seed int64, tr *tracer) error {
	dir := ".bench_build/spans"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(fmt.Sprintf("%s/spans-%s-seed%d.jsonl", dir, name, seed))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(map[string]any{
			"op": s.op, "parent": s.parent, "name": s.name,
			"start_ns": s.start.Nanoseconds(), "end_ns": s.end.Nanoseconds(),
		}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// heapSampler tracks the high-water mark of Go heap in use.
type heapSampler struct {
	mu   sync.Mutex
	max  float64
	quit chan struct{}
	done chan struct{}
}

// heapInUse names the runtime metrics whose sum is the heap in use.
var heapInUse = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	samples := make([]metrics.Sample, len(heapInUse))
	for i, n := range heapInUse {
		samples[i].Name = n
	}
	read := func() {
		metrics.Read(samples)
		v := 0.0
		for _, s := range samples {
			v += float64(s.Value.Uint64())
		}
		h.mu.Lock()
		if v > h.max {
			h.max = v
		}
		h.mu.Unlock()
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-t.C:
			case <-h.quit:
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) peak() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}
