// Package fleet coordinates several readers over one structure. A single
// reader's power-up range tops out around 6 m (Fig. 12); full-structure
// monitoring of a 20 m wall therefore runs a fleet of stations — usually
// the output of deploy.Cover — that share the embedded capsule population.
// The fleet charges each capsule from whichever alive station delivers the
// most amplitude, merges the per-station inventories, and routes sensor
// reads through each capsule's serving station.
//
// At building scale the registry is spatially partitioned: the structure's
// long axis is cut into coverage cells (geometry.CellGrid), each capsule
// belongs to the cell under its position, stations cover the cells within
// their range (deploy.AssignCells), and a shard owns a contiguous run of
// cells and is the pool queue its capsules are driven on. Each capsule
// carries one immutable route list — the stations that reach it, strongest
// first — and its serving station is the first alive entry, derived on
// demand from station liveness, the only routing state that changes.
// Capsules are indexed in ascending handle order, so every survey row is
// written straight into its final slot. Survey and charge are passes over
// the shard queues on a work-stealing pool (conc.Queues) that build no
// per-shard batch, and a survey charges and reads under one copy of
// station liveness; inventory runs one pool queue per station. There
// is one schedule, with or without a fault injector or tracer: stations
// serve disjoint capsule groups (the paper's TDMA partition), each capsule
// is driven by one goroutine at a time, and every fault draw and span ID
// is a pure function of its capsule's key (see faultinject and
// telemetry.Tracer). The same seed therefore yields a byte-identical
// report and span tree at any shard count and GOMAXPROCS. Only the order
// of flight-recorder events across capsules follows arrival.
//
// The classic flat constructor (New) is the 1-shard, 1-cell special case,
// with every capsule deployed into every station.
//
// Stations fail in the field: a reader falls off the wall, loses mains
// power, or its cable corrodes. The fleet therefore tracks per-station
// liveness, serves each capsule from its strongest alive station, falls
// back to the next-strongest when a read fails, and reports partial
// coverage as a degraded survey instead of an error — node dropout is the
// normal operating regime of an embedded SHM deployment, not an exception.
package fleet

//ecolint:deterministic

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ecocapsule/internal/conc"
	"ecocapsule/internal/deploy"
	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/node"
	"ecocapsule/internal/reader"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/telemetry"
)

// Fleet is a set of readers attached to one structure, partitioned into
// spatial shards.
//
// readers, nodes, index, routes and the shards are immutable after
// construction; each capsule's MCU state is only ever driven through one
// goroutine at a time, so stations operate concurrently without touching
// each other's capsules. The only mutable state — station liveness and the
// tracer — sits behind the one route lock. Routing is never stored: a
// capsule's serving station is derived from its route list and station
// liveness, so routing can never disagree with liveness.
type Fleet struct {
	structure *geometry.Structure
	readers   []*reader.Reader
	// nodes holds the capsules in ascending handle order. A capsule's
	// position here (its index) keys routes, the shard queues and its
	// survey row; index maps a handle back to it.
	nodes []*node.Node
	index map[uint16]int
	// routes[c] lists the stations that reach capsule c, strongest first,
	// ties on ascending station index. Precomputed at construction (drive
	// voltage and path gain never change afterwards) so routing touches no
	// reader locks.
	routes [][]route
	// shards partition the capsules into pool queues.
	shards []*shard

	// route guards the mutable state below — stations die and revive
	// concurrently with surveys in the field. Writers (kill, revive) take
	// the write lock for their entire operation.
	route sync.RWMutex
	// alive[i] reports whether station i is operational.
	//ecolint:guardedby route
	alive []bool
	// tracer is the span tracer surveys attach to.
	//ecolint:guardedby route
	tracer *telemetry.Tracer
}

// Errors.
var (
	ErrNoStations = errors.New("fleet: no stations in the plan")
	ErrNoNodes    = errors.New("fleet: no capsules supplied")
)

// route is one station that reaches a capsule and the PZT amplitude it
// delivers there.
type route struct {
	station int
	amp     float64
}

// Options parameterises a sharded fleet.
type Options struct {
	// Shards is the number of spatial shards (default 1). More shards than
	// cells clamps to the cell count.
	Shards int
	// Cells is the number of coverage cells the structure's long axis is
	// cut into (default 2 per station). The grid — not the shard count —
	// keys capsule ownership, so the same Cells value at different Shards
	// values yields byte-identical behaviour.
	Cells int
	// MaxOrder overrides the per-link image-source reflection order
	// (0 = channel default). City-scale fleets run order 1.
	MaxOrder int
}

// New builds a flat fleet from a deployment plan: one reader per station,
// every capsule deployed into every station's acoustic field, and each
// capsule's stations ranked by their channel gains. It is exactly the
// 1-shard, 1-cell case of NewSharded with range limits disabled — the
// classic fleet, preserved bit-for-bit. A station failing to reach one
// capsule is tolerated (the capsule rides on other stations); a capsule no
// station can reach at all fails construction, because it could never be
// monitored.
func New(s *geometry.Structure, plan deploy.Plan, capsules []*node.Node, seed int64) (*Fleet, error) {
	grid, err := geometry.NewCellGrid(s, 1)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	all := make([]int, len(plan.Stations))
	for i := range all {
		all[i] = i
	}
	return build(s, plan, capsules, seed, grid, [][]int{all}, 1, 0)
}

// NewSharded builds a spatially partitioned fleet: capsules deploy only
// into the stations covering their cell, and shards own contiguous cell
// runs. Any shard count produces byte-identical surveys for the same Cells
// value — sharding decides scheduling, the grid decides ownership.
func NewSharded(s *geometry.Structure, plan deploy.Plan, capsules []*node.Node, seed int64, opts Options) (*Fleet, error) {
	cells := opts.Cells
	if cells <= 0 {
		cells = 2 * len(plan.Stations)
	}
	if cells < 1 {
		cells = 1
	}
	grid, err := geometry.NewCellGrid(s, cells)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	assign, err := deploy.AssignCells(s, grid, plan.Stations)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	shardsN := opts.Shards
	if shardsN <= 0 {
		shardsN = 1
	}
	return build(s, plan, capsules, seed, grid, assign.Stations, shardsN, opts.MaxOrder)
}

// build is the common constructor: readers, cell-limited deployment, the
// per-capsule route lists, and the shards.
func build(s *geometry.Structure, plan deploy.Plan, capsules []*node.Node, seed int64,
	grid *geometry.CellGrid, cellStations [][]int, shardsN, maxOrder int) (*Fleet, error) {
	if len(plan.Stations) == 0 {
		return nil, ErrNoStations
	}
	if len(capsules) == 0 {
		return nil, ErrNoNodes
	}
	// Every per-capsule table below is indexed by handle order, and the
	// Deploy errors in the station loop read as partial coverage, so a
	// duplicate must be caught here or it collapses silently.
	nodes := append([]*node.Node(nil), capsules...)
	sort.Slice(nodes, func(a, b int) bool { return nodes[a].Handle() < nodes[b].Handle() })
	for c := 1; c < len(nodes); c++ {
		if nodes[c].Handle() == nodes[c-1].Handle() {
			return nil, fmt.Errorf("fleet: duplicate capsule handle %#04x", nodes[c].Handle())
		}
	}
	f := &Fleet{
		structure: s,
		nodes:     nodes,
		index:     make(map[uint16]int, len(nodes)),
		routes:    make([][]route, len(nodes)),
		alive:     make([]bool, len(plan.Stations)),
	}
	cellOf := make([]int, len(nodes))
	for c, n := range nodes {
		f.index[n.Handle()] = c
		cellOf[c] = grid.CellOf(n.Position())
		f.routes[c] = make([]route, 0, len(cellStations[cellOf[c]]))
	}
	// covered[station] lists the capsules inside the station's cells, in
	// the caller's order, which is each reader's deploy order.
	covered := make([][]int, len(plan.Stations))
	for _, n := range capsules {
		c := f.index[n.Handle()]
		for _, st := range cellStations[cellOf[c]] {
			covered[st] = append(covered[st], c)
		}
	}
	for i, st := range plan.Stations {
		r, err := reader.New(reader.Config{
			Structure:    s,
			TXPosition:   st.Position,
			DriveVoltage: plan.Voltage,
			Seed:         seed + int64(i),
			MaxOrder:     maxOrder,
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: station %d: %w", i, err)
		}
		for _, c := range covered[i] {
			n := nodes[c]
			if err := r.Deploy(n); err != nil {
				// Partial coverage: this station cannot serve the capsule,
				// but another might.
				continue
			}
			amp, err := r.NodeAmplitude(n.Handle())
			if err != nil || amp <= 0 {
				continue
			}
			f.routes[c] = append(f.routes[c], route{station: i, amp: amp})
		}
		f.readers = append(f.readers, r)
		f.alive[i] = true
	}
	for _, n := range capsules {
		rs := f.routes[f.index[n.Handle()]]
		if len(rs) == 0 {
			return nil, fmt.Errorf("fleet: capsule %#04x unreachable from every station", n.Handle())
		}
		// Stations were appended in index order, so a stable sort keeps
		// ties on ascending station index.
		slices.SortStableFunc(rs, func(a, b route) int { return cmp.Compare(b.amp, a.amp) })
	}
	f.shards = buildShards(shardsN, grid.Cells(), cellStations, cellOf)
	f.route.Lock()
	mReroutes.Inc()
	f.publishGaugesLocked()
	f.route.Unlock()
	return f, nil
}

// serving returns capsule c's serving route under the given liveness: its
// strongest alive station. ok is false for an orphan, a capsule no alive
// station reaches.
func (f *Fleet) serving(c int, alive []bool) (route, bool) {
	for _, r := range f.routes[c] {
		if alive[r.station] {
			return r, true
		}
	}
	return route{}, false
}

// coverageLocked counts, per station, the capsules it serves, and the
// orphans no alive station serves. Caller holds the route lock.
func (f *Fleet) coverageLocked() (cover []int, orphans int) {
	cover = make([]int, len(f.readers))
	for c := range f.routes {
		if r, ok := f.serving(c, f.alive); ok {
			cover[r.station]++
		} else {
			orphans++
		}
	}
	return cover, orphans
}

// publishGaugesLocked refreshes the liveness/coverage gauges and returns
// the orphan count. Caller holds the route lock.
func (f *Fleet) publishGaugesLocked() int {
	mStations.Set(float64(len(f.readers)))
	mStationsAlive.Set(float64(f.aliveStationsLocked()))
	cover, orphans := f.coverageLocked()
	mOrphans.Set(float64(orphans))
	for i, c := range cover {
		mCoverage.With(stationLabel(i)).Set(float64(c))
	}
	for _, sh := range f.shards {
		mShardCapsules.With(shardLabel(sh.index)).Set(float64(len(sh.nodes)))
		mShardStations.With(shardLabel(sh.index)).Set(float64(sh.stations))
	}
	return orphans
}

// Stations returns the number of readers in the fleet.
func (f *Fleet) Stations() int { return len(f.readers) }

// Shards returns the number of spatial shards.
func (f *Fleet) Shards() int { return len(f.shards) }

// AliveStations returns the number of operational stations.
func (f *Fleet) AliveStations() int {
	f.route.RLock()
	defer f.route.RUnlock()
	return f.aliveStationsLocked()
}

func (f *Fleet) aliveStationsLocked() int {
	n := 0
	for _, a := range f.alive {
		if a {
			n++
		}
	}
	return n
}

// KillStation marks a station dead; its capsules fall to their next
// strongest alive station. Unknown indices are ignored.
func (f *Fleet) KillStation(i int) {
	f.route.Lock()
	defer f.route.Unlock()
	if i < 0 || i >= len(f.alive) || !f.alive[i] {
		return
	}
	f.alive[i] = false
	mKills.Inc()
	mReroutes.Inc()
	orphans := f.publishGaugesLocked()
	telemetry.RecordFlight("fleet", "station_killed",
		fmt.Sprintf("station %d down, coverage recomputed: %d orphans", i, orphans))
}

// ReviveStation brings a dead station back; the capsules it reaches
// strongest return to it.
func (f *Fleet) ReviveStation(i int) {
	f.route.Lock()
	defer f.route.Unlock()
	if i < 0 || i >= len(f.alive) || f.alive[i] {
		return
	}
	f.alive[i] = true
	mRevives.Inc()
	mReroutes.Inc()
	orphans := f.publishGaugesLocked()
	telemetry.RecordFlight("fleet", "station_revived",
		fmt.Sprintf("station %d back, coverage recomputed: %d orphans", i, orphans))
}

// StationAlive reports one station's liveness.
func (f *Fleet) StationAlive(i int) bool {
	f.route.RLock()
	defer f.route.RUnlock()
	return i >= 0 && i < len(f.alive) && f.alive[i]
}

// SetFrameFaults installs the frame-fault hook on every station's reader.
// The hook is called concurrently for different capsules; a deterministic
// hook must key its draws by capsule, as faultinject.Injector does.
func (f *Fleet) SetFrameFaults(ff reader.FrameFaults) {
	for _, r := range f.readers {
		r.SetFrameFaults(ff)
	}
}

// SetTracer installs (or, with nil, removes) a span tracer on the fleet and
// every station reader.
func (f *Fleet) SetTracer(tr *telemetry.Tracer) {
	for _, r := range f.readers {
		r.SetTracer(tr)
	}
	f.route.Lock()
	f.tracer = tr
	f.route.Unlock()
}

// ApplyInjector wires one fault injector into every layer the fleet owns:
// frame faults on every reader, planned-dead stations killed, and stuck
// sensors frozen at their first reading.
func (f *Fleet) ApplyInjector(in *faultinject.Injector) {
	if in == nil {
		return
	}
	f.SetFrameFaults(in)
	for i := range f.readers {
		if in.StationDead(i) {
			f.KillStation(i)
		}
	}
	for _, n := range f.nodes {
		if in.SensorStuck(n.Handle()) {
			for _, s := range n.Sensors() {
				n.AttachSensor(faultinject.Freeze(s))
			}
		}
	}
}

// BestStation returns the station index serving a capsule (-1 if none).
func (f *Fleet) BestStation(handle uint16) int {
	c, ok := f.index[handle]
	if !ok {
		return -1
	}
	f.route.RLock()
	defer f.route.RUnlock()
	if r, ok := f.serving(c, f.alive); ok {
		return r.station
	}
	return -1
}

// Charge copies station liveness and runs the survey's charge step under
// it: it drives every capsule from its serving station for the given
// duration and returns the number powered up.
func (f *Fleet) Charge(duration float64) int {
	f.route.RLock()
	alive := append([]bool(nil), f.alive...)
	f.route.RUnlock()
	return f.charge(duration, alive)
}

// charge is Charge under the given liveness copy. Each capsule is excited
// by its strongest server only (simultaneous same-carrier transmissions
// would interfere), so capsules charge independently. Capsules no alive
// station serves (rare) cannot be charged at all; they still count toward
// the powered-up denominator the caller sees, so the skip is surfaced on a
// counter metric and the flight recorder instead of vanishing.
func (f *Fleet) charge(duration float64, alive []bool) int {
	cs := f.structure.Material.WaveSpeed()
	var skipped atomic.Int64
	f.eachCapsule(func(c int) {
		r, ok := f.serving(c, alive)
		if !ok {
			skipped.Add(1)
			return
		}
		f.nodes[c].ChargeFor(r.amp, cs, duration)
	})
	if n := skipped.Load(); n > 0 {
		mChargeSkipped.Add(float64(n))
		telemetry.RecordFlight("fleet", "charge_skipped",
			fmt.Sprintf("%d of %d capsules had no alive server and were not charged", n, len(f.nodes)))
	}
	up := 0
	for _, n := range f.nodes {
		if n.PoweredUp() {
			up++
		}
	}
	return up
}

// eachCapsule runs visit once for every capsule index, on the
// work-stealing pool with one queue per shard.
func (f *Fleet) eachCapsule(visit func(c int)) {
	counts := make([]int, len(f.shards))
	for qi, sh := range f.shards {
		counts[qi] = len(sh.nodes)
	}
	conc.Queues(counts, func(q, item int) {
		visit(f.shards[q].nodes[item])
	})
}

// Inventory inventories each alive station and merges the discoveries.
// Stations arbitrate concurrently, one pool queue each, and each solicits
// only the capsules it serves (the fleet's TDMA partition made
// spatial), so every capsule's fault draws come from one goroutine. The
// merged set is sorted, so the result does not depend on scheduling.
func (f *Fleet) Inventory(maxRoundsPerStation int) []uint16 {
	f.route.RLock()
	counts := make([]int, len(f.readers))
	assigned := make([][]uint16, len(f.readers))
	for _, sh := range f.shards {
		for _, c := range sh.nodes {
			if r, ok := f.serving(c, f.alive); ok {
				assigned[r.station] = append(assigned[r.station], f.nodes[c].Handle())
				counts[r.station] = 1
			}
		}
	}
	f.route.RUnlock()
	results := make([][]uint16, len(f.readers))
	conc.Queues(counts, func(i, _ int) {
		results[i] = f.readers[i].InventorySubset(maxRoundsPerStation, assigned[i]).Discovered
	})
	var out []uint16
	for _, discovered := range results {
		out = append(out, discovered...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ReadSensor routes the request through the capsule's serving station and,
// when that exchange fails (dead station, frame loss the retry budget could
// not beat), falls back through the remaining alive stations in descending
// amplitude order.
func (f *Fleet) ReadSensor(handle uint16, st sensors.SensorType) ([]float64, error) {
	vals, _, err := f.ReadSensorVia(handle, st)
	return vals, err
}

// ReadSensorVia is ReadSensor plus the index of the station that actually
// served the read — which the fallback path can make different from
// BestStation. A failed read returns station -1. The read is counted in
// the read metrics before it returns.
func (f *Fleet) ReadSensorVia(handle uint16, st sensors.SensorType) ([]float64, int, error) {
	var link reader.FaultStats
	var buf [maxRoutes]int
	stations := buf[:0]
	if c, ok := f.index[handle]; ok {
		// Copy liveness under the lock, then run the (slow) acoustic
		// exchanges outside it so concurrent reads of different capsules
		// proceed in parallel; each reader serialises its own link
		// internally.
		f.route.RLock()
		alive := append([]bool(nil), f.alive...)
		f.route.RUnlock()
		stations = f.readOrder(stations, c, alive)
	}
	vals, station, err := f.readVia(nil, &link, handle, st, stations)
	// Publish the stations the read tried: up to the one that served it,
	// or every one when none could.
	tried := stations
	if err == nil {
		tried = stations[:slices.Index(stations, station)+1]
	}
	for _, i := range tried {
		f.readers[i].PublishReads()
	}
	switch {
	case err != nil:
		cReadsFailed.Inc()
		return nil, station, err
	case station == stations[0]:
		cReadsPrimary.Inc()
	default:
		cReadsRerouted.Inc()
	}
	return vals[:], station, nil
}

// readVia walks the candidate stations in order, returning the first
// successful read and the station that served it. Each station's read is a
// child span of parent (a root when nil) and adds its link counters to
// link. readVia publishes no metric: each station counts its reads in its
// own tally, and the caller publishes the tallies and counts the route the
// read took (primary when stations[0] served it, rerouted when a fallback
// did, failed when none could) once per operation, so a survey's
// thousands of reads touch no shared counter.
//
//ecolint:hotpath the survey's per-capsule read
func (f *Fleet) readVia(parent *telemetry.Span, link *reader.FaultStats, handle uint16, st sensors.SensorType, stations []int) ([2]float64, int, error) {
	if len(stations) == 0 {
		//ecolint:ignore hotalloc an orphaned capsule is never read by a survey
		return [2]float64{}, -1, fmt.Errorf("fleet: no station serves capsule %#04x", handle)
	}
	var lastErr error
	for _, idx := range stations {
		vals, lk, err := f.readers[idx].ReadSensorUnder(parent, handle, st)
		link.CorruptedReplies += lk.CorruptedReplies
		link.Retries += lk.Retries
		link.Backoff += lk.Backoff
		if err == nil {
			return vals, idx, nil
		}
		lastErr = err
	}
	//ecolint:ignore hotalloc a capsule no station could read is a degraded survey row
	return [2]float64{}, -1, fmt.Errorf("fleet: capsule %#04x unreadable from %d station(s): %w",
		handle, len(stations), lastErr)
}

// maxRoutes sizes the stack buffer readOrder fills: no city capsule has
// more stations in range. A capsule with more still reads; its list just
// spills to the heap.
const maxRoutes = 6

// readOrder appends to dst the alive stations that can reach capsule c,
// strongest first, under the given liveness copy. Its head is the
// capsule's serving station.
//
//ecolint:hotpath fills the caller's stack buffer
func (f *Fleet) readOrder(dst []int, c int, alive []bool) []int {
	for _, r := range f.routes[c] {
		if alive[r.station] {
			dst = append(dst, r.station)
		}
	}
	return dst
}

// SetEnvironment installs the ground-truth sampler on every station. The
// sampler may be called from several stations concurrently during a
// survey, so it must be safe for concurrent use (pure position-derived
// samplers trivially are).
func (f *Fleet) SetEnvironment(fn func(pos geometry.Vec3) sensors.Environment) {
	for _, r := range f.readers {
		r.SetEnvironment(fn)
	}
}

// Coverage reports, per station, how many capsules it serves.
func (f *Fleet) Coverage() []int {
	f.route.RLock()
	defer f.route.RUnlock()
	cover, _ := f.coverageLocked()
	return cover
}
