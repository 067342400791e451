// Package fleet coordinates several readers over one structure. A single
// reader's power-up range tops out around 6 m (Fig. 12); full-structure
// monitoring of a 20 m wall therefore runs a fleet of stations — usually
// the output of deploy.Cover — that share the embedded capsule population.
// The fleet charges each capsule from whichever station delivers the most
// amplitude, merges the per-station inventories, and routes sensor reads
// through each capsule's best station.
//
// At building scale the registry is spatially partitioned: the structure's
// long axis is cut into coverage cells (geometry.CellGrid), each capsule
// belongs to the cell under its position, stations cover the cells within
// their range (deploy.AssignCells), and a shard owns a contiguous run of
// cells — its stations, capsules, routing table and scheduling RNG stream.
// Survey, inventory and charge run as per-shard batched passes on a
// work-stealing pool (conc.Queues) whose partial reports merge in
// shard-index order. There is one schedule, with or without a fault
// injector or tracer: stations serve disjoint capsule groups (the paper's
// TDMA partition), each capsule is driven by one goroutine at a time, and
// every fault draw and span ID is a pure function of its capsule's key
// (see faultinject and telemetry.Tracer). The same seed therefore yields a
// byte-identical report and span tree at any shard count and GOMAXPROCS;
// only flight-recorder event order across capsules follows arrival. The
// classic flat constructor (New) is the 1-shard, 1-cell special case with
// every capsule deployed into every station.
//
// Stations fail in the field: a reader falls off the wall, loses mains
// power, or its cable corrodes. The fleet therefore tracks per-station
// liveness, re-routes capsules away from dead stations, falls back to the
// next-best station when a read fails, and reports partial coverage as a
// degraded survey instead of an error — node dropout is the normal
// operating regime of an embedded SHM deployment, not an exception.
package fleet

//ecolint:deterministic

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ecocapsule/internal/conc"
	"ecocapsule/internal/deploy"
	"ecocapsule/internal/faultinject"
	"ecocapsule/internal/geometry"
	"ecocapsule/internal/node"
	"ecocapsule/internal/reader"
	"ecocapsule/internal/sensors"
	"ecocapsule/internal/telemetry"
	"ecocapsule/internal/units"
)

// Fleet is a set of readers attached to one structure, partitioned into
// spatial shards.
//
// readers, nodes, grid, amps and the shard skeletons (cells, stations,
// nodes, seed) are immutable after construction; each capsule's MCU state
// is only ever driven through one goroutine at a time, so stations operate
// concurrently without touching each other's capsules. Mutable state splits
// two ways: fleet-wide liveness and the tracer live behind the route lock,
// per-capsule routing lives behind each shard's own mutex. Lock order
// is route before shard mu; KillStation and ReviveStation hold the route
// write lock across all their shard rewrites, so a reader holding route
// (read) plus the shard locks observes routing that is never torn.
type Fleet struct {
	structure *geometry.Structure
	readers   []*reader.Reader
	nodes     []*node.Node
	// grid partitions the structure's long axis into coverage cells; the
	// cell under a capsule decides its shard.
	grid *geometry.CellGrid
	// amps[handle][station] is the delivered PZT amplitude of every built
	// channel, -1 where the station cannot reach the capsule. Precomputed at
	// construction (drive voltage and path gain never change afterwards) so
	// rerouting and read ordering touch no reader locks.
	amps map[uint16][]float64
	// shards partition the capsules; shardByHandle finds a capsule's owner.
	shards        []*shard
	shardByHandle map[uint16]*shard
	// seed is the fleet's base RNG seed (per-shard streams derive from it).
	seed int64

	// route guards the fleet-wide mutable state below — stations die and
	// revive concurrently with surveys in the field. Writers (kill, revive)
	// take the write lock for their entire operation, including every
	// per-shard routing rewrite.
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
// every capsule deployed into every station's acoustic field, and the best
// station per capsule resolved from the channel gains. It is exactly the
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
// amplitude table, shards, and the initial route resolution.
func build(s *geometry.Structure, plan deploy.Plan, capsules []*node.Node, seed int64,
	grid *geometry.CellGrid, cellStations [][]int, shardsN, maxOrder int) (*Fleet, error) {
	if len(plan.Stations) == 0 {
		return nil, ErrNoStations
	}
	if len(capsules) == 0 {
		return nil, ErrNoNodes
	}
	// Every per-capsule table below is keyed by handle, and the Deploy
	// errors in the station loop read as partial coverage, so a duplicate
	// must be caught here or it collapses silently.
	seen := make(map[uint16]bool, len(capsules))
	for _, n := range capsules {
		if seen[n.Handle()] {
			return nil, fmt.Errorf("fleet: duplicate capsule handle %#04x", n.Handle())
		}
		seen[n.Handle()] = true
	}
	f := &Fleet{
		structure:     s,
		nodes:         capsules,
		grid:          grid,
		alive:         make([]bool, len(plan.Stations)),
		amps:          make(map[uint16][]float64, len(capsules)),
		shardByHandle: make(map[uint16]*shard, len(capsules)),
		seed:          seed,
	}
	for _, n := range capsules {
		a := make([]float64, len(plan.Stations))
		for i := range a {
			a[i] = -1
		}
		f.amps[n.Handle()] = a
	}
	// coveredBy[station] marks the capsules inside the station's cells.
	coveredBy := make([]map[uint16]bool, len(plan.Stations))
	for i := range coveredBy {
		coveredBy[i] = make(map[uint16]bool)
	}
	for _, n := range capsules {
		for _, st := range cellStations[grid.CellOf(n.Position())] {
			coveredBy[st][n.Handle()] = true
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
		for _, n := range capsules {
			if !coveredBy[i][n.Handle()] {
				continue
			}
			if err := r.Deploy(n); err != nil {
				// Partial coverage: this station cannot serve the capsule,
				// but another might.
				continue
			}
			amp, err := r.NodeAmplitude(n.Handle())
			if err != nil {
				continue
			}
			f.amps[n.Handle()][i] = amp
		}
		f.readers = append(f.readers, r)
		f.alive[i] = true
	}
	for _, n := range capsules {
		served := false
		for _, amp := range f.amps[n.Handle()] {
			served = served || amp >= 0
		}
		if !served {
			return nil, fmt.Errorf("fleet: capsule %#04x unreachable from every station", n.Handle())
		}
	}
	cellOf := func(n *node.Node) int { return grid.CellOf(n.Position()) }
	f.shards = buildShards(shardsN, grid.Cells(), cellStations, cellOf, capsules, seed)
	for _, sh := range f.shards {
		for _, n := range sh.nodes {
			f.shardByHandle[n.Handle()] = sh
		}
	}
	f.route.Lock()
	f.rerouteAllLocked()
	f.route.Unlock()
	return f, nil
}

// rerouteAllLocked re-resolves every shard's routing. Caller holds the
// route write lock.
func (f *Fleet) rerouteAllLocked() {
	for _, sh := range f.shards {
		sh.mu.Lock()
		sh.rerouteLocked(f.alive, f.amps)
		sh.mu.Unlock()
	}
	mReroutes.Inc()
	f.publishGaugesLocked()
}

// orphanCountLocked counts capsules with no alive server. Caller holds the
// route lock.
func (f *Fleet) orphanCountLocked() int {
	served := 0
	for _, sh := range f.shards {
		sh.mu.Lock()
		served += len(sh.best)
		sh.mu.Unlock()
	}
	return len(f.nodes) - served
}

// publishGaugesLocked refreshes the liveness/coverage gauges. Caller holds
// the route lock.
func (f *Fleet) publishGaugesLocked() {
	mStations.Set(float64(len(f.readers)))
	mStationsAlive.Set(float64(f.aliveStationsLocked()))
	cover := make([]int, len(f.readers))
	served := 0
	for _, sh := range f.shards {
		sh.mu.Lock()
		for _, idx := range sh.best {
			cover[idx]++
			served++
		}
		mShardCapsules.With(shardLabel(sh.index)).Set(float64(len(sh.nodes)))
		mShardStations.With(shardLabel(sh.index)).Set(float64(len(sh.stations)))
		sh.mu.Unlock()
	}
	mOrphans.Set(float64(len(f.nodes) - served))
	for i, c := range cover {
		mCoverage.With(stationLabel(i)).Set(float64(c))
	}
}

// Stations returns the number of readers in the fleet.
func (f *Fleet) Stations() int { return len(f.readers) }

// Shards returns the number of spatial shards.
func (f *Fleet) Shards() int { return len(f.shards) }

// Cells returns the number of coverage cells partitioning the structure.
func (f *Fleet) Cells() int { return f.grid.Cells() }

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

// KillStation marks a station dead and re-routes its capsules to their
// next-best alive server. The write lock spans the liveness flip and every
// shard's routing rewrite, so no reader ever observes the two disagreeing.
// Unknown indices are ignored.
func (f *Fleet) KillStation(i int) {
	f.route.Lock()
	defer f.route.Unlock()
	if i < 0 || i >= len(f.alive) || !f.alive[i] {
		return
	}
	f.alive[i] = false
	mKills.Inc()
	f.rerouteAllLocked()
	telemetry.RecordFlight("fleet", "station_killed",
		fmt.Sprintf("station %d down, %d orphans after reroute", i, f.orphanCountLocked()))
}

// ReviveStation brings a dead station back and re-routes.
func (f *Fleet) ReviveStation(i int) {
	f.route.Lock()
	defer f.route.Unlock()
	if i < 0 || i >= len(f.alive) || f.alive[i] {
		return
	}
	f.alive[i] = true
	mRevives.Inc()
	f.rerouteAllLocked()
	telemetry.RecordFlight("fleet", "station_revived",
		fmt.Sprintf("station %d back, %d orphans after reroute", i, f.orphanCountLocked()))
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
	sh, ok := f.shardByHandle[handle]
	if !ok {
		return -1
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, ok := sh.best[handle]; ok {
		return i
	}
	return -1
}

// Charge drives every capsule from its best station for the given duration
// and returns the number powered up. Each capsule is excited by its
// strongest server only (simultaneous same-carrier transmissions would
// interfere), so the best-station assignment partitions the capsules into
// disjoint per-shard batches that charge concurrently on the work-stealing
// pool. Capsules no alive station serves cannot be charged at all; they
// still count toward the powered-up denominator the caller sees, so the
// skip is surfaced on a counter metric and the flight recorder instead of
// vanishing.
func (f *Fleet) Charge(duration float64) int {
	cs := f.structure.Material.VS()
	if cs == 0 {
		cs = f.structure.Material.VP()
	}
	const dt = 1 * units.MS
	steps := int(duration / dt)
	if steps < 1 {
		steps = 1
	}
	type job struct {
		n   *node.Node
		amp float64
	}
	skipped := 0
	f.route.RLock()
	jobs := make([][]job, len(f.shards))
	for qi, sh := range f.shards {
		sh.mu.Lock()
		for _, n := range sh.nodes {
			idx, ok := sh.best[n.Handle()]
			if !ok {
				skipped++
				continue
			}
			jobs[qi] = append(jobs[qi], job{n: n, amp: f.amps[n.Handle()][idx]})
		}
		sh.mu.Unlock()
	}
	f.route.RUnlock()
	counts := make([]int, len(jobs))
	for i := range jobs {
		counts[i] = len(jobs[i])
	}
	conc.Queues(counts, func(q, item int) {
		j := jobs[q][item]
		j.n.ExciteFor(j.amp, 230*units.KHz, cs, dt, steps)
	})
	if skipped > 0 {
		mChargeSkipped.Add(float64(skipped))
		telemetry.RecordFlight("fleet", "charge_skipped",
			fmt.Sprintf("%d of %d capsules had no alive server and were not charged", skipped, len(f.nodes)))
	}
	up := 0
	for _, n := range f.nodes {
		if n.PoweredUp() {
			up++
		}
	}
	return up
}

// Inventory inventories each alive station and merges the discoveries.
// Stations arbitrate concurrently, one pool queue each, and each solicits
// only the capsules it serves best (the fleet's TDMA partition made
// spatial), so every capsule's fault draws come from one goroutine. The
// merged set is sorted, so the result does not depend on scheduling.
func (f *Fleet) Inventory(maxRoundsPerStation int) []uint16 {
	f.route.RLock()
	counts := make([]int, len(f.readers))
	assigned := make([][]uint16, len(f.readers))
	for _, sh := range f.shards {
		sh.mu.Lock()
		for _, n := range sh.nodes {
			if idx, ok := sh.best[n.Handle()]; ok {
				assigned[idx] = append(assigned[idx], n.Handle())
				counts[idx] = 1
			}
		}
		sh.mu.Unlock()
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

// ReadSensor routes the request through the capsule's best station and,
// when that exchange fails (dead station, frame loss the retry budget could
// not beat), falls back through the remaining alive stations in descending
// amplitude order.
func (f *Fleet) ReadSensor(handle uint16, st sensors.SensorType) ([]float64, error) {
	vals, _, err := f.ReadSensorVia(handle, st)
	return vals, err
}

// ReadSensorVia is ReadSensor plus the index of the station that actually
// served the read — which the fallback path can make different from
// BestStation. A failed read returns station -1.
func (f *Fleet) ReadSensorVia(handle uint16, st sensors.SensorType) ([]float64, int, error) {
	// Snapshot the routing under the locks, then run the (slow) acoustic
	// exchanges outside them so concurrent reads of different capsules
	// proceed in parallel; each reader serialises its own link internally.
	f.route.RLock()
	alive := append([]bool(nil), f.alive...)
	best := -1
	sh := f.shardByHandle[handle]
	if sh != nil {
		sh.mu.Lock()
		if b, ok := sh.best[handle]; ok {
			best = b
		}
		sh.mu.Unlock()
	}
	f.route.RUnlock()
	stations := f.readOrder(handle, alive)
	return f.readVia(handle, st, stations, best, sh)
}

// readVia walks the candidate stations in order, returning the first
// successful read and maintaining the routing metrics and the owning
// shard's rerouted counter.
func (f *Fleet) readVia(handle uint16, st sensors.SensorType, stations []int, best int, sh *shard) ([]float64, int, error) {
	if len(stations) == 0 {
		mFleetReads.With(routeFailed).Inc()
		return nil, -1, fmt.Errorf("fleet: no station serves capsule %#04x", handle)
	}
	var lastErr error
	for _, idx := range stations {
		vals, err := f.readers[idx].ReadSensor(handle, st)
		if err == nil {
			if idx == best {
				mFleetReads.With(routePrimary).Inc()
			} else {
				mFleetReads.With(routeRerouted).Inc()
				if sh != nil {
					sh.mu.Lock()
					sh.reroutedReads++
					sh.mu.Unlock()
				}
			}
			return vals, idx, nil
		}
		lastErr = err
	}
	mFleetReads.With(routeFailed).Inc()
	return nil, -1, fmt.Errorf("fleet: capsule %#04x unreadable from %d station(s): %w",
		handle, len(stations), lastErr)
}

// ReroutedReads returns the number of successful reads a fallback station
// (not the capsule's best) served over the fleet's lifetime.
func (f *Fleet) ReroutedReads() int {
	total := 0
	for _, sh := range f.shards {
		sh.mu.Lock()
		total += sh.reroutedReads
		sh.mu.Unlock()
	}
	return total
}

// readOrder lists the alive stations that can reach the capsule, best
// amplitude first, from the immutable amplitude table and the given
// liveness snapshot.
func (f *Fleet) readOrder(handle uint16, alive []bool) []int {
	amps, ok := f.amps[handle]
	if !ok {
		return nil
	}
	// A capsule hears a handful of stations: an insertion sort into one
	// exact-size slice keeps the per-read cost to a single allocation.
	n := 0
	for i := range f.readers {
		if !alive[i] || amps[i] < 0 {
			continue
		}
		n++
	}
	out := make([]int, 0, n)
	for i := range f.readers {
		if !alive[i] || amps[i] < 0 {
			continue
		}
		// Stronger amplitude first; ties keep ascending station index.
		j := len(out)
		out = append(out, i)
		for j > 0 && amps[out[j-1]] < amps[i] {
			out[j] = out[j-1]
			j--
		}
		out[j] = i
	}
	return out
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

// Coverage reports, per station, how many capsules it serves best.
func (f *Fleet) Coverage() []int {
	out := make([]int, len(f.readers))
	for _, sh := range f.shards {
		sh.mu.Lock()
		for _, idx := range sh.best {
			out[idx]++
		}
		sh.mu.Unlock()
	}
	return out
}

// routeSnapshot is one torn-proof copy of the fleet's routing state: every
// field is collected under a single route read-lock acquisition (shard
// locks taken in index order inside it), and kill/revive write the same
// lock, so the liveness, dead list, best map and orphan set always agree
// with each other.
type routeSnapshot struct {
	alive      []bool
	aliveCount int
	dead       []int
	best       map[uint16]int
	orphan     map[uint16]bool
	orphans    []uint16
}

// bestOf returns the snapshot's serving station for a capsule (-1 if none).
func (s *routeSnapshot) bestOf(handle uint16) int {
	if i, ok := s.best[handle]; ok {
		return i
	}
	return -1
}

// snapshotRouting collects the snapshot. Safe to call concurrently with
// reads and kill/revive; never called with route already held.
func (f *Fleet) snapshotRouting() *routeSnapshot {
	snap := &routeSnapshot{
		best:   make(map[uint16]int, len(f.nodes)),
		orphan: make(map[uint16]bool),
	}
	f.route.RLock()
	snap.alive = append([]bool(nil), f.alive...)
	for i, a := range f.alive {
		if a {
			snap.aliveCount++
		} else {
			snap.dead = append(snap.dead, i)
		}
	}
	for _, sh := range f.shards {
		sh.mu.Lock()
		for h, idx := range sh.best {
			snap.best[h] = idx
		}
		sh.mu.Unlock()
	}
	f.route.RUnlock()
	for _, n := range f.nodes {
		if _, ok := snap.best[n.Handle()]; !ok {
			snap.orphan[n.Handle()] = true
			snap.orphans = append(snap.orphans, n.Handle())
		}
	}
	sort.Slice(snap.orphans, func(i, j int) bool { return snap.orphans[i] < snap.orphans[j] })
	return snap
}

// FaultStats sums the resilience counters over every station's reader.
func (f *Fleet) FaultStats() reader.FaultStats {
	var total reader.FaultStats
	for _, r := range f.readers {
		s := r.FaultStats()
		total.CorruptedReplies += s.CorruptedReplies
		total.Retries += s.Retries
		total.Backoff += s.Backoff
	}
	return total
}
