package fleet

import (
	"sort"
	"sync"

	"ecocapsule/internal/node"
)

// shard is one spatial partition of the fleet: a contiguous run of coverage
// cells, the stations whose range reaches those cells, and the capsules
// embedded in them. Cell membership derives from the structure's geometry
// (see geometry.CellGrid), never from the shard count, so resharding the
// same fleet regroups the same cells — capsule ownership and reachability
// both survive the regrouping unchanged.
//
// The shard owns the mutable routing state of its capsules; fleet-level
// liveness lives behind the fleet's route lock. Lock order is route before
// shard mu, and multi-shard acquisitions go in ascending shard index.
type shard struct {
	// index is the shard's position in fleet.shards; merge order.
	index int
	// cells lists the grid cells owned, ascending and contiguous.
	cells []int
	// stations lists the global station indices covering the cells,
	// ascending, deduplicated.
	stations []int
	// nodes lists the shard's capsules in ascending handle order — the
	// iteration order of every per-shard pass, so partial reports come out
	// pre-sorted for the aggregator's merge.
	nodes []*node.Node

	mu sync.Mutex
	// best maps each owned capsule to the alive station delivering the
	// highest PZT amplitude (absent = orphan).
	//ecolint:guardedby mu
	best map[uint16]int
	// reroutedReads counts successful reads a fallback station served.
	//ecolint:guardedby mu
	reroutedReads int
}

// buildShards groups the grid's cells into n contiguous runs (the first
// cells%n shards take one extra cell) and assembles each run's stations and
// capsules. Empty shards (no cells left, no capsules embedded) are valid —
// passes over them are no-ops.
func buildShards(n int, cells int, cellStations [][]int, cellOf func(*node.Node) int, nodes []*node.Node) []*shard {
	if n > cells {
		n = cells
	}
	if n < 1 {
		n = 1
	}
	base, extra := cells/n, cells%n
	shards := make([]*shard, 0, n)
	next := 0
	for i := 0; i < n; i++ {
		count := base
		if i < extra {
			count++
		}
		sh := &shard{index: i, best: make(map[uint16]int)}
		for c := 0; c < count; c++ {
			sh.cells = append(sh.cells, next)
			next++
		}
		seen := make(map[int]bool)
		for _, c := range sh.cells {
			for _, st := range cellStations[c] {
				if !seen[st] {
					seen[st] = true
					sh.stations = append(sh.stations, st)
				}
			}
		}
		sort.Ints(sh.stations)
		shards = append(shards, sh)
	}
	owner := make(map[int]*shard, cells)
	for _, sh := range shards {
		for _, c := range sh.cells {
			owner[c] = sh
		}
	}
	for _, nd := range nodes {
		sh := owner[cellOf(nd)]
		sh.nodes = append(sh.nodes, nd)
	}
	for _, sh := range shards {
		sort.Slice(sh.nodes, func(a, b int) bool {
			return sh.nodes[a].Handle() < sh.nodes[b].Handle()
		})
	}
	return shards
}

// rerouteLocked resolves the shard's best alive station per capsule from
// the fleet's precomputed amplitude table and liveness snapshot. Capsules
// with no alive server drop out of best (orphans). Caller holds the
// fleet's route lock (write) and sh.mu.
func (sh *shard) rerouteLocked(alive []bool, amps map[uint16][]float64) {
	for h := range sh.best {
		delete(sh.best, h)
	}
	for _, n := range sh.nodes {
		h := n.Handle()
		a := amps[h]
		bestIdx, bestAmp := -1, 0.0
		for _, i := range sh.stations {
			if !alive[i] || a[i] < 0 {
				continue
			}
			if a[i] > bestAmp {
				bestIdx, bestAmp = i, a[i]
			}
		}
		if bestIdx >= 0 {
			sh.best[h] = bestIdx
		}
	}
}
