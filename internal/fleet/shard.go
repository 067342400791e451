package fleet

// shard is one spatial partition of the fleet: a contiguous run of coverage
// cells and the capsules embedded in them, driven as one work-stealing pool
// queue. Cell membership derives from the structure's geometry (see
// geometry.CellGrid), never from the shard count, so resharding the same
// fleet regroups the same cells — capsule ownership and reachability both
// survive the regrouping unchanged. A shard holds no mutable state.
type shard struct {
	// index is the shard's position in fleet.shards; its metric label.
	index int
	// stations counts the distinct stations covering the shard's cells.
	stations int
	// nodes lists the shard's capsule indices (Fleet.nodes) ascending, so
	// in ascending handle order — the iteration order of every per-shard
	// pass.
	nodes []int
}

// buildShards groups the grid's cells into n contiguous runs (the first
// cells%n shards take one extra cell), counts each run's stations, and
// hands each capsule (cellOf[c] is capsule c's cell) to the run owning its
// cell. Empty shards (no cells left, no capsules embedded) are valid —
// passes over them are no-ops.
func buildShards(n int, cells int, cellStations [][]int, cellOf []int) []*shard {
	if n > cells {
		n = cells
	}
	if n < 1 {
		n = 1
	}
	base, extra := cells/n, cells%n
	shards := make([]*shard, n)
	owner := make([]*shard, cells)
	next := 0
	for i := range shards {
		count := base
		if i < extra {
			count++
		}
		sh := &shard{index: i}
		seen := make(map[int]bool)
		for ; count > 0; count-- {
			owner[next] = sh
			for _, st := range cellStations[next] {
				if !seen[st] {
					seen[st] = true
					sh.stations++
				}
			}
			next++
		}
		shards[i] = sh
	}
	for c, cell := range cellOf {
		owner[cell].nodes = append(owner[cell].nodes, c)
	}
	return shards
}
