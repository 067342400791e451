package fleet

// Hierarchical survey aggregation: each shard's batched pass emits its rows
// in ascending handle order (the shard's node order), and the partial
// reports fold together in shard-index order — shard 0 merged with shard 1,
// the result merged with shard 2, and so on. Handles are unique across the
// fleet, so the fold is a plain ordered merge and the final row sequence is
// byte-identical to a single serial pass over the handle-sorted population,
// at any shard count.

// mergeRows folds per-shard row slices (each ascending by handle) into one
// handle-sorted slice, merging in shard-index order. The fold alternates
// between two buffers sized for the whole fleet, so a survey allocates two
// row slices however many shards it has.
func mergeRows(shardRows [][]SurveyRow) []SurveyRow {
	n := 0
	for _, rows := range shardRows {
		n += len(rows)
	}
	if n == 0 {
		return nil
	}
	out := make([]SurveyRow, 0, n)
	spare := make([]SurveyRow, 0, n)
	for _, rows := range shardRows {
		out, spare = mergeTwo(spare[:0], out, rows), out
	}
	return out
}

// mergeTwo appends the ordered two-way merge of handle-ascending row
// slices a and b to dst.
func mergeTwo(dst, a, b []SurveyRow) []SurveyRow {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Handle < b[j].Handle {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
