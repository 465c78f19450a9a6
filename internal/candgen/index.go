package candgen

import (
	"fmt"

	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
)

// Index is the 1-D prefix index, kept alive across calls so a growing
// corpus pays per batch only for the batch. Build freezes the token order
// over the records it is given and indexes them with posting lists in
// (set size, ID) order; Append ranks new records under that frozen order
// and appends their postings behind; Probe generates the ≥θ pairs of a
// suffix of records against everything indexed; Truncate pops appended
// records off again.
//
// Prefix filtering is exact under any fixed total token order, so appended
// records find every qualifying pair. The frozen order only goes stale for
// pruning: tokens first seen after the freeze rank ahead of every frozen
// token (see rankBase), and appended postings are length-checked one by one
// instead of bounded by a binary search. Callers re-freeze by building a new
// Index when that drift matters.
//
// An Index is not safe for concurrent mutation; Probe only reads it.
type Index struct {
	plan
	// ranks is the frozen token order (token ID → rank).
	ranks map[uint32]uint32
	post  postings
	// entries counts the postings in post.
	entries int64
	// frozen is the number of records the token order was counted over.
	frozen int
}

// Build freezes the token order over sigs (ascending frequency, ties broken
// by token ID) and indexes every record, as engine stages: token
// frequencies, the rank transform and the prefix postings each run per
// record block, and the driver concatenates the posting shards so every
// list is ascending by set size.
func Build(ctx *rdd.Context, sigs [][]uint32, theta float64, parts int) (*Index, error) {
	if err := (Params{Theta: theta}).validate(); err != nil {
		return nil, err
	}
	pl, ranks, err := freeze(ctx, sigs, theta, parts)
	if err != nil {
		return nil, err
	}
	type posting struct {
		tok uint32
		ent postEntry
	}
	positions := make([]int32, len(pl.order))
	for i := range positions {
		positions[i] = int32(i)
	}
	posSrc := rdd.Parallelize(ctx, positions, parts).SetName("orderPositions").WithBytesPerRecord(4)
	shards, err := rdd.MapPartitions(posSrc, func(in []int32) ([]posting, error) {
		var out []posting
		for _, pos := range in {
			id := pl.order[pos]
			for k, t := range pl.prefix(id) {
				out = append(out, posting{tok: t, ent: postEntry{pos: pos, idx: int32(k)}})
			}
		}
		return out, nil
	}).SetName("candgen.prefixIndex").WithBytesPerRecord(12).Collect()
	if err != nil {
		return nil, fmt.Errorf("candgen: building prefix index: %w", err)
	}
	ix := &Index{plan: *pl, ranks: ranks, post: make(postings), entries: int64(len(shards)), frozen: len(sigs)}
	for _, e := range shards {
		ix.post[e.tok] = append(ix.post[e.tok], e.ent)
	}
	// The index and rank-space signatures are broadcast to the probe
	// tasks; charge them like ComputeVectors charges its feature table.
	ctx.Cluster().Broadcast(ix.entries*8 + recordBytes(pl.ordered))
	return ix, nil
}

// Len returns the number of records indexed.
func (ix *Index) Len() int { return len(ix.ordered) }

// Frozen returns the number of records the token order was frozen over.
func (ix *Index) Frozen() int { return ix.frozen }

// Entries returns the number of prefix postings in the index.
func (ix *Index) Entries() int64 { return ix.entries }

// Append indexes sigs as records Len(), Len()+1, ... under the frozen token
// order. Only the new records are ranked and posted; nothing already in the
// index moves. Token IDs never counted at the freeze must be below 2^31.
func (ix *Index) Append(sigs [][]uint32) error {
	for _, sig := range sigs {
		for _, t := range sig {
			if _, ok := ix.ranks[t]; !ok && t >= rankBase {
				return fmt.Errorf("candgen: token %d first seen after the freeze is beyond the unfrozen rank range", t)
			}
		}
	}
	for _, sig := range sigs {
		id := int32(ix.Len())
		p := ix.add(rankTransform(sig, ix.ranks))
		if p < 0 {
			continue
		}
		for k, t := range ix.prefix(id) {
			ix.post[t] = append(ix.post[t], postEntry{pos: p, idx: int32(k)})
		}
		ix.entries += int64(ix.prefixLen[id])
	}
	return nil
}

// Truncate discards every record with ID >= n, restoring the index to its
// state before they were appended. n must not be below Frozen(): records
// the order was frozen over cannot be taken back (build a new Index).
func (ix *Index) Truncate(n int) {
	if n >= len(ix.ordered) {
		return
	}
	if n < ix.frozen {
		panic(fmt.Sprintf("candgen: truncating to %d records below the freeze at %d", n, ix.frozen))
	}
	// Appended records hold the highest positions in ID order, so popping
	// them newest first finds each one's postings at the list tails.
	for id := len(ix.ordered) - 1; id >= n; id-- {
		p := ix.pos[id]
		if p < 0 {
			ix.empty = shrink(ix.empty, len(ix.empty)-1)
			continue
		}
		for _, t := range ix.prefix(int32(id)) {
			if list := ix.post[t]; len(list) == 1 {
				delete(ix.post, t)
			} else {
				ix.post[t] = list[:len(list)-1]
			}
		}
		ix.entries -= int64(ix.prefixLen[id])
		ix.order = shrink(ix.order, int(p))
		ix.lens = shrink(ix.lens, int(p))
	}
	ix.ordered = ix.ordered[:n]
	ix.pos = ix.pos[:n]
	ix.prefixLen = ix.prefixLen[:n]
}

// shrink truncates s to n elements, to nil when n is 0, so a truncated
// index compares equal to one that never held the records.
func shrink[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	return s[:n]
}

// Probe generates every pair with at least one end at or after record
// from whose signature Jaccard similarity reaches θ, in one engine stage:
// the probing records are split into parts blocks and each block scans its
// prefixes against the shared index. The result is sorted by (A, B) and is
// exactly BruteForcePairs over the indexed signatures with minArrival from.
func (ix *Index) Probe(ctx *rdd.Context, from, parts int) ([]pairdist.IDPair, Stats, error) {
	from = max(from, 0)
	st := Stats{Records: ix.Len(), EmptyRecords: len(ix.empty), IndexEntries: ix.entries}
	var probers []int32
	for id := from; id < ix.Len(); id++ {
		if ix.pos[id] >= 0 {
			probers = append(probers, int32(id))
		}
	}
	var pairs []pairdist.IDPair
	if len(probers) > 0 {
		// Executors hold the index from Build; ship what was appended
		// since and is about to probe.
		if lo := max(from, ix.frozen); lo < ix.Len() {
			var entries int64
			for id := lo; id < ix.Len(); id++ {
				entries += int64(ix.prefixLen[id])
			}
			ctx.Cluster().Broadcast(entries*8 + recordBytes(ix.ordered[lo:]))
		}
		isProber := func(id int32) bool { return int(id) >= from }
		probeSrc := rdd.Parallelize(ctx, probers, parts).SetName("probers").WithBytesPerRecord(4)
		results, err := rdd.MapPartitions(probeSrc, func(in []int32) ([]taskResult, error) {
			var res taskResult
			sc := ix.newProbeScratch()
			for _, rid := range in {
				ix.probeRecord(ix.post, rid, isProber, sc, &res.st, func(a, b int32) {
					res.pairs = append(res.pairs, pairdist.IDPair{A: int(a), B: int(b)})
				})
			}
			return []taskResult{res}, nil
		}).SetName("candgen.probe1d").Collect()
		if err != nil {
			return nil, st, fmt.Errorf("candgen: probing prefix index: %w", err)
		}
		pairs = mergeResults(results, &st)
	}
	pairs = append(pairs, ix.emptyPairs(from)...)
	sortPairs(pairs)
	st.Emitted = int64(len(pairs))
	return pairs, st, nil
}
