// Package intern maps string tokens to dense uint32 IDs so the pairwise
// distance kernel can compare token sets by merge-scanning sorted ID slices
// instead of building hash sets per comparison (the hot path of the paper's
// pairwise distance computing module, Figure 1 / Fig. 10(b)).
//
// An Interner is built once per detector and shared. Intern is safe for
// concurrent use, but IDs then follow goroutine scheduling; parallel extract
// tasks instead intern into task-local interners that the driver merges in
// partition order (Merge), so every ID is the one a sequential pass would
// assign.
package intern

import (
	"slices"
	"sync"
)

// Interner assigns each distinct token a stable uint32 ID, in first-intern
// order. The zero value is not usable; call New.
type Interner struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	toks []string
}

// New returns an empty interner.
func New() *Interner {
	return &Interner{ids: make(map[string]uint32)}
}

// Intern returns the ID of tok, assigning the next free ID on first sight.
// Safe for concurrent use.
func (it *Interner) Intern(tok string) uint32 {
	it.mu.RLock()
	id, ok := it.ids[tok]
	it.mu.RUnlock()
	if ok {
		return id
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if id, ok := it.ids[tok]; ok {
		return id
	}
	id = uint32(len(it.toks))
	it.ids[tok] = id
	it.toks = append(it.toks, tok)
	return id
}

// Resolve returns the token for id, and whether id has been assigned.
// Safe for concurrent use.
func (it *Interner) Resolve(id uint32) (string, bool) {
	it.mu.RLock()
	defer it.mu.RUnlock()
	if int(id) >= len(it.toks) {
		return "", false
	}
	return it.toks[id], true
}

// Len returns the number of distinct tokens interned so far.
func (it *Interner) Len() int {
	it.mu.RLock()
	defer it.mu.RUnlock()
	return len(it.toks)
}

// SortedSet interns every token and returns the sorted, deduplicated ID
// set — the representation strsim.JaccardSortedIDs consumes. A nil or empty
// input returns nil. The result is freshly allocated and never aliases
// interner state.
func (it *Interner) SortedSet(tokens []string) []uint32 {
	if len(tokens) == 0 {
		return nil
	}
	ids := make([]uint32, len(tokens))
	for i, t := range tokens {
		ids[i] = it.Intern(t)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Merge interns src's tokens in src's ID order and returns the translation
// table: remap[id] is the ID in it of the token src assigned id. Merging
// task-local interners in task order assigns the same IDs as interning every
// token through it sequentially.
func (it *Interner) Merge(src *Interner) []uint32 {
	src.mu.RLock()
	toks := src.toks
	src.mu.RUnlock()
	remap := make([]uint32, len(toks))
	it.mu.Lock()
	defer it.mu.Unlock()
	for i, tok := range toks {
		id, ok := it.ids[tok]
		if !ok {
			id = uint32(len(it.toks))
			it.ids[tok] = id
			it.toks = append(it.toks, tok)
		}
		remap[i] = id
	}
	return remap
}
