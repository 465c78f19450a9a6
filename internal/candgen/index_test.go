package candgen

import (
	"math/rand"
	"reflect"
	"testing"

	"adrdedup/internal/adr"
	"adrdedup/internal/adrgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/intern"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
)

// stream drives an Index the way the detector does: each batch is appended
// (or, once the records have doubled since the last freeze, the whole
// stream is rebuilt under a new frozen order) and then probed; a batch can
// be rolled back after its probe, dropping an index that froze over it.
type stream struct {
	t     testing.TB
	ctx   *rdd.Context
	theta float64
	parts int
	sigs  [][]uint32
	ix    *Index
	// refroze records whether the last batch rebuilt the index.
	refroze bool
}

// push appends batch, probes it, checks the probe against the quadratic
// oracle and the index against a reference built in one go, and returns the
// probed pairs.
func (s *stream) push(batch [][]uint32) []pairdist.IDPair {
	s.t.Helper()
	from := len(s.sigs)
	s.sigs = append(s.sigs, batch...)
	s.refroze = s.ix == nil || len(s.sigs) >= 2*s.ix.Frozen()
	if s.refroze {
		ix, err := Build(s.ctx, s.sigs, s.theta, s.parts)
		if err != nil {
			s.t.Fatal(err)
		}
		s.ix = ix
	} else if err := s.ix.Append(batch); err != nil {
		s.t.Fatal(err)
	}
	got, st, err := s.ix.Probe(s.ctx, from, s.parts)
	if err != nil {
		s.t.Fatal(err)
	}
	if st.Emitted != int64(len(got)) || st.Records != len(s.sigs) || st.IndexEntries != s.ix.Entries() {
		s.t.Fatalf("probe stats %+v inconsistent with %d pairs, %d records, %d entries",
			st, len(got), len(s.sigs), s.ix.Entries())
	}
	want := canonPairs(naivePairs(s.sigs, s.theta, from))
	if !reflect.DeepEqual(canonPairs(got), want) {
		s.t.Fatalf("θ=%v from=%d frozen=%d: probe emitted %d pairs, oracle %d\n got: %v\nwant: %v",
			s.theta, from, s.ix.Frozen(), len(got), len(want), got, want)
	}
	if !isStrictlySorted(got) {
		s.t.Fatalf("probe output not strictly (A, B)-sorted: %v", got)
	}
	s.checkIndex()
	return got
}

// rollback undoes the last pushed batch of size n, as a failed Detect does.
func (s *stream) rollback(n int) {
	s.t.Helper()
	keep := len(s.sigs) - n
	s.sigs = s.sigs[:keep]
	if s.refroze {
		s.ix = nil
		return
	}
	s.ix.Truncate(keep)
	s.checkIndex()
}

// checkIndex compares the index with one frozen over the same records and
// appended the rest in one call.
func (s *stream) checkIndex() {
	s.t.Helper()
	frozen := s.ix.Frozen()
	ref, err := Build(s.ctx, s.sigs[:frozen], s.theta, s.parts)
	if err != nil {
		s.t.Fatal(err)
	}
	if err := ref.Append(s.sigs[frozen:]); err != nil {
		s.t.Fatal(err)
	}
	if !reflect.DeepEqual(s.ix, ref) {
		s.t.Fatalf("index over %d records (frozen at %d) differs from a one-go rebuild", len(s.sigs), frozen)
	}
}

func isStrictlySorted(pairs []pairdist.IDPair) bool {
	for i := 1; i < len(pairs); i++ {
		if !pairLess(pairs[i-1], pairs[i]) {
			return false
		}
	}
	return true
}

// TestIncrementalIndexDifferential runs random sequences of append, probe
// and truncate over Zipf-skewed streams long enough to re-freeze several
// times. Every probe must emit exactly the brute-force ≥θ set for its batch,
// the same set the rebuilt-per-call Pairs emits, and the index must stay
// equal to one frozen at the same point and appended in one go.
func TestIncrementalIndexDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vocab := []uint64{400, 5000}[seed%2]
		all := randomCorpus(rng, 150+rng.Intn(100), vocab)
		for _, theta := range []float64{0.3, 0.5, 0.8} {
			s := &stream{t: t, ctx: testEngine(0), theta: theta, parts: 1 + rng.Intn(4)}
			refreezes := 0
			for next := 0; next < len(all); {
				n := min(1+rng.Intn(20), len(all)-next)
				probed := s.push(all[next : next+n])
				if s.refroze {
					refreezes++
				}
				rebuilt, _, err := Pairs(s.ctx, s.sigs, Params{Theta: theta, Partitions: s.parts, MinArrival: next})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(probed, rebuilt) {
					t.Fatalf("seed%d θ=%v: persistent index and rebuilt-per-call Pairs disagree at %d records", seed, theta, next+n)
				}
				if rng.Intn(4) == 0 {
					s.rollback(n)
					continue
				}
				next += n
			}
			want := canonPairs(BruteForcePairs(all, theta, 0))
			got, _, err := s.ix.Probe(s.ctx, 0, s.parts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(canonPairs(got), want) {
				t.Fatalf("seed%d θ=%v: full probe %d pairs, brute force %d", seed, theta, len(got), len(want))
			}
			if refreezes < 3 {
				t.Fatalf("seed%d θ=%v: only %d freezes; the stream must cross a re-freeze", seed, theta, refreezes)
			}
		}
	}
}

// TestIndexAppendRanksNewTokensFirst: a token the freeze never counted
// ranks ahead of every counted token, so it leads its record's prefix.
func TestIndexAppendRanksNewTokensFirst(t *testing.T) {
	ctx := testEngine(0)
	ix, err := Build(ctx, [][]uint32{{10, 20}, {10, 20}, {10, 30}}, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Append([][]uint32{{10, 99}}); err != nil {
		t.Fatal(err)
	}
	if got := ix.ordered[3]; len(got) != 2 || got[0] != 99 || got[1] < rankBase {
		t.Fatalf("rank-space signature of {10, 99} = %v, want [99, rankBase+r]", got)
	}
	if err := ix.Append([][]uint32{{rankBase}}); err == nil {
		t.Fatal("Append accepted an uncounted token at rankBase")
	}
	if ix.Len() != 4 {
		t.Fatalf("failed Append changed the index: %d records", ix.Len())
	}
}

// TestExtractionIDsIndependentOfScheduling pins deterministic interning:
// one corpus extracted with one partition on one worker and with many
// partitions on many workers, on the virtual scheduler and on the
// RealParallel pool, yields identical features — token IDs included — and
// therefore identical candidate generation work counters.
func TestExtractionIDsIndependentOfScheduling(t *testing.T) {
	c := adrgen.Generate(adrgen.Config{NumReports: 400, DuplicatePairs: 30, NumDrugs: 60, NumADRs: 90, Seed: 17})
	type run struct {
		name  string
		cfg   cluster.Config
		parts int
	}
	runs := []run{
		{"virtual/1-worker", cluster.Config{Executors: 1, CoresPerExecutor: 1}, 1},
		{"virtual/8-workers", cluster.Config{Executors: 4, CoresPerExecutor: 2}, 16},
		{"real/1-worker", cluster.Config{Executors: 1, RealParallel: true, RealWorkers: 1}, 1},
		{"real/4-workers", cluster.Config{Executors: 4, RealParallel: true, RealWorkers: 4}, 16},
	}
	var wantFeats []pairdist.Features
	var wantStats Stats
	for i, r := range runs {
		cl := cluster.New(r.cfg)
		ctx := rdd.NewContext(cl)
		reports := append([]adr.Report(nil), c.Reports...)
		feats, err := pairdist.ExtractAllWith(ctx, intern.New(), reports, r.parts)
		if err != nil {
			t.Fatal(err)
		}
		sigs, err := Signatures(feats)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := Pairs(ctx, sigs, Params{Theta: 0.5, Partitions: 4})
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantFeats, wantStats = feats, st
			continue
		}
		if !reflect.DeepEqual(feats, wantFeats) {
			t.Errorf("%s: features differ from %s", r.name, runs[0].name)
		}
		if st != wantStats {
			t.Errorf("%s: candgen stats %+v, %s %+v", r.name, st, runs[0].name, wantStats)
		}
	}
}

// FuzzIncrementalIndex drives the persistent index with fuzzed streams:
// the first input is a signature corpus and θ (decodeCorpus), the second
// an op sequence, one byte per batch — its low bits the batch size, its
// high bit a rollback after the probe. Every probe must equal the quadratic
// oracle for its batch and the index must equal a one-go rebuild, across
// appends, truncations and re-freezes.
func FuzzIncrementalIndex(f *testing.F) {
	f.Add([]byte(""), []byte(""))
	f.Add([]byte{128, 1, 2, 3, 0xFF, 1, 2, 3, 0xFF, 0xFF, 4, 0xFF, 40, 41, 0xFF, 41, 40, 2}, []byte{0, 1, 0x81, 1, 2})
	f.Add([]byte{64, 5, 6, 0xFF, 7, 8, 0xFF, 5, 7, 0xFF, 9, 0xFF, 0xFF, 6, 8, 9, 0xFF, 10, 11, 12, 0xFF, 10, 11}, []byte{1, 0, 0, 0x80, 0, 3})
	f.Add([]byte{255, 7, 7, 0xFF, 7, 0xFF, 8, 0xFF, 7, 8, 0xFF, 8}, []byte{0, 0, 0, 0, 0})
	ctx := testEngine(0)
	f.Fuzz(func(t *testing.T, corpus, ops []byte) {
		if len(corpus) > 512 || len(ops) > 64 {
			t.Skip("cap stream size; the oracle is quadratic")
		}
		theta, sigs := decodeCorpus(corpus)
		s := &stream{t: t, ctx: ctx, theta: theta, parts: 2}
		next := 0
		for _, op := range ops {
			if next == len(sigs) {
				break
			}
			n := min(1+int(op&7), len(sigs)-next)
			s.push(sigs[next : next+n])
			if op&0x80 != 0 {
				s.rollback(n)
				continue
			}
			next += n
		}
		if next < len(sigs) {
			s.push(sigs[next:])
		}
	})
}
