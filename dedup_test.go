package adrdedup

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"adrdedup/internal/adr"
	"adrdedup/internal/adrgen"
	"adrdedup/internal/candgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
)

// testCorpus returns a small deterministic corpus plus a detector pre-loaded
// with all but the last `holdout` reports.
func testCorpus(t *testing.T, holdout int) (*adrgen.Corpus, *Detector, []adr.Report) {
	t.Helper()
	c := adrgen.Generate(adrgen.Config{
		NumReports: 500, DuplicatePairs: 40, NumDrugs: 80, NumADRs: 120, Seed: 42,
	})
	det, err := New(Options{
		Cluster:    cluster.Config{Executors: 4, CoresPerExecutor: 2},
		Classifier: core.Config{K: 7, B: 8, C: 4, Theta: 0, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(c.Reports) - holdout
	// Strip generator arrival sequences; the database assigns its own.
	existing := make([]adr.Report, cut)
	copy(existing, c.Reports[:cut])
	batch := make([]adr.Report, holdout)
	copy(batch, c.Reports[cut:])
	if err := det.AddKnownReports(existing); err != nil {
		t.Fatal(err)
	}
	return c, det, batch
}

// trainOnGroundTruth trains the detector on all duplicate pairs fully inside
// the loaded database plus sampled negatives.
func trainOnGroundTruth(t *testing.T, c *adrgen.Corpus, det *Detector, negatives int) {
	t.Helper()
	var labelled []LabeledCasePair
	for _, d := range c.Duplicates {
		if _, okA := det.Database().Get(d.CaseA); !okA {
			continue
		}
		if _, okB := det.Database().Get(d.CaseB); !okB {
			continue
		}
		labelled = append(labelled, LabeledCasePair{CaseA: d.CaseA, CaseB: d.CaseB, Duplicate: true})
	}
	// Negative sampling mirrors the paper's curated non-duplicate
	// database: it must contain the confusable pairs (same campaign)
	// alongside ordinary ones, or the classifier never learns the
	// boundary that matters.
	reports := det.Database().Reports()
	count := 0
	byCampaign := make(map[int][]int)
	for i, camp := range c.CampaignOf {
		if camp < 0 {
			continue
		}
		if _, ok := det.Database().Get(c.Reports[i].CaseNumber); ok {
			byCampaign[camp] = append(byCampaign[camp], i)
		}
	}
	// Iterate campaigns in sorted order: map iteration order would make
	// the training set differ run to run.
	campIDs := make([]int, 0, len(byCampaign))
	for id := range byCampaign {
		campIDs = append(campIDs, id)
	}
	sort.Ints(campIDs)
	hardBudget := negatives / 3
	for _, id := range campIDs {
		members := byCampaign[id]
		for i := 0; i+1 < len(members) && count < hardBudget; i++ {
			a, b := members[i], members[i+1]
			if c.IsDuplicatePair(a, b) {
				continue
			}
			labelled = append(labelled, LabeledCasePair{
				CaseA: c.Reports[a].CaseNumber, CaseB: c.Reports[b].CaseNumber,
			})
			count++
		}
	}
	step := len(reports)*len(reports)/(2*negatives) + 1
	for i := 0; i < len(reports) && count < negatives; i++ {
		for j := i + 1; j < len(reports) && count < negatives; j += step {
			a, b := reports[i], reports[j]
			if c.IsDuplicatePair(a.ArrivalSeq, b.ArrivalSeq) {
				continue
			}
			labelled = append(labelled, LabeledCasePair{CaseA: a.CaseNumber, CaseB: b.CaseNumber})
			count++
		}
	}
	if err := det.TrainFromLabeledCases(labelled); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidatesClassifierConfig(t *testing.T) {
	if _, err := New(Options{Classifier: core.Config{K: 4}}); err == nil {
		t.Error("even k must be rejected")
	}
}

func TestDetectRequiresTraining(t *testing.T) {
	det, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect([]adr.Report{{CaseNumber: "X"}}); err == nil {
		t.Error("Detect before training must fail")
	}
}

func TestTrainFromLabeledCasesUnknownCase(t *testing.T) {
	det, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = det.TrainFromLabeledCases([]LabeledCasePair{{CaseA: "nope", CaseB: "also-nope"}})
	if err == nil {
		t.Error("unknown case numbers must fail")
	}
	if err := det.TrainFromLabeledCases(nil); err == nil {
		t.Error("empty training must fail")
	}
}

func TestEndToEndDetectFindsInjectedDuplicate(t *testing.T) {
	c, det, batch := testCorpus(t, 20)
	trainOnGroundTruth(t, c, det, 2000)
	if !det.Trained() {
		t.Fatal("not trained")
	}

	// Find a ground-truth duplicate pair with one half in the batch and
	// one half in the database; there is usually at least one with a
	// 20-report batch and 40 duplicate pairs.
	type target struct{ inDB, inBatch string }
	var targets []target
	inBatch := make(map[string]bool)
	for _, r := range batch {
		inBatch[r.CaseNumber] = true
	}
	for _, d := range c.Duplicates {
		_, aDB := det.Database().Get(d.CaseA)
		_, bDB := det.Database().Get(d.CaseB)
		switch {
		case aDB && inBatch[d.CaseB]:
			targets = append(targets, target{inDB: d.CaseA, inBatch: d.CaseB})
		case bDB && inBatch[d.CaseA]:
			targets = append(targets, target{inDB: d.CaseB, inBatch: d.CaseA})
		}
	}

	matches, err := det.Detect(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches returned")
	}
	found := make(map[[2]string]Match)
	for _, m := range matches {
		found[[2]string{m.CaseA, m.CaseB}] = m
		found[[2]string{m.CaseB, m.CaseA}] = m
	}
	if len(targets) > 0 {
		recovered := 0
		for _, tg := range targets {
			if m, ok := found[[2]string{tg.inDB, tg.inBatch}]; ok && m.Duplicate {
				recovered++
			}
		}
		if recovered == 0 {
			t.Errorf("none of %d cross-batch ground-truth duplicates detected", len(targets))
		}
	}
	// Matches must be sorted by descending score.
	for i := 1; i < len(matches); i++ {
		if matches[i].Score > matches[i-1].Score {
			t.Fatal("matches not sorted by score")
		}
	}
	// Precision sanity: most positive decisions should be true duplicates.
	dups := Duplicates(matches)
	if len(dups) > 0 {
		correct := 0
		for _, m := range dups {
			a, _ := det.Database().Get(m.CaseA)
			b, _ := det.Database().Get(m.CaseB)
			if c.IsDuplicatePair(a.ArrivalSeq, b.ArrivalSeq) {
				correct++
			}
		}
		if float64(correct) < 0.5*float64(len(dups)) {
			t.Errorf("only %d/%d detected duplicates are real", correct, len(dups))
		}
	}
	// The batch was absorbed: database grew.
	if det.Database().Len() != 500 {
		t.Errorf("database has %d reports, want 500", det.Database().Len())
	}
}

func TestDetectEmptyBatch(t *testing.T) {
	c, det, _ := testCorpus(t, 10)
	trainOnGroundTruth(t, c, det, 500)
	matches, err := det.Detect(nil)
	if err != nil || matches != nil {
		t.Errorf("empty batch: %v, %v", matches, err)
	}
}

func TestDetectAllIncludesPruned(t *testing.T) {
	c := adrgen.Generate(adrgen.Config{
		NumReports: 300, DuplicatePairs: 25, NumDrugs: 50, NumADRs: 80, Seed: 7,
	})
	det, err := New(Options{
		Cluster: cluster.Config{Executors: 2},
		Classifier: core.Config{K: 5, B: 4, C: 2, Seed: 2,
			Pruning: &core.PruningConfig{Clusters: 4, FTheta: 0.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddKnownReports(c.Reports[:290]); err != nil {
		t.Fatal(err)
	}
	trainOnGroundTruth(t, c, det, 800)
	all, err := det.DetectAll(c.Reports[290:])
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for _, m := range all {
		if m.Pruned {
			pruned++
		}
	}
	if pruned == 0 {
		t.Error("expected some pruned candidate pairs with pruning enabled")
	}
	concise, err := det.Detect(nil)
	_ = concise
	if err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalBatchesAccumulate(t *testing.T) {
	c, det, batch := testCorpus(t, 30)
	trainOnGroundTruth(t, c, det, 1000)
	first := batch[:15]
	second := batch[15:]
	if _, err := det.Detect(first); err != nil {
		t.Fatal(err)
	}
	lenAfterFirst := det.Database().Len()
	if _, err := det.Detect(second); err != nil {
		t.Fatal(err)
	}
	if det.Database().Len() != lenAfterFirst+15 {
		t.Errorf("second batch not absorbed: %d", det.Database().Len())
	}
}

func TestTrainFromIDPairsMatchesLabeledCases(t *testing.T) {
	c, det, _ := testCorpus(t, 10)
	_ = c
	ids := []pairdist.IDPair{{A: 0, B: 1, Label: -1}, {A: 2, B: 3, Label: +1}, {A: 4, B: 5, Label: -1}}
	if err := det.TrainFromIDPairs(ids); err != nil {
		t.Fatal(err)
	}
	if det.TrainingSize() != 3 {
		t.Errorf("training size = %d", det.TrainingSize())
	}
}

func TestCandidateBlockingKeepsDuplicatesCutsPairs(t *testing.T) {
	c := adrgen.Generate(adrgen.Config{
		NumReports: 500, DuplicatePairs: 40, NumDrugs: 80, NumADRs: 120, Seed: 42,
	})
	build := func(blocking bool) (*Detector, []adr.Report) {
		det, err := New(Options{
			Cluster:           cluster.Config{Executors: 4},
			Classifier:        core.Config{K: 7, B: 8, C: 4, Seed: 1},
			CandidateBlocking: blocking,
		})
		if err != nil {
			t.Fatal(err)
		}
		cut := len(c.Reports) - 20
		existing := make([]adr.Report, cut)
		copy(existing, c.Reports[:cut])
		batch := make([]adr.Report, 20)
		copy(batch, c.Reports[cut:])
		if err := det.AddKnownReports(existing); err != nil {
			t.Fatal(err)
		}
		trainOnGroundTruth(t, c, det, 1000)
		return det, batch
	}

	detFull, batch := build(false)
	full, err := detFull.Detect(batch)
	if err != nil {
		t.Fatal(err)
	}
	detBlocked, batch2 := build(true)
	blocked, err := detBlocked.Detect(batch2)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocked) >= len(full) {
		t.Errorf("blocking scored %d pairs vs exhaustive %d; expected far fewer", len(blocked), len(full))
	}
	// Every ground-truth duplicate flagged by the exhaustive run must
	// still be flagged under blocking (duplicates share their drug).
	flaggedBlocked := make(map[[2]string]bool)
	for _, m := range Duplicates(blocked) {
		flaggedBlocked[[2]string{m.CaseA, m.CaseB}] = true
		flaggedBlocked[[2]string{m.CaseB, m.CaseA}] = true
	}
	for _, m := range Duplicates(full) {
		a, _ := detFull.Database().Get(m.CaseA)
		b, _ := detFull.Database().Get(m.CaseB)
		if !c.IsDuplicatePair(a.ArrivalSeq, b.ArrivalSeq) {
			continue
		}
		if !flaggedBlocked[[2]string{m.CaseA, m.CaseB}] {
			t.Errorf("blocking lost true duplicate %s/%s", m.CaseA, m.CaseB)
		}
	}
}

func TestSaveLoadModelOnDetector(t *testing.T) {
	c, det, batch := testCorpus(t, 10)
	trainOnGroundTruth(t, c, det, 800)
	var buf bytes.Buffer
	if err := det.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}

	// Fresh detector, same database contents, model loaded instead of
	// retrained: Detect must work and produce scored matches.
	det2, err := New(Options{
		Cluster:    cluster.Config{Executors: 2},
		Classifier: core.Config{K: 7, B: 8, C: 4, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	existing := make([]adr.Report, 490)
	copy(existing, c.Reports[:490])
	for i := range existing {
		existing[i].ArrivalSeq = 0
	}
	if err := det2.AddKnownReports(existing); err != nil {
		t.Fatal(err)
	}
	if err := det2.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	if !det2.Trained() {
		t.Fatal("loaded detector not trained")
	}
	matches, err := det2.Detect(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Error("loaded model produced no matches")
	}

	// Saving before training must fail.
	det3, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := det3.SaveModel(&bytes.Buffer{}); err == nil {
		t.Error("SaveModel before training must fail")
	}
}

func TestValidateBatch(t *testing.T) {
	det, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := []adr.Report{
		{CaseNumber: "OK", CalculatedAge: 30, Sex: "F",
			GenericNameDesc: "Atorvastatin", MedDRAPTName: "Myalgia"},
		{CaseNumber: "BAD", CalculatedAge: 400, Sex: "Z"},
		{CalculatedAge: 30, GenericNameDesc: "X", MedDRAPTName: "Y"}, // no case number
	}
	issues := det.ValidateBatch(batch)
	if len(issues) != 2 {
		t.Fatalf("flagged %d reports, want 2: %v", len(issues), issues)
	}
	if len(issues["BAD"]) < 2 {
		t.Errorf("BAD issues = %v", issues["BAD"])
	}
	if _, ok := issues["OK"]; ok {
		t.Error("clean report flagged")
	}
}

func TestDetectUnderFaultInjectionMatchesCleanRun(t *testing.T) {
	c := adrgen.Generate(adrgen.Config{
		NumReports: 400, DuplicatePairs: 30, NumDrugs: 60, NumADRs: 90, Seed: 21,
	})
	run := func(failureRate float64) []Match {
		det, err := New(Options{
			Cluster: cluster.Config{
				Executors: 4, FailureRate: failureRate, MaxTaskRetries: 40, Seed: 9,
			},
			Classifier: core.Config{K: 7, B: 6, C: 3, Seed: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		existing := make([]adr.Report, 385)
		copy(existing, c.Reports[:385])
		batch := make([]adr.Report, 15)
		copy(batch, c.Reports[385:])
		for i := range existing {
			existing[i].ArrivalSeq = 0
		}
		for i := range batch {
			batch[i].ArrivalSeq = 0
		}
		if err := det.AddKnownReports(existing); err != nil {
			t.Fatal(err)
		}
		trainOnGroundTruth(t, c, det, 600)
		matches, err := det.Detect(batch)
		if err != nil {
			t.Fatal(err)
		}
		return matches
	}
	clean := run(0)
	faulty := run(0.2)
	if len(clean) != len(faulty) {
		t.Fatalf("match counts differ: %d vs %d", len(clean), len(faulty))
	}
	for i := range clean {
		if clean[i].CaseA != faulty[i].CaseA || clean[i].CaseB != faulty[i].CaseB ||
			clean[i].Duplicate != faulty[i].Duplicate {
			t.Fatalf("fault injection changed match %d: %+v vs %+v", i, clean[i], faulty[i])
		}
	}
}

// TestDetectMatchesLegacyKernelBitExact runs the full pipeline twice over
// the same corpus — once on the interned merge-scan kernel, once with
// interning disabled so every distance goes through the legacy string-set
// kernel — and requires the Detect output to be identical, scores compared
// bit-exactly. This is the end-to-end guarantee on top of the per-pair
// differential tests in internal/pairdist.
func TestDetectMatchesLegacyKernelBitExact(t *testing.T) {
	run := func(legacy bool) []Match {
		c, det, batch := testCorpus(t, 20)
		det.disableInterning = legacy
		if legacy {
			// testCorpus already featurized the database through the
			// interned path; rebuild everything through the oracle.
			det.feats = det.feats[:0]
			if err := det.extendFeatures(); err != nil {
				t.Fatal(err)
			}
		}
		for i := range det.feats {
			if det.feats[i].Interned == legacy {
				t.Fatalf("feature %d: Interned=%v in legacy=%v run", i, det.feats[i].Interned, legacy)
			}
		}
		trainOnGroundTruth(t, c, det, 2000)
		matches, err := det.DetectAll(batch)
		if err != nil {
			t.Fatal(err)
		}
		// Detect sorts by descending score with an unstable sort; order
		// ties deterministically by case pair before comparing.
		sort.Slice(matches, func(i, j int) bool {
			if matches[i].CaseA != matches[j].CaseA {
				return matches[i].CaseA < matches[j].CaseA
			}
			return matches[i].CaseB < matches[j].CaseB
		})
		return matches
	}
	interned := run(false)
	oracle := run(true)
	if len(interned) != len(oracle) {
		t.Fatalf("match counts differ: interned %d vs legacy %d", len(interned), len(oracle))
	}
	for i := range interned {
		if interned[i] != oracle[i] {
			t.Fatalf("match %d differs: interned %+v vs legacy %+v", i, interned[i], oracle[i])
		}
	}
	if len(Duplicates(interned)) == 0 {
		t.Fatal("differential run found no duplicates; test would be vacuous")
	}
}

// TestBlockedCandidatesMatchStringIndexReference pins the interned-ID
// inverted index in blockedCandidates to a straightforward string-keyed
// reference over the same features: identical candidate pair sets.
func TestBlockedCandidatesMatchStringIndexReference(t *testing.T) {
	c, det, batch := testCorpus(t, 20)
	_ = c
	if err := det.db.Add(batch...); err != nil {
		t.Fatal(err)
	}
	if err := det.extendFeatures(); err != nil {
		t.Fatal(err)
	}
	existing := det.db.Len() - len(batch)
	total := det.db.Len()
	got := det.blockedCandidates(existing, total)

	byTerm := make(map[string][]int)
	for i := 0; i < total; i++ {
		for _, s := range det.feats[i].DrugSet {
			byTerm["drug\x00"+s] = append(byTerm["drug\x00"+s], i)
		}
		for _, s := range det.feats[i].ADRSet {
			byTerm["adr\x00"+s] = append(byTerm["adr\x00"+s], i)
		}
	}
	want := make(map[[2]int]bool)
	for b := existing; b < total; b++ {
		for kind, terms := range map[string][]string{
			"drug\x00": det.feats[b].DrugSet, "adr\x00": det.feats[b].ADRSet,
		} {
			for _, s := range terms {
				for _, a := range byTerm[kind+s] {
					if a < b {
						want[[2]int{a, b}] = true
					}
				}
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("blocked candidates: %d pairs, reference %d", len(got), len(want))
	}
	for _, p := range got {
		if !want[[2]int{p.A, p.B}] {
			t.Errorf("pair (%d,%d) not in string-indexed reference", p.A, p.B)
		}
	}
	if len(got) == 0 {
		t.Fatal("no blocked candidates; test would be vacuous")
	}
}

func TestMetricsExposed(t *testing.T) {
	c, det, _ := testCorpus(t, 10)
	_ = c
	m := det.Metrics()
	if m.RecordsProcessed == 0 {
		t.Error("feature extraction should have processed records")
	}
	if det.Engine() == nil {
		t.Error("engine must be exposed")
	}
}

// TestDetectRollsBackOnEngineFailure pins the atomicity of Detect on the
// early error path: the batch is absorbed into the database *before*
// feature extraction, so a failed extraction must put the database back or
// the batch is silently lost — a retry then failed on its own case numbers
// instead of detecting anything.
func TestDetectRollsBackOnEngineFailure(t *testing.T) {
	c, det, batch := testCorpus(t, 20)
	trainOnGroundTruth(t, c, det, 2000)
	existing := det.Database().Len()
	nFeats := len(det.feats)

	// Swap in an engine whose tasks always fail: extraction of the new
	// batch dies after the database has absorbed it.
	goodCl, goodCtx := det.cl, det.ctx
	badCl := cluster.New(cluster.Config{Executors: 2, FailureRate: 1, MaxTaskRetries: 1, Seed: 5})
	det.cl, det.ctx = badCl, rdd.NewContext(badCl)
	if _, err := det.Detect(batch); err == nil {
		t.Fatal("expected Detect to fail on the always-failing engine")
	}
	det.cl, det.ctx = goodCl, goodCtx

	if got := det.Database().Len(); got != existing {
		t.Fatalf("failed Detect left the database at %d reports, want %d", got, existing)
	}
	if got := len(det.feats); got != nFeats {
		t.Fatalf("failed Detect left %d features, want %d", got, nFeats)
	}

	// The same batch retried must now be fully processed.
	matches, err := det.Detect(batch)
	if err != nil {
		t.Fatalf("retrying the batch after a failed Detect: %v", err)
	}
	if len(matches) == 0 {
		t.Fatal("retried Detect returned no matches")
	}
	if got := det.Database().Len(); got != existing+len(batch) {
		t.Fatalf("retried Detect absorbed to %d reports, want %d", got, existing+len(batch))
	}
	_ = c
}

// TestDetectRollsBackOnClassifierFailure pins the late error path: the
// failure strikes *after* the batch's features were extracted and appended,
// so both the database and the feature slice must roll back together.
func TestDetectRollsBackOnClassifierFailure(t *testing.T) {
	c, det, batch := testCorpus(t, 20)
	trainOnGroundTruth(t, c, det, 2000)
	existing := det.Database().Len()
	nFeats := len(det.feats)

	// A classifier trained on 5-dimensional vectors rejects the
	// 7-dimensional pair vectors, deterministically failing Detect at the
	// classification step.
	goodClf := det.clf
	det.clf = wrongDimClassifier(t, det.ctx)
	if _, err := det.Detect(batch); err == nil {
		t.Fatal("expected Detect to fail on the wrong-dimension classifier")
	}
	det.clf = goodClf

	if got := det.Database().Len(); got != existing {
		t.Fatalf("failed Detect left the database at %d reports, want %d", got, existing)
	}
	if got := len(det.feats); got != nFeats {
		t.Fatalf("failed Detect left %d features, want %d (features not rolled back)", got, nFeats)
	}

	matches, err := det.Detect(batch)
	if err != nil {
		t.Fatalf("retrying the batch after a failed Detect: %v", err)
	}
	if len(matches) == 0 {
		t.Fatal("retried Detect returned no matches")
	}
	if got := det.Database().Len(); got != existing+len(batch) {
		t.Fatalf("retried Detect absorbed to %d reports, want %d", got, existing+len(batch))
	}
	_ = c
}

// TestDetectMatchOrderDeterministic pins the total order of Detect's output:
// descending score, ties broken by (CaseA, CaseB). kNN scores take at most
// k+1 distinct values, so equal-score runs are long and an unstable sort
// keyed on score alone shuffled them unpredictably.
func TestDetectMatchOrderDeterministic(t *testing.T) {
	run := func() []Match {
		c, det, batch := testCorpus(t, 20)
		trainOnGroundTruth(t, c, det, 2000)
		matches, err := det.DetectAll(batch)
		if err != nil {
			t.Fatal(err)
		}
		return matches
	}
	matches := run()
	if len(matches) < 2 {
		t.Fatalf("only %d matches; ordering test is vacuous", len(matches))
	}
	ties := 0
	for i := 1; i < len(matches); i++ {
		a, b := matches[i-1], matches[i]
		if a.Score < b.Score {
			t.Fatalf("matches %d,%d not in descending score order: %v < %v", i-1, i, a.Score, b.Score)
		}
		if a.Score == b.Score {
			ties++
			if a.CaseA > b.CaseA || (a.CaseA == b.CaseA && a.CaseB >= b.CaseB) {
				t.Fatalf("equal-score matches %d,%d not ordered by case numbers: (%s,%s) before (%s,%s)",
					i-1, i, a.CaseA, a.CaseB, b.CaseA, b.CaseB)
			}
		}
	}
	if ties == 0 {
		t.Fatal("no equal-score runs in output; tie-break untested")
	}
	// A fully independent re-run must reproduce the identical sequence.
	again := run()
	if len(again) != len(matches) {
		t.Fatalf("re-run returned %d matches, first run %d", len(again), len(matches))
	}
	for i := range matches {
		if matches[i] != again[i] {
			t.Fatalf("match %d differs between identical runs: %+v vs %+v", i, matches[i], again[i])
		}
	}
}

// TestCandidatePrefixIndexKeepsDuplicatesCutsPairs runs the full pipeline
// under the prefix-filtered candidate generator: far fewer pairs are scored
// than exhaustively, and every ground-truth duplicate the exhaustive run
// flags survives (duplicate reports re-describe the same drugs, reactions,
// and narrative, so their signature overlap clears the threshold).
func TestCandidatePrefixIndexKeepsDuplicatesCutsPairs(t *testing.T) {
	c := adrgen.Generate(adrgen.Config{
		NumReports: 500, DuplicatePairs: 40, NumDrugs: 80, NumADRs: 120, Seed: 42,
	})
	build := func(strategy CandidateStrategy) (*Detector, []adr.Report) {
		det, err := New(Options{
			Cluster:        cluster.Config{Executors: 4},
			Classifier:     core.Config{K: 7, B: 8, C: 4, Seed: 1},
			Candidates:     strategy,
			CandidateTheta: 0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		cut := len(c.Reports) - 20
		existing := make([]adr.Report, cut)
		copy(existing, c.Reports[:cut])
		batch := make([]adr.Report, 20)
		copy(batch, c.Reports[cut:])
		if err := det.AddKnownReports(existing); err != nil {
			t.Fatal(err)
		}
		trainOnGroundTruth(t, c, det, 1000)
		return det, batch
	}

	detFull, batch := build(CandidateBruteForce)
	full, err := detFull.DetectAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	detPrefix, batch2 := build(CandidatePrefixIndex)
	prefixed, err := detPrefix.DetectAll(batch2)
	if err != nil {
		t.Fatal(err)
	}
	if len(prefixed) == 0 {
		t.Fatal("prefix-index run scored no pairs")
	}
	if len(prefixed)*2 >= len(full) {
		t.Errorf("prefix index scored %d pairs vs exhaustive %d; expected far fewer", len(prefixed), len(full))
	}
	flagged := make(map[[2]string]bool)
	for _, m := range Duplicates(prefixed) {
		flagged[[2]string{m.CaseA, m.CaseB}] = true
		flagged[[2]string{m.CaseB, m.CaseA}] = true
	}
	for _, m := range Duplicates(full) {
		a, _ := detFull.Database().Get(m.CaseA)
		b, _ := detFull.Database().Get(m.CaseB)
		if !c.IsDuplicatePair(a.ArrivalSeq, b.ArrivalSeq) {
			continue
		}
		if !flagged[[2]string{m.CaseA, m.CaseB}] {
			t.Errorf("prefix index lost true duplicate %s/%s", m.CaseA, m.CaseB)
		}
	}
}

// blockTestDetector builds a CandidateBlock detector over the shared test
// corpus, pre-loaded with all but the last `holdout` reports and trained on
// ground truth — the fixture for the incremental-index tests below.
func blockTestDetector(t *testing.T, holdout int) (*adrgen.Corpus, *Detector, []adr.Report) {
	t.Helper()
	c := adrgen.Generate(adrgen.Config{
		NumReports: 500, DuplicatePairs: 40, NumDrugs: 80, NumADRs: 120, Seed: 42,
	})
	det, err := New(Options{
		Cluster:    cluster.Config{Executors: 4, CoresPerExecutor: 2},
		Classifier: core.Config{K: 7, B: 8, C: 4, Theta: 0, Seed: 1},
		Candidates: CandidateBlock,
	})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(c.Reports) - holdout
	existing := make([]adr.Report, cut)
	copy(existing, c.Reports[:cut])
	batch := make([]adr.Report, holdout)
	copy(batch, c.Reports[cut:])
	if err := det.AddKnownReports(existing); err != nil {
		t.Fatal(err)
	}
	trainOnGroundTruth(t, c, det, 2000)
	return c, det, batch
}

// rebuildTermIndex re-derives the blocking index from scratch over a
// detector's current features — the reference the incrementally-maintained
// index is compared against.
func rebuildTermIndex(d *Detector) map[uint64][]int32 {
	fresh := &Detector{feats: d.feats}
	fresh.extendTermIndex(len(d.feats))
	if fresh.termIndex == nil {
		fresh.termIndex = map[uint64][]int32{}
	}
	return fresh.termIndex
}

func sortCasePairs(matches []Match) {
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].CaseA != matches[j].CaseA {
			return matches[i].CaseA < matches[j].CaseA
		}
		return matches[i].CaseB < matches[j].CaseB
	})
}

// TestBlockedIndexIncrementalEqualsOneShot pins the incremental blocking
// index across Detect calls: detecting a stream in several batches must
// score the identical match set as one Detect over the whole stream, and the
// incrementally-extended index must equal a from-scratch rebuild. This is
// what lets a long-lived ingest service (internal/serve) append postings per
// arrival instead of re-indexing the database every batch.
func TestBlockedIndexIncrementalEqualsOneShot(t *testing.T) {
	_, detInc, batch := blockTestDetector(t, 30)
	var union []Match
	for _, chunk := range [][]adr.Report{batch[:7], batch[7:8], batch[8:20], batch[20:]} {
		m, err := detInc.DetectAll(chunk)
		if err != nil {
			t.Fatal(err)
		}
		union = append(union, m...)
	}
	if got, want := detInc.termIndexed, len(detInc.feats); got != want {
		t.Fatalf("index covers %d features, want %d", got, want)
	}
	if !reflect.DeepEqual(detInc.termIndex, rebuildTermIndex(detInc)) {
		t.Fatal("incrementally-extended term index differs from a from-scratch rebuild")
	}

	_, detOne, batch2 := blockTestDetector(t, 30)
	oneShot, err := detOne.DetectAll(batch2)
	if err != nil {
		t.Fatal(err)
	}

	sortCasePairs(union)
	sortCasePairs(oneShot)
	if !reflect.DeepEqual(union, oneShot) {
		t.Fatalf("incremental union (%d matches) differs from one-shot Detect (%d matches)",
			len(union), len(oneShot))
	}
	if len(Duplicates(union)) == 0 {
		t.Fatal("no duplicates found; equivalence test would be vacuous")
	}
}

// TestBlockedIndexRollsBackOnFailedDetect: a failed Detect must pop the
// failed batch's postings back off the index, or every later batch would be
// paired against reports that are no longer in the database.
func TestBlockedIndexRollsBackOnFailedDetect(t *testing.T) {
	_, det, batch := blockTestDetector(t, 20)
	// Warm the index past the seed database.
	if _, err := det.Detect(batch[:5]); err != nil {
		t.Fatal(err)
	}

	// Same wrong-dimension classifier trick as the rollback tests above:
	// Detect fails after features (and postings) were appended.
	goodClf := det.clf
	det.clf = wrongDimClassifier(t, det.ctx)
	if _, err := det.Detect(batch[5:15]); err == nil {
		t.Fatal("expected Detect to fail on the wrong-dimension classifier")
	}
	det.clf = goodClf

	if got, want := det.termIndexed, len(det.feats); got != want {
		t.Fatalf("after rollback the index covers %d features, want %d", got, want)
	}
	if !reflect.DeepEqual(det.termIndex, rebuildTermIndex(det)) {
		t.Fatal("rolled-back term index differs from a from-scratch rebuild")
	}

	// The failed batch retried, then the rest: all postings land once.
	for _, chunk := range [][]adr.Report{batch[5:15], batch[15:]} {
		if _, err := det.Detect(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(det.termIndex, rebuildTermIndex(det)) {
		t.Fatal("term index diverged from rebuild after retry")
	}
}

// TestDetectReleasesShuffleState pins the serving-layer memory contract: a
// Detect call releases its own shuffle map outputs on exit, so a long-lived
// detector (the online service) stays flat across an unbounded stream of
// batches instead of retaining every batch's shuffles for the cluster's
// lifetime. Training-era shuffles are left alone.
func TestDetectReleasesShuffleState(t *testing.T) {
	_, det, batch := blockTestDetector(t, 20)
	shuffles := det.Engine().Cluster().Shuffles()
	before := shuffles.Registered()
	mark := shuffles.Mark()
	for i := 0; i < 4; i++ {
		lo, hi := i*5, (i+1)*5
		if _, err := det.Detect(batch[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if shuffles.Mark() == mark {
		t.Fatal("Detect registered no shuffles; test is vacuous")
	}
	if got := shuffles.Registered(); got != before {
		t.Fatalf("registered shuffles grew from %d to %d across 4 Detects; per-batch state leaked", before, got)
	}
}

// prefixTestModel trains the shared test corpus's classifier once and
// returns it saved, so the prefix-index fixtures can load it into
// detectors whose seed database is too small to train on.
func prefixTestModel(t *testing.T) []byte {
	t.Helper()
	c, det, _ := testCorpus(t, 20)
	trainOnGroundTruth(t, c, det, 2000)
	var buf bytes.Buffer
	if err := det.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	det.Engine().Cluster().Close()
	return buf.Bytes()
}

// prefixTestDetector builds a CandidatePrefixIndex detector seeded with the
// first `seed` reports of corpus and the saved model, and returns the rest
// of the corpus as its stream.
func prefixTestDetector(t *testing.T, corpus []adr.Report, seed int, model []byte) (*Detector, []adr.Report) {
	t.Helper()
	det, err := New(Options{
		Cluster:    cluster.Config{Executors: 4, CoresPerExecutor: 2},
		Classifier: core.Config{K: 7, B: 8, C: 4, Theta: 0, Seed: 1},
		Candidates: CandidatePrefixIndex,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddKnownReports(append([]adr.Report(nil), corpus[:seed]...)); err != nil {
		t.Fatal(err)
	}
	if err := det.LoadModel(bytes.NewReader(model)); err != nil {
		t.Fatal(err)
	}
	return det, append([]adr.Report(nil), corpus[seed:]...)
}

// rebuildPrefixIndex re-derives a detector's prefix index from its features
// in one go: the token order frozen over the same records, the rest
// appended in one call — the reference the incrementally kept index must
// equal.
func rebuildPrefixIndex(t *testing.T, d *Detector) *candgen.Index {
	t.Helper()
	sigs, err := candgen.Signatures(d.feats)
	if err != nil {
		t.Fatal(err)
	}
	frozen := d.prefix.Frozen()
	ix, err := candgen.Build(d.ctx, sigs[:frozen], DefaultCandidateTheta, d.classifierPartitions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Append(sigs[frozen:]); err != nil {
		t.Fatal(err)
	}
	return ix
}

// wrongDimClassifier returns a classifier trained on 5-dimensional vectors:
// it rejects the 7-dimensional pair vectors, failing Detect after candidate
// generation.
func wrongDimClassifier(t *testing.T, ctx *rdd.Context) *core.Classifier {
	t.Helper()
	bogus := make([]core.TrainingPair, 8)
	for i := range bogus {
		v := make([]float64, 5)
		v[i%5] = float64(i + 1)
		label := -1
		if i%2 == 0 {
			label = 1
		}
		bogus[i] = core.TrainingPair{Vec: v, Label: label}
	}
	clf, err := core.Train(ctx, bogus, core.Config{K: 1, B: 2, C: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// TestPrefixIndexIncrementalEqualsOneShot is the prefix-index counterpart
// of TestBlockedIndexIncrementalEqualsOneShot, as a property over random
// stream partitionings: a 150-report database takes a 350-report stream,
// so the frozen token order is re-frozen mid-stream. The union of the
// batches' matches must equal one Detect over the whole stream, and the
// kept index must equal a rebuild frozen at the same point.
func TestPrefixIndexIncrementalEqualsOneShot(t *testing.T) {
	model := prefixTestModel(t)
	corpus := adrgen.Generate(adrgen.Config{
		NumReports: 500, DuplicatePairs: 40, NumDrugs: 80, NumADRs: 120, Seed: 42,
	}).Reports
	const seed = 150

	detOne, stream := prefixTestDetector(t, corpus, seed, model)
	oneShot, err := detOne.DetectAll(stream)
	if err != nil {
		t.Fatal(err)
	}
	sortCasePairs(oneShot)
	if len(Duplicates(oneShot)) == 0 {
		t.Fatal("one-shot Detect found no duplicates; property would be vacuous")
	}

	prop := func(s int64) bool {
		det, stream := prefixTestDetector(t, corpus, seed, model)
		defer det.Engine().Cluster().Close()
		rng := rand.New(rand.NewSource(s))
		var union []Match
		// A first batch of at most 100 freezes over at most 250 reports,
		// so the 500-report total crosses the doubling re-freeze.
		firstFreeze := 0
		for i := 0; i < len(stream); {
			n := min(1+rng.Intn(100), len(stream)-i)
			m, err := det.DetectAll(stream[i : i+n])
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				firstFreeze = det.prefix.Frozen()
			}
			union = append(union, m...)
			i += n
		}
		if det.prefix.Frozen() < 2*firstFreeze {
			t.Fatalf("index frozen at %d then %d; the stream never re-froze", firstFreeze, det.prefix.Frozen())
		}
		if len(det.sigs) != len(det.feats) || det.prefix.Len() != len(det.feats) {
			t.Fatalf("%d signatures and %d indexed records for %d features", len(det.sigs), det.prefix.Len(), len(det.feats))
		}
		if !reflect.DeepEqual(det.prefix, rebuildPrefixIndex(t, det)) {
			t.Fatal("incrementally kept prefix index differs from a rebuild")
		}
		sortCasePairs(union)
		return reflect.DeepEqual(union, oneShot)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatalf("a stream partitioning changed the match set: %v", err)
	}
}

// TestPrefixIndexRollsBackOnFailedDetect: a failed Detect that appended to
// the prefix index pops its postings and signatures again, and a failed
// Detect that re-froze the token order drops the index, so the retry
// rebuilds it exactly as a from-scratch build would.
func TestPrefixIndexRollsBackOnFailedDetect(t *testing.T) {
	model := prefixTestModel(t)
	corpus := adrgen.Generate(adrgen.Config{
		NumReports: 500, DuplicatePairs: 40, NumDrugs: 80, NumADRs: 120, Seed: 42,
	}).Reports
	det, stream := prefixTestDetector(t, corpus, 150, model)
	goodClf, badClf := det.clf, wrongDimClassifier(t, det.ctx)
	if _, err := det.Detect(stream[:50]); err != nil {
		t.Fatal(err)
	}
	if got := det.prefix.Frozen(); got != 200 {
		t.Fatalf("first Detect froze over %d reports, want 200", got)
	}

	// An appending Detect fails: its postings and signatures pop off.
	det.clf = badClf
	if _, err := det.Detect(stream[50:60]); err == nil {
		t.Fatal("expected Detect to fail on the wrong-dimension classifier")
	}
	if det.prefix == nil {
		t.Fatal("a failed Detect that only appended dropped the index")
	}
	if det.prefix.Len() != 200 || len(det.sigs) != 200 {
		t.Fatalf("after the failed append: %d indexed records, %d signatures; want 200", det.prefix.Len(), len(det.sigs))
	}
	if !reflect.DeepEqual(det.prefix, rebuildPrefixIndex(t, det)) {
		t.Fatal("rolled-back prefix index differs from a rebuild")
	}

	// A Detect that doubles the database re-freezes, then fails: the index
	// frozen over the failed batch is dropped.
	if _, err := det.Detect(stream[50:250]); err == nil {
		t.Fatal("expected the re-freezing Detect to fail")
	}
	det.clf = goodClf
	if det.prefix != nil || len(det.sigs) != 200 || det.Database().Len() != 200 {
		t.Fatalf("failed re-freeze left index %v, %d signatures, %d reports", det.prefix != nil, len(det.sigs), det.Database().Len())
	}

	if _, err := det.Detect(stream[50:250]); err != nil {
		t.Fatalf("retrying the batch: %v", err)
	}
	sigs, err := candgen.Signatures(det.feats)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := candgen.Build(det.ctx, sigs, DefaultCandidateTheta, det.classifierPartitions())
	if err != nil {
		t.Fatal(err)
	}
	if det.prefix.Frozen() != 400 || !reflect.DeepEqual(det.prefix, scratch) {
		t.Fatalf("retried Detect's index (frozen at %d) differs from a from-scratch build", det.prefix.Frozen())
	}
}

// TestPrefixIndexBatchCostIndependentOfDatabaseSize pins the per-batch
// cost on exact counts: after a warm-up Detect has frozen the token order,
// the same 100-report batch appends the same number of postings against a
// 2,000-report and an 8,000-report database, runs no stage that ranks or
// indexes existing records, and probes only its own records.
func TestPrefixIndexBatchCostIndependentOfDatabaseSize(t *testing.T) {
	model := prefixTestModel(t)
	corpus := adrgen.Generate(adrgen.Config{NumReports: 8200, DuplicatePairs: 60, Seed: 7}).Reports
	warm, batch := corpus[8000:8100], corpus[8100:]
	measure := func(size int) (appended int64) {
		det, _ := prefixTestDetector(t, corpus[:size], size, model)
		defer det.Engine().Cluster().Close()
		if _, err := det.Detect(append([]adr.Report(nil), warm...)); err != nil {
			t.Fatal(err)
		}
		frozen, entries := det.prefix.Frozen(), det.prefix.Entries()
		tr := det.Engine().Cluster().Tracer()
		tr.Enable()
		tr.Reset()
		if _, err := det.Detect(append([]adr.Report(nil), batch...)); err != nil {
			t.Fatal(err)
		}
		tr.Disable()
		if det.prefix.Frozen() != frozen {
			t.Fatalf("database of %d: the batch re-froze the index (%d -> %d)", size, frozen, det.prefix.Frozen())
		}
		probeTasks := 0
		for _, e := range tr.Snapshot() {
			for _, stage := range []string{"candgen.tokenFreq", "candgen.rank", "candgen.prefixIndex"} {
				if e.Kind == cluster.EventStageStart && strings.Contains(e.Stage, stage) {
					t.Fatalf("database of %d: the batch ran stage %s over the database", size, e.Stage)
				}
			}
			if e.Kind == cluster.EventTaskSuccess && strings.Contains(e.Stage, "candgen.probe1d") {
				probeTasks++
			}
		}
		if probeTasks == 0 {
			t.Fatalf("database of %d: no probe stage traced", size)
		}
		return det.prefix.Entries() - entries
	}
	small, large := measure(2000), measure(8000)
	if small == 0 || small != large {
		t.Fatalf("the batch appended %d postings against 2k reports, %d against 8k; want equal and non-zero", small, large)
	}
}
