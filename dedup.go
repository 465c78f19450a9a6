// Package adrdedup is a library for scalable duplicate detection in adverse
// drug reaction (ADR) report databases, reproducing Wang & Karimi, "Parallel
// Duplicate Detection in Adverse Drug Reaction Databases with Spark"
// (EDBT 2016).
//
// The Detector implements the workflow of the paper's Figure 1: reports are
// text-processed, candidate report pairs are reduced to 7-dimensional field
// distance vectors (§4.2), and a Fast kNN classifier (§4.3) labels each pair
// duplicate or not. The classifier's kNN join is parallelized on an embedded
// Spark-like engine (internal/rdd + internal/cluster): the labelled training
// pairs are Voronoi-partitioned with k-means, cross-partition searches are
// pruned with the hyperplane bound of Algorithm 1, and the testing set can
// be pre-pruned around the positive pairs (§4.3.4).
//
// Typical use:
//
//	det, _ := adrdedup.New(adrdedup.Options{})
//	det.AddKnownReports(existing)                  // seed the database
//	det.TrainFromLabeledCases(labelled)            // expert-labelled pairs
//	matches, _ := det.Detect(newBatch)             // Eq. 3 over the batch
//
// Detect checks every new report against the existing database and the rest
// of its batch (Eq. 3), returns scored pairs, and absorbs the batch into the
// database so the next batch is checked against it too.
package adrdedup

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"adrdedup/internal/adr"
	"adrdedup/internal/candgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
	"adrdedup/internal/intern"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
)

// Options configures a Detector. Zero values take defaults.
type Options struct {
	// Cluster configures the embedded execution engine (executor count,
	// memory, failure injection, network model). The zero value is a
	// 4-executor cluster.
	Cluster cluster.Config
	// Classifier configures Fast kNN (k, cluster count b, partitions c,
	// threshold θ, testing-set pruning).
	Classifier core.Config
	// ExtractPartitions sets the parallelism of report text processing
	// (0 = the engine's default parallelism).
	ExtractPartitions int
	// CandidateBlocking restricts Eq. 3's candidate pairs to reports that
	// share at least one drug or one reaction term — the classic
	// record-linkage blocking step. It cuts candidate counts by orders of
	// magnitude on large databases at the cost of missing duplicates
	// whose drug *and* reaction lists were both recoded (rare: the
	// paper's Table 1 duplicates always share the drug).
	//
	// Deprecated: equivalent to Candidates = CandidateBlock; ignored when
	// Candidates is set explicitly.
	CandidateBlocking bool
	// Candidates selects how Eq. 3's candidate pairs are generated; see
	// CandidateStrategy. The zero value is brute force (all pairs), unless
	// the legacy CandidateBlocking flag is set.
	Candidates CandidateStrategy
	// CandidateTheta is the signature Jaccard threshold used by
	// CandidatePrefixIndex (0 = the 0.5 default). Pairs whose signature
	// similarity falls below it are never vectorized or classified.
	CandidateTheta float64
}

// CandidateStrategy selects the candidate-generation algorithm feeding the
// pairwise distance stage.
type CandidateStrategy int

const (
	// CandidateBruteForce enumerates every Eq. 3 pair — exact, quadratic.
	CandidateBruteForce CandidateStrategy = iota
	// CandidateBlock keeps pairs sharing a drug or reaction term (the
	// legacy CandidateBlocking behavior).
	CandidateBlock
	// CandidatePrefixIndex keeps pairs whose signature-set Jaccard
	// similarity reaches Options.CandidateTheta, found with the
	// prefix-filtered inverted index of internal/candgen — exact with
	// respect to that threshold, far below quadratic work in practice.
	CandidatePrefixIndex
)

func (s CandidateStrategy) String() string {
	switch s {
	case CandidateBlock:
		return "block"
	case CandidatePrefixIndex:
		return "prefix-index"
	default:
		return "brute-force"
	}
}

// DefaultCandidateTheta is the signature-similarity threshold
// CandidatePrefixIndex uses when Options.CandidateTheta is zero. Duplicate
// ADR reports re-describe the same drugs, reactions, and narrative, so
// their signature sets overlap heavily; 0.5 keeps every plausibly matching
// pair while discarding the bulk of the quadratic space.
const DefaultCandidateTheta = 0.5

// Detector is the end-to-end duplicate detection pipeline bound to one
// report database. Methods must be called from one goroutine, mirroring a
// Spark driver.
type Detector struct {
	opts Options

	cl  *cluster.Cluster
	ctx *rdd.Context
	db  *adr.Database

	// interner assigns token IDs shared by every feature this detector
	// extracts, across batches, so all features stay mutually comparable
	// by the merge-scan Jaccard kernel.
	interner *intern.Interner
	// disableInterning forces the legacy string-set kernel (and string
	// blocking); it exists so differential tests can run the whole
	// pipeline against the pre-interning oracle.
	disableInterning bool
	// feats[i] is the preprocessed form of the report with ArrivalSeq i.
	feats []pairdist.Features

	// termIndex is the incremental blocking index behind CandidateBlock:
	// kind-tagged interned token ID -> arrival sequences of the reports
	// carrying that term, ascending. It covers feats[:termIndexed] and is
	// extended per arriving batch instead of being rebuilt per Detect, so
	// online ingestion pays O(batch terms), not O(database terms), per
	// call. A failed Detect truncates it together with the database.
	termIndex   map[uint64][]int32
	termIndexed int

	// sigs[i] is the candidate signature of feats[i], and prefix the
	// prefix index over them behind CandidatePrefixIndex. Both persist
	// across Detect calls: a batch appends its own signatures and postings
	// and probes only itself, while the token order stays frozen until the
	// database has doubled (see prefixCandidates). A failed Detect rolls
	// both back with the database.
	sigs   [][]uint32
	prefix *candgen.Index

	clf      *core.Classifier
	training []core.TrainingPair
}

// Match is one scored report pair produced by Detect.
type Match struct {
	// CaseA and CaseB identify the reports (CaseB is the newer one).
	CaseA, CaseB string
	// Score is the Eq. 5 classifier score.
	Score float64
	// Duplicate is the Eq. 6 decision at the configured θ.
	Duplicate bool
	// Pruned marks pairs eliminated by testing-set pruning.
	Pruned bool
}

// LabeledCasePair is an expert-labelled report pair referenced by case
// numbers, as a regulator's officers would record them.
type LabeledCasePair struct {
	CaseA, CaseB string
	Duplicate    bool
}

// New creates a Detector with an empty database.
func New(opts Options) (*Detector, error) {
	if err := opts.Classifier.Validate(); err != nil {
		return nil, err
	}
	cl := cluster.New(opts.Cluster)
	return &Detector{
		opts:     opts,
		cl:       cl,
		ctx:      rdd.NewContext(cl),
		db:       adr.NewDatabase(),
		interner: intern.New(),
	}, nil
}

// Database exposes the underlying report database.
func (d *Detector) Database() *adr.Database { return d.db }

// Metrics returns a snapshot of the engine's counters.
func (d *Detector) Metrics() cluster.MetricsSnapshot { return d.cl.Metrics().Snapshot() }

// Engine returns the embedded RDD context, for advanced use (experiment
// harnesses, custom jobs against the same virtual cluster).
func (d *Detector) Engine() *rdd.Context { return d.ctx }

// ValidateBatch runs structural validation (internal/adr.Validate) over a
// report batch and returns the issues keyed by case number. Issues are
// warnings — Detect tolerates partial records — but regulators generally
// want them surfaced before ingestion.
func (d *Detector) ValidateBatch(batch []adr.Report) map[string][]adr.ValidationIssue {
	out := make(map[string][]adr.ValidationIssue)
	for i, r := range batch {
		if issues := adr.Validate(r); len(issues) > 0 {
			key := r.CaseNumber
			if key == "" {
				key = fmt.Sprintf("(report #%d without case number)", i)
			}
			out[key] = issues
		}
	}
	return out
}

// AddKnownReports appends reports to the database without duplicate
// checking — the initial load of an existing regulator database.
func (d *Detector) AddKnownReports(reports []adr.Report) error {
	if len(reports) == 0 {
		return nil
	}
	if err := d.db.Add(reports...); err != nil {
		return err
	}
	return d.extendFeatures()
}

// extendFeatures preprocesses any reports not yet featurized.
func (d *Detector) extendFeatures() error {
	fresh := d.db.Slice(len(d.feats), d.db.Len())
	if len(fresh) == 0 {
		return nil
	}
	parts := d.opts.ExtractPartitions
	if parts <= 0 {
		parts = d.ctx.DefaultParallelism()
	}
	var feats []pairdist.Features
	var err error
	if d.disableInterning {
		feats, err = pairdist.ExtractAll(d.ctx, fresh, parts)
	} else {
		feats, err = pairdist.ExtractAllWith(d.ctx, d.interner, fresh, parts)
	}
	if err != nil {
		return fmt.Errorf("adrdedup: extracting features: %w", err)
	}
	d.feats = append(d.feats, feats...)
	return nil
}

// TrainFromLabeledCases computes distance vectors for the labelled pairs and
// (re)trains the Fast kNN classifier. All referenced case numbers must
// already be in the database.
func (d *Detector) TrainFromLabeledCases(pairs []LabeledCasePair) error {
	if len(pairs) == 0 {
		return errors.New("adrdedup: no labelled pairs")
	}
	ids := make([]pairdist.IDPair, len(pairs))
	for i, p := range pairs {
		a, ok := d.db.Get(p.CaseA)
		if !ok {
			return fmt.Errorf("adrdedup: unknown case %q", p.CaseA)
		}
		b, ok := d.db.Get(p.CaseB)
		if !ok {
			return fmt.Errorf("adrdedup: unknown case %q", p.CaseB)
		}
		label := -1
		if p.Duplicate {
			label = +1
		}
		ids[i] = pairdist.IDPair{A: a.ArrivalSeq, B: b.ArrivalSeq, Label: label}
	}
	return d.TrainFromIDPairs(ids)
}

// TrainFromIDPairs trains directly from arrival-sequence pairs with labels
// (+1 duplicate, -1 non-duplicate). It is the lower-level entry point used
// by the experiment harness, where pair sets are sampled by index.
func (d *Detector) TrainFromIDPairs(ids []pairdist.IDPair) error {
	recs, err := pairdist.ComputeVectors(d.ctx, d.feats, ids, d.classifierPartitions())
	if err != nil {
		return fmt.Errorf("adrdedup: vectorizing training pairs: %w", err)
	}
	training := make([]core.TrainingPair, len(recs))
	for i, r := range recs {
		training[i] = core.TrainingPair{Vec: r.Vec, Label: r.Label}
	}
	clf, err := core.Train(d.ctx, training, d.opts.Classifier)
	if err != nil {
		return fmt.Errorf("adrdedup: training classifier: %w", err)
	}
	d.clf = clf
	d.training = training
	return nil
}

// SaveModel serializes the trained classifier so a later process can skip
// retraining. The report database itself is saved separately (adr.WriteJSON).
func (d *Detector) SaveModel(w io.Writer) error {
	if d.clf == nil {
		return errors.New("adrdedup: no trained model to save")
	}
	return d.clf.Save(w)
}

// LoadModel restores a classifier previously written by SaveModel, binding
// it to this detector's engine. The database contents do not need to match
// the training-time database; the model is self-contained.
func (d *Detector) LoadModel(r io.Reader) error {
	clf, err := core.Load(d.ctx, r)
	if err != nil {
		return err
	}
	d.clf = clf
	d.training = nil
	return nil
}

// Trained reports whether a classifier is available.
func (d *Detector) Trained() bool { return d.clf != nil }

// TrainingSize returns the number of training pairs of the current model.
func (d *Detector) TrainingSize() int { return len(d.training) }

func (d *Detector) classifierPartitions() int {
	if d.opts.Classifier.C > 0 {
		return d.opts.Classifier.C
	}
	return d.ctx.DefaultParallelism()
}

// Detect implements Eq. 3: every report in the batch is paired with every
// earlier database report and with the batch reports before it, the pairs
// are vectorized and classified, and the batch is then absorbed into the
// database. Matches are returned sorted by descending score; pruned pairs
// are omitted unless includePruned is requested via DetectAll.
func (d *Detector) Detect(batch []adr.Report) ([]Match, error) {
	return d.detect(batch, false)
}

// DetectAll is Detect but also returns pairs eliminated by testing-set
// pruning (with Pruned set), for auditability.
func (d *Detector) DetectAll(batch []adr.Report) ([]Match, error) {
	return d.detect(batch, true)
}

func (d *Detector) detect(batch []adr.Report, includePruned bool) (_ []Match, retErr error) {
	if d.clf == nil {
		return nil, errors.New("adrdedup: classifier not trained")
	}
	if len(batch) == 0 {
		return nil, nil
	}
	// A long-lived detector (the online service) runs many Detects against
	// one cluster. Each run's shuffle map outputs are dead once its matches
	// are collected, so release them on exit rather than letting the
	// shuffle service retain every batch's outputs for the cluster's
	// lifetime. Training-era shuffles (ids at or below the mark) stay.
	shuffles := d.ctx.Cluster().Shuffles()
	mark := shuffles.Mark()
	defer shuffles.ReleaseSince(mark)
	existing := d.db.Len()
	nFeats := len(d.feats)
	if err := d.db.Add(batch...); err != nil {
		return nil, err
	}
	// Detect must be atomic: either the batch is absorbed and its matches
	// returned, or the detector is left exactly as it was. Without this
	// rollback, a transient failure after Add left the batch in the
	// database but unreported, and retrying the same batch failed on its
	// own case numbers.
	defer func() {
		if retErr != nil {
			d.db.Truncate(existing)
			d.feats = d.feats[:nFeats]
			d.truncateTermIndex(nFeats)
			d.truncatePrefixIndex(nFeats)
		}
	}()
	if err := d.extendFeatures(); err != nil {
		return nil, err
	}
	total := d.db.Len()

	// Candidate pairs of Eq. 3: new x earlier, including earlier batch
	// members (r is checked against A ∪ R - r, deduplicated by ordering).
	ids, err := d.candidates(existing, total)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, nil
	}
	recs, err := pairdist.ComputeVectors(d.ctx, d.feats, ids, d.classifierPartitions())
	if err != nil {
		return nil, fmt.Errorf("adrdedup: vectorizing candidate pairs: %w", err)
	}
	vecs := make([][]float64, len(recs))
	for i, r := range recs {
		vecs[i] = r.Vec
	}
	results, _, err := d.clf.Classify(vecs)
	if err != nil {
		return nil, fmt.Errorf("adrdedup: classifying candidate pairs: %w", err)
	}

	matches := make([]Match, 0, len(results))
	for _, res := range results {
		if res.Pruned && !includePruned {
			continue
		}
		pair := ids[res.ID]
		matches = append(matches, Match{
			CaseA:     d.db.CaseNumber(pair.A),
			CaseB:     d.db.CaseNumber(pair.B),
			Score:     res.Score,
			Duplicate: res.Label > 0,
			Pruned:    res.Pruned,
		})
	}
	// Descending score; ties broken by case numbers so equal-scored
	// matches come out in one deterministic order regardless of sort
	// internals or candidate enumeration order.
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score > matches[j].Score
		}
		if matches[i].CaseA != matches[j].CaseA {
			return matches[i].CaseA < matches[j].CaseA
		}
		return matches[i].CaseB < matches[j].CaseB
	})
	return matches, nil
}

// candidates dispatches to the configured candidate-generation strategy.
func (d *Detector) candidates(existing, total int) ([]pairdist.IDPair, error) {
	strategy := d.opts.Candidates
	if strategy == CandidateBruteForce && d.opts.CandidateBlocking {
		strategy = CandidateBlock
	}
	switch strategy {
	case CandidateBlock:
		return d.blockedCandidates(existing, total), nil
	case CandidatePrefixIndex:
		return d.prefixCandidates(existing, total)
	case CandidateBruteForce:
		var ids []pairdist.IDPair
		for b := existing; b < total; b++ {
			for a := 0; a < b; a++ {
				ids = append(ids, pairdist.IDPair{A: a, B: b})
			}
		}
		return ids, nil
	default:
		return nil, fmt.Errorf("adrdedup: unknown candidate strategy %d", strategy)
	}
}

// prefixCandidates generates Eq. 3's pairs through the prefix-filtered
// inverted index (internal/candgen): exactly the pairs whose signature sets
// reach CandidateTheta, restricted to those touching the new batch.
//
// The index persists across calls. The first Detect freezes the token order
// over the whole database, batch included, and a later one re-freezes when
// the database has doubled since; every other Detect ranks and appends only
// its batch under the frozen order, so its cost follows the batch, not the
// database. AddKnownReports never builds the index, which keeps bootstrap
// free of candidate work.
func (d *Detector) prefixCandidates(existing, total int) ([]pairdist.IDPair, error) {
	theta := d.opts.CandidateTheta
	if theta == 0 {
		theta = DefaultCandidateTheta
	}
	sigs, err := candgen.Signatures(d.feats[len(d.sigs):total])
	if err != nil {
		return nil, fmt.Errorf("adrdedup: building candidate signatures: %w", err)
	}
	d.sigs = append(d.sigs, sigs...)
	if d.prefix == nil || total >= 2*d.prefix.Frozen() {
		ix, err := candgen.Build(d.ctx, d.sigs, theta, d.classifierPartitions())
		if err != nil {
			return nil, fmt.Errorf("adrdedup: building prefix index: %w", err)
		}
		d.prefix = ix
	} else if err := d.prefix.Append(d.sigs[d.prefix.Len():]); err != nil {
		return nil, fmt.Errorf("adrdedup: extending prefix index: %w", err)
	}
	pairs, _, err := d.prefix.Probe(d.ctx, existing, d.classifierPartitions())
	if err != nil {
		return nil, fmt.Errorf("adrdedup: generating prefix-index candidates: %w", err)
	}
	return pairs, nil
}

// truncatePrefixIndex rolls the candidate signatures and prefix index back
// to feats[:n] after a failed Detect. An index frozen over the failed batch
// cannot be taken apart and is dropped; the next Detect builds a fresh one.
func (d *Detector) truncatePrefixIndex(n int) {
	if len(d.sigs) > n {
		d.sigs = d.sigs[:n]
	}
	switch {
	case d.prefix == nil:
	case d.prefix.Frozen() > n:
		d.prefix = nil
	default:
		d.prefix.Truncate(n)
	}
}

// blockADRKind tags ADR-vocabulary token IDs apart from drug tokens in the
// high bits of the term-index key, so the two interner namespaces never
// collide in one map.
const blockADRKind = uint64(1) << 32

// extendTermIndex appends the terms of feats[termIndexed:total] to the
// incremental blocking index. Posting lists stay sorted ascending because
// reports are indexed in arrival order.
func (d *Detector) extendTermIndex(total int) {
	if d.termIndex == nil {
		d.termIndex = make(map[uint64][]int32)
	}
	for i := d.termIndexed; i < total; i++ {
		for _, t := range d.feats[i].DrugIDs {
			d.termIndex[uint64(t)] = append(d.termIndex[uint64(t)], int32(i))
		}
		for _, t := range d.feats[i].ADRIDs {
			d.termIndex[blockADRKind|uint64(t)] = append(d.termIndex[blockADRKind|uint64(t)], int32(i))
		}
	}
	d.termIndexed = total
}

// truncateTermIndex rolls the blocking index back so it covers only
// feats[:n], undoing extendTermIndex for a batch whose Detect failed.
// Posting lists are ascending, so rollback pops entries >= n off each tail.
func (d *Detector) truncateTermIndex(n int) {
	if d.termIndexed <= n {
		return
	}
	for k, list := range d.termIndex {
		i := len(list)
		for i > 0 && int(list[i-1]) >= n {
			i--
		}
		switch {
		case i == 0:
			delete(d.termIndex, k)
		case i < len(list):
			d.termIndex[k] = list[:i]
		}
	}
	d.termIndexed = n
}

// blockedCandidates generates the Eq. 3 candidate set under blocking: a new
// report is paired only with earlier reports that share a drug or reaction
// term. The inverted index is keyed by interned token IDs (drug and ADR
// vocabularies tagged apart in the high bits), so building it does no
// string hashing or key concatenation, and it persists across Detect calls:
// each batch only appends its own postings, which is what keeps per-arrival
// cost flat when the detector runs behind a long-lived ingest service
// (internal/serve).
func (d *Detector) blockedCandidates(existing, total int) []pairdist.IDPair {
	d.extendTermIndex(total)
	seen := make(map[[2]int]bool)
	var ids []pairdist.IDPair
	for b := existing; b < total; b++ {
		consider := func(terms []uint32, kind uint64) {
			for _, t := range terms {
				for _, a := range d.termIndex[kind|uint64(t)] {
					if int(a) >= b {
						// Postings ascend; the rest are b or newer.
						break
					}
					k := [2]int{int(a), b}
					if seen[k] {
						continue
					}
					seen[k] = true
					ids = append(ids, pairdist.IDPair{A: int(a), B: b})
				}
			}
		}
		consider(d.feats[b].DrugIDs, 0)
		consider(d.feats[b].ADRIDs, blockADRKind)
	}
	return ids
}

// Duplicates filters matches to the positive decisions.
func Duplicates(matches []Match) []Match {
	out := make([]Match, 0, len(matches))
	for _, m := range matches {
		if m.Duplicate {
			out = append(out, m)
		}
	}
	return out
}
