package main

import (
	"encoding/json"
	"fmt"

	"adrdedup"
	"adrdedup/internal/adr"
	"adrdedup/internal/candgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
	"adrdedup/internal/intern"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/rdd"
	"adrdedup/internal/serve"
)

// replayer re-runs a workload's inputs through the layers' public
// functions in the order Detector.Detect calls them, on an engine of its
// own configured like the detector's, and times each call in a span. Its
// matches must equal the detector's: that is the traced run's gate.
type replayer struct {
	opts  adrdedup.Options
	ctx   *rdd.Context
	db    *adr.Database
	it    *intern.Interner
	feats []pairdist.Features
	clf   *core.Classifier
	tr    *tracer

	extracted int
	cand      candgen.Stats
	vectors   int
	classify  core.Stats
}

func newReplayer(opts adrdedup.Options, tr *tracer) *replayer {
	return &replayer{
		opts: opts,
		ctx:  rdd.NewContext(cluster.New(opts.Cluster)),
		db:   adr.NewDatabase(),
		it:   intern.New(),
		tr:   tr,
	}
}

func (r *replayer) close() { r.ctx.Cluster().Close() }

// partitions is the detector's classifier and extraction parallelism.
func (r *replayer) partitions() int {
	if r.opts.Classifier.C > 0 {
		return r.opts.Classifier.C
	}
	return r.ctx.DefaultParallelism()
}

// setup replays AddKnownReports and TrainFromIDPairs as request 0.
func (r *replayer) setup(in seedInputs) error {
	root := r.tr.begin("setup", -1, 0)
	defer r.tr.end(root)
	if err := r.tr.timed("adr.add", root, 0, func() error { return r.db.Add(in.reports...) }); err != nil {
		return err
	}
	if err := r.extend(root, 0); err != nil {
		return err
	}
	var recs []pairdist.PairRecord
	err := r.tr.timed("pairdist.vectorize", root, 0, func() (err error) {
		recs, err = pairdist.ComputeVectors(r.ctx, r.feats, in.train, r.partitions())
		return err
	})
	if err != nil {
		return err
	}
	r.vectors += len(recs)
	training := make([]core.TrainingPair, len(recs))
	for i, rec := range recs {
		training[i] = core.TrainingPair{Vec: rec.Vec, Label: rec.Label}
	}
	return r.tr.timed("core.train", root, 0, func() (err error) {
		r.clf, err = core.Train(r.ctx, training, r.opts.Classifier)
		return err
	})
}

// extend featurizes the reports not yet extracted: one database copy and
// one extraction, as the detector does.
func (r *replayer) extend(parent, req int) error {
	var all []adr.Report
	r.tr.timed("adr.reports_copy", parent, req, func() error { all = r.db.Reports(); return nil })
	fresh := all[len(r.feats):]
	return r.tr.timed("pairdist.extract", parent, req, func() error {
		feats, err := pairdist.ExtractAllWith(r.ctx, r.it, fresh, r.partitions())
		r.feats = append(r.feats, feats...)
		r.extracted += len(fresh)
		return err
	})
}

// request replays one ingest request: decode the body as the handler
// does, detect, and encode the response.
func (r *replayer) request(req int, body []byte, single bool, maxBatch int) ([]adrdedup.Match, error) {
	root := r.tr.begin("request", -1, req)
	defer r.tr.end(root)
	var batch []adr.Report
	err := r.tr.timed("serve.decode", root, req, func() error {
		if !single {
			var err error
			batch, err = serve.DecodeBatch(body, maxBatch)
			return err
		}
		rep, err := serve.DecodeReport(body)
		batch = []adr.Report{rep}
		return err
	})
	if err != nil {
		return nil, err
	}
	det := r.tr.begin("detect", root, req)
	matches, err := r.detect(batch, det, req)
	r.tr.end(det)
	if err != nil {
		return nil, err
	}
	err = r.tr.timed("serve.encode", root, req, func() error {
		resp := wireResponse{Ingested: len(batch), Scored: len(matches), Matches: []wireMatch{}}
		for _, m := range adrdedup.Duplicates(matches) {
			resp.Matches = append(resp.Matches, wireMatch{CaseA: m.CaseA, CaseB: m.CaseB, Score: m.Score, Duplicate: true})
		}
		resp.Duplicates = len(resp.Matches)
		_, err := json.Marshal(resp)
		return err
	})
	return matches, err
}

// detect is Detector.Detect through the layers' own entry points.
func (r *replayer) detect(batch []adr.Report, parent, req int) ([]adrdedup.Match, error) {
	shuffles := r.ctx.Cluster().Shuffles()
	defer shuffles.ReleaseSince(shuffles.Mark())
	ids, err := r.candidates(batch, parent, req)
	if err != nil || len(ids) == 0 {
		return nil, err
	}
	return r.score(ids, parent, req)
}

// candidates absorbs batch and generates its Eq. 3 candidate pairs.
func (r *replayer) candidates(batch []adr.Report, parent, req int) ([]pairdist.IDPair, error) {
	existing := r.db.Len()
	if err := r.tr.timed("adr.add", parent, req, func() error { return r.db.Add(batch...) }); err != nil {
		return nil, err
	}
	if err := r.extend(parent, req); err != nil {
		return nil, err
	}
	var sigs [][]uint32
	err := r.tr.timed("candgen.signatures", parent, req, func() (err error) {
		sigs, err = candgen.Signatures(r.feats[:r.db.Len()])
		return err
	})
	if err != nil {
		return nil, err
	}
	theta := r.opts.CandidateTheta
	if theta == 0 {
		theta = adrdedup.DefaultCandidateTheta
	}
	var ids []pairdist.IDPair
	var st candgen.Stats
	err = r.tr.timed("candgen.pairs", parent, req, func() (err error) {
		ids, st, err = candgen.Pairs(r.ctx, sigs, candgen.Params{Theta: theta, Partitions: r.partitions(), MinArrival: existing})
		return err
	})
	r.cand.Records += st.Records
	r.cand.IndexEntries += st.IndexEntries
	r.cand.Scanned += st.Scanned
	r.cand.Verified += st.Verified
	r.cand.Emitted += st.Emitted
	return ids, err
}

// score vectorizes and classifies ids and builds their matches in
// Detect's order.
func (r *replayer) score(ids []pairdist.IDPair, parent, req int) ([]adrdedup.Match, error) {
	var recs []pairdist.PairRecord
	err := r.tr.timed("pairdist.vectorize", parent, req, func() (err error) {
		recs, err = pairdist.ComputeVectors(r.ctx, r.feats, ids, r.partitions())
		return err
	})
	if err != nil {
		return nil, err
	}
	r.vectors += len(recs)
	vecs := make([][]float64, len(recs))
	for i, rec := range recs {
		vecs[i] = rec.Vec
	}
	var results []core.Result
	var st core.Stats
	err = r.tr.timed("core.classify", parent, req, func() (err error) {
		results, st, err = r.clf.Classify(vecs)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("classifying: %w", err)
	}
	r.classify.TestPairs += st.TestPairs
	r.classify.PrunedPairs += st.PrunedPairs
	r.classify.IntraClusterComparisons += st.IntraClusterComparisons
	r.classify.CrossClusterComparisons += st.CrossClusterComparisons
	r.classify.PositiveScanComparisons += st.PositiveScanComparisons

	var reports []adr.Report
	r.tr.timed("adr.reports_copy", parent, req, func() error { reports = r.db.Reports(); return nil })
	var matches []adrdedup.Match
	r.tr.timed("detect.matches", parent, req, func() error {
		matches = make([]adrdedup.Match, 0, len(results))
		for _, res := range results {
			if res.Pruned {
				continue
			}
			p := ids[res.ID]
			matches = append(matches, adrdedup.Match{
				CaseA:     reports[p.A].CaseNumber,
				CaseB:     reports[p.B].CaseNumber,
				Score:     res.Score,
				Duplicate: res.Label > 0,
			})
		}
		serve.SortMatches(matches)
		return nil
	})
	return matches, nil
}

// layerMetrics fills the replay's per-layer times and counts.
func (r *replayer) layerMetrics(m metricSet) {
	total, _ := r.tr.totals()
	for _, name := range []string{"candgen.signatures", "candgen.pairs", "adr.add", "adr.reports_copy",
		"pairdist.extract", "pairdist.vectorize", "core.classify", "core.train", "serve.decode"} {
		m.set(perLayer, name+"_ms", ms(total[name]))
	}
	m.set(perLayer, "candgen.records", float64(r.cand.Records))
	m.set(perLayer, "candgen.index_entries", float64(r.cand.IndexEntries))
	m.set(perLayer, "candgen.scanned", float64(r.cand.Scanned))
	m.set(perLayer, "candgen.verified", float64(r.cand.Verified))
	m.set(perLayer, "candgen.emitted", float64(r.cand.Emitted))
	ratio := 0.0
	if r.cand.Verified > 0 {
		ratio = float64(r.cand.Emitted) / float64(r.cand.Verified)
	}
	m.set(perLayer, "candgen.emitted_per_verified", ratio)
	m.set(perLayer, "pairdist.extract_reports", float64(r.extracted))
	m.set(perLayer, "pairdist.vectorize_pairs", float64(r.vectors))
	m.set(perLayer, "core.test_pairs", float64(r.classify.TestPairs))
	m.set(perLayer, "core.pruned_pairs", float64(r.classify.PrunedPairs))
	m.set(perLayer, "core.intra_comparisons", float64(r.classify.IntraClusterComparisons))
	m.set(perLayer, "core.cross_comparisons", float64(r.classify.CrossClusterComparisons))
	m.set(perLayer, "core.positive_scan_comparisons", float64(r.classify.PositiveScanComparisons))
}
