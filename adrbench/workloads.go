package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"adrdedup"
	"adrdedup/internal/adr"
	"adrdedup/internal/candgen"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/serve"
	"adrdedup/internal/strsim"
)

// sizes fixes how much work a workload does. The benchmark runs fullSizes;
// its own tests run a smoke size of the same code.
type sizes struct {
	// A run times at least setups bootstraps for setup_s, and more, up to
	// four times as many, until setupTime has been spent.
	setups    int
	setupTime time.Duration
	// seedDups and trainPairs are a bootstrap's injected duplicate pairs
	// and labelled training pairs (serve.NewBootstrap's defaults).
	seedDups, trainPairs int
	// bulkSeed, bulkReports and bulkDups are the bulk-tga bootstrap,
	// corpus and injected duplicate pairs. An untraced bulk-tga run checks
	// the candidate pairs of bulkProbe batch reports by brute force and
	// re-scores bulkSample scored pairs.
	bulkSeed, bulkReports, bulkDups, bulkProbe, bulkSample int
	// onlineSeed is the ingest workloads' bootstrap; batchSize the reports
	// per ingest-stream request, sent at streamRate requests per second.
	onlineSeed, batchSize int
	streamRate            float64
}

var fullSizes = sizes{
	setups:      5,
	setupTime:   2 * time.Second,
	seedDups:    80,
	trainPairs:  1200,
	bulkSeed:    2000,
	bulkReports: 10382,
	bulkDups:    286,
	bulkProbe:   200,
	bulkSample:  2000,
	onlineSeed:  10000,
	batchSize:   100,
	// About half of what the service absorbs at the end of the run, when
	// the database has doubled to 20,000 reports (2-core host).
	streamRate: 4,
}

const (
	// bootstrapSeed is adrdedupd's default -seed. The bootstrap corpus and
	// the trained model are the deployed service's, the same on every run;
	// --seed varies the traffic.
	bootstrapSeed = 1
	// dupFraction is the share of ingest stream reports in injected
	// duplicate pairs, as in serve.GenerateTraffic.
	dupFraction = 0.02
	// sloLatency is the p90 a ladder rung must hold.
	sloLatency = 250 * time.Millisecond
	// ladderStart is the first rung of ingest-singles; rungs double.
	ladderStart = 5.0
	ladderRungs = 9
	// maxLate is how far behind schedule the generator may run (p90)
	// before a run is invalid: beyond it the figures describe the
	// generator, not the service.
	maxLate = 50 * time.Millisecond
)

// streamSeed derives a workload's traffic seed from --seed, far from
// bootstrapSeed so the traffic never replays the bootstrap corpus.
func streamSeed(seed int64) int64 { return seed + 1_000_000 }

// params is one invocation.
type params struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sizes    sizes
	spanDir  string
	log      io.Writer
}

// lap logs how long the phase that just ended took and starts the next.
func (p params) lap(start *time.Time, phase string) {
	fmt.Fprintf(p.log, "adrbench: %s: %s %.2fs\n", p.workload, phase, time.Since(*start).Seconds())
	*start = time.Now()
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	run  func(params) (*report, error)
}

var workloads = []workload{
	{name: "bulk-tga", run: runBulk,
		why: "single Detect of the paper's 10,382-report TGA corpus at candidate theta 0.5: vectorize, classify and engine shuffles do the work, serve none"},
	{name: "ingest-stream", run: runStream,
		why: "open loop, 4 req/s of 100-report batches over 2 connections while a 10,000-report database doubles: per-batch costs that scale with the database show"},
	{name: "ingest-singles", run: runSingles,
		why: "open-loop ladder of single-report requests from 5 req/s, doubling, 2 connections: HTTP decode, queueing and one full Detect per report dominate"},
}

// report is one run's record: the ledger line printed before the result.
type report struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       bool               `json:"trace"`
	Host        host               `json:"host"`
	Loop        string             `json:"loop"`
	Rate        string             `json:"rate"`
	Connections int                `json:"connections"`
	Why         string             `json:"why"`
	Samples     int                `json:"latency_samples"`
	Setups      int                `json:"setup_samples"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Correct     bool               `json:"correct"`
	Gate        string             `json:"gate,omitempty"`
	Valid       bool               `json:"valid"`
	Invalid     string             `json:"invalid,omitempty"`
	Extra       map[string]float64 `json:"extra"`
	Metrics     metricSet          `json:"metrics"`
	ExactCounts []string           `json:"exact_counts,omitempty"`
	SpansFile   string             `json:"spans_file,omitempty"`
}

func newReport(p params) *report {
	return &report{Seed: p.seed, Seconds: p.seconds, Trace: p.trace, Correct: true, Valid: true,
		Extra: map[string]float64{}, Metrics: metricSet{}}
}

// fail records a failed correctness gate; the first failure is kept.
func (r *report) fail(err error) {
	if r.Correct {
		r.Correct = false
		r.Gate = err.Error()
	}
}

// measured records what every workload's set-up and measured phase yield.
func (r *report) measured(setups int, ph phase, setupS float64) {
	r.Extra["host_steal_share"] = ph.steal
	if !r.Trace {
		r.Setups = setups
		r.Metrics.set(endToEnd, "peak_rss_mb", float64(ph.peakRSS)/(1<<20))
		r.Metrics.set(endToEnd, "setup_s", setupS)
	}
}

func runBulk(p params) (*report, error) {
	z := p.sizes
	rep := newReport(p)
	rep.Loop, rep.Rate = "single call", "one in-process Server.Submit"
	clock := time.Now()

	// The corpus is one fixed database, as the paper's TGA extract is: its
	// content is the same on every run and --seed draws its arrival order.
	// Generated per seed, the content alone spread the one Detect's time
	// from 25 to 32 s over ten seeds (15% between quartiles), too much to
	// gate on.
	seedIn, stream, err := generate(z, z.bulkSeed, bootstrapSeed, func() streamInputs {
		return makeStream(z.bulkReports, z.bulkDups, true, "BULK", streamSeed(0))
	})
	if err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(p.seed)).Shuffle(len(stream.reports), func(i, j int) {
		stream.reports[i], stream.reports[j] = stream.reports[j], stream.reports[i]
	})
	body, err := batchBody(stream.reports)
	if err != nil {
		return nil, err
	}
	batch, err := serve.DecodeBatch(body, len(stream.reports))
	if err != nil {
		return nil, err
	}
	opts := detectorOptions(adrdedup.DefaultCandidateTheta, bootstrapSeed)
	p.lap(&clock, "inputs")
	svc, setupS, setups, err := bootstrapMedian(seedIn, opts, serve.Config{MaxBatch: len(batch)}, false, z)
	if err != nil {
		return nil, err
	}
	p.lap(&clock, "set-up")

	quiesce()
	pr := startProbe(svc.det)
	due := time.Now()
	late := time.Since(due)
	matches, err := svc.srv.Submit(context.Background(), batch)
	wall := time.Since(due)
	ph := pr.finish()
	stats := svc.srv.Stats()
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("bulk detect: %w", err)
	}
	p.lap(&clock, "measured")
	rep.Attempted = 1
	rep.measured(setups, ph, setupS)
	rep.Extra["recall"], rep.Extra["precision"] = quality(adrdedup.Duplicates(matches), stream.truth)
	rep.Extra["scored_pairs"] = float64(len(matches))

	if !p.trace {
		rep.Samples = 1
		rep.Metrics.set(endToEnd, "latency_p50_ms", ms(wall))
		rep.Metrics.set(endToEnd, "latency_p90_ms", ms(wall))
		rep.Metrics.set(endToEnd, "reports_per_s", float64(len(batch))/wall.Seconds())
		if err := checkBulk(seedIn, opts, batch, matches, z, p.seed); err != nil {
			rep.fail(err)
		}
		p.lap(&clock, "gate")
		return rep, nil
	}

	tr := newTracer()
	rp := newReplayer(opts, tr)
	defer rp.close()
	if err := rp.setup(seedIn); err != nil {
		return nil, fmt.Errorf("replaying set-up: %w", err)
	}
	replayed, err := rp.request(1, body, false, len(batch))
	if err != nil {
		return nil, fmt.Errorf("replaying bulk detect: %w", err)
	}
	if err := sameMatches("traced replay vs Detect", matches, replayed); err != nil {
		rep.fail(err)
	}
	p.lap(&clock, "traced replay")
	detect := tr.sum("detect", func(req int) bool { return req > 0 })
	return rep, layerTail(rep, p, tr, rp, ph, stats, []time.Duration{late}, detect, wall, 1)
}

// checkBulk is the untraced bulk-tga gate, on a fresh replay of the same
// bootstrap. For z.bulkProbe batch reports drawn with the seed it finds
// every partner whose signature similarity reaches the candidate
// threshold by brute force, with the predicate candgen's own recall oracle
// uses, and requires Detect to have scored exactly those pairs. Then it
// re-scores z.bulkSample scored pairs through pairdist and core and
// requires the same scores and decisions.
func checkBulk(seedIn seedInputs, opts adrdedup.Options, batch []adr.Report, matches []adrdedup.Match, z sizes, seed int64) error {
	rp := newReplayer(opts, newTracer())
	defer rp.close()
	if err := rp.setup(seedIn); err != nil {
		return fmt.Errorf("bulk gate set-up: %w", err)
	}
	existing := rp.db.Len()
	if err := rp.db.Add(batch...); err != nil {
		return err
	}
	if err := rp.extend(-1, 1); err != nil {
		return err
	}
	sigs, err := candgen.Signatures(rp.feats)
	if err != nil {
		return err
	}
	arrival := make(map[string]int, len(sigs))
	for i, r := range rp.db.Reports() {
		arrival[r.CaseNumber] = i
	}
	scored := make(map[[2]int]adrdedup.Match, len(matches))
	partners := make(map[int]int)
	for _, m := range matches {
		a, b := arrival[m.CaseA], arrival[m.CaseB]
		scored[[2]int{a, b}] = m
		partners[a]++
		partners[b]++
	}
	if len(scored) != len(matches) {
		return fmt.Errorf("bulk gate: Detect scored %d pairs, %d distinct", len(matches), len(scored))
	}

	rng := rand.New(rand.NewSource(seed))
	for _, k := range rng.Perm(len(batch))[:min(z.bulkProbe, len(batch))] {
		r := existing + k
		want := 0
		for x := range sigs {
			if x == r || !strsim.JaccardSimAtLeast(sigs[r], sigs[x], opts.CandidateTheta) {
				continue
			}
			want++
			if _, ok := scored[[2]int{min(r, x), max(r, x)}]; !ok {
				return fmt.Errorf("bulk gate: candidate pair %s/%s was not scored", batch[k].CaseNumber, rp.db.Reports()[x].CaseNumber)
			}
		}
		if partners[r] != want {
			return fmt.Errorf("bulk gate: %s has %d scored partners, %d candidates", batch[k].CaseNumber, partners[r], want)
		}
	}

	picked := make([]pairdist.IDPair, 0, z.bulkSample)
	for _, i := range rng.Perm(len(matches))[:min(z.bulkSample, len(matches))] {
		picked = append(picked, pairdist.IDPair{A: arrival[matches[i].CaseA], B: arrival[matches[i].CaseB]})
	}
	rescored, err := rp.score(picked, -1, 1)
	if err != nil {
		return fmt.Errorf("bulk gate re-scoring: %w", err)
	}
	for _, m := range rescored {
		if want := scored[[2]int{arrival[m.CaseA], arrival[m.CaseB]}]; want != m {
			return fmt.Errorf("bulk gate: re-scored %+v, Detect returned %+v", m, want)
		}
	}
	return nil
}

// connections is the open loops' connection count: at most two, and at
// most one per CPU.
func connections() int { return min(2, runtime.NumCPU()) }

// layerTail fills the per-layer metrics of a traced run: the replay's
// layers, the untraced phase's engine, runtime and process deltas, the
// service's own counters and the generator's health, and writes the spans.
// detect is the replay's summed Detect time over its n requests and
// untraced the same batches' untraced Detect time.
func layerTail(rep *report, p params, tr *tracer, rp *replayer, ph phase, stats serve.Stats,
	lates []time.Duration, detect, untraced time.Duration, n int) error {
	m := rep.Metrics
	rep.ExactCounts = exactCounts()
	rp.layerMetrics(m)
	m.set(perLayer, "cluster.stages", float64(ph.cluster.StagesRun))
	m.set(perLayer, "cluster.tasks", float64(ph.cluster.TasksLaunched))
	m.set(perLayer, "cluster.task_failures", float64(ph.cluster.TaskFailures))
	m.set(perLayer, "cluster.shuffle_bytes_written", float64(ph.cluster.ShuffleBytesWritten))
	m.set(perLayer, "cluster.records_processed", float64(ph.cluster.RecordsProcessed))
	m.set(perLayer, "cluster.spilled_bytes", float64(ph.cluster.SpilledBytes))
	m.set(perLayer, "serve.server_latency_ms", stats.Latency.MeanMS)
	m.set(perLayer, "serve.queue_wait_ms", stats.Latency.MeanMS-ms(detect)/float64(max(n, 1)))
	m.set(perLayer, "serve.rejected", float64(stats.QueueFullRejects+stats.DrainRefusals))
	m.set(perLayer, "serve.failed_batches", float64(stats.FailedBatches))
	m.set(perLayer, "runtime.alloc_bytes", float64(ph.allocBytes))
	m.set(perLayer, "runtime.gc_cycles", float64(ph.gcCycles))
	m.set(perLayer, "runtime.gc_pause_ms", ms(ph.gcPause))
	m.set(perLayer, "runtime.heap_peak_mb", float64(ph.peakHeap)/(1<<20))
	m.set(perLayer, "process.cpu_s", ph.cpu.Seconds())
	m.set(perLayer, "process.cpu_util", ph.cpu.Seconds()/(ph.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	m.set(perLayer, "loadgen.late_p90_ms", ms(percentile(lates, 0.9)))
	m.set(perLayer, "loadgen.requests", float64(len(lates)))
	m.set(perLayer, "trace.overhead_ms", ms(detect-untraced))
	rep.Extra["trace_overhead_share"] = (detect - untraced).Seconds() / untraced.Seconds()

	tr.printSelf(p.log)
	path, err := tr.write(p.spanDir, p.workload, p.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.SpansFile = path
	return nil
}
