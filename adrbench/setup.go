package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"adrdedup"
	"adrdedup/internal/adr"
	"adrdedup/internal/adrgen"
	"adrdedup/internal/cluster"
	"adrdedup/internal/core"
	"adrdedup/internal/pairdist"
	"adrdedup/internal/serve"
)

// seedInputs is everything a bootstrap consumes: the seed database and the
// labelled training pairs sampled from its ground truth. Generating them is
// input generation, so it is never part of the timed set-up.
type seedInputs struct {
	reports []adr.Report
	train   []pairdist.IDPair
}

// makeSeed generates a bootstrap the way serve.NewBootstrap does: n
// reports with dups injected duplicate pairs, and train labelled pairs
// sampled from them, half of the negatives confusable.
func makeSeed(z sizes, n int, seed int64) (seedInputs, error) {
	corpus := adrgen.Generate(adrgen.Config{NumReports: n, DuplicatePairs: z.seedDups, Seed: seed})
	labelled, err := corpus.SamplePairs(adrgen.PairSampleOptions{Total: z.trainPairs, HardFraction: 0.5, Seed: seed + 1})
	if err != nil {
		return seedInputs{}, fmt.Errorf("sampling training pairs: %w", err)
	}
	ids := make([]pairdist.IDPair, len(labelled))
	for i, p := range labelled {
		ids[i] = pairdist.IDPair{A: p.A, B: p.B, Label: p.Label}
	}
	return seedInputs{reports: corpus.Reports, train: ids}, nil
}

// generate makes a workload's bootstrap inputs and its stream at the same
// time, one per core; each is a pure function of its seed.
func generate(z sizes, seedReports int, seed int64, stream func() streamInputs) (seedInputs, streamInputs, error) {
	var st streamInputs
	done := make(chan struct{})
	go func() {
		defer close(done)
		st = stream()
	}()
	in, err := makeSeed(z, seedReports, seed)
	<-done
	return in, st, err
}

// streamInputs is a report stream with its ground truth kept: the injected
// duplicate pairs, as unordered case-number pairs.
type streamInputs struct {
	reports []adr.Report
	truth   map[[2]string]bool
}

// makeStream generates n reports with the adrgen TGA profile, re-prefixing
// case numbers so they never collide with a seed database. With campaigns
// off and dupFraction of the reports in injected pairs, it is the stream
// serve.GenerateTraffic makes, minus the step that drops the ground truth.
func makeStream(n int, dupPairs int, campaigns bool, prefix string, seed int64) streamInputs {
	cfg := adrgen.Config{NumReports: n, DuplicatePairs: dupPairs, Seed: seed}
	if !campaigns {
		cfg.CampaignFraction = -1
	}
	corpus := adrgen.Generate(cfg)
	out := make([]adr.Report, len(corpus.Reports))
	for i, r := range corpus.Reports {
		r.CaseNumber = prefix + "-" + r.CaseNumber
		r.ArrivalSeq = 0
		out[i] = r
	}
	truth := make(map[[2]string]bool, len(corpus.Duplicates))
	for _, d := range corpus.Duplicates {
		truth[pairKey(prefix+"-"+d.CaseA, prefix+"-"+d.CaseB)] = true
	}
	return streamInputs{reports: out, truth: truth}
}

// pairKey is an unordered case-number pair.
func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// detectorOptions mirrors adrdedupd's defaults: eight executors on the
// work-stealing pool and prefix-index candidates at candTheta.
func detectorOptions(candTheta float64, seed int64) adrdedup.Options {
	return adrdedup.Options{
		Cluster:        cluster.Config{Executors: 8, RealParallel: true},
		Classifier:     core.Config{Seed: seed},
		Candidates:     adrdedup.CandidatePrefixIndex,
		CandidateTheta: candTheta,
	}
}

// service is one bootstrapped, started pipeline; url is empty when it
// serves in-process only.
type service struct {
	det  *adrdedup.Detector
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error
}

// bootstrap builds a ready-to-serve pipeline from in: seed extraction,
// training, Server.Start and, when listen is set, an HTTP listener on a
// loopback port. This is the work setup_s times.
func bootstrap(in seedInputs, opts adrdedup.Options, cfg serve.Config, listen bool) (*service, error) {
	det, err := adrdedup.New(opts)
	if err != nil {
		return nil, err
	}
	if err := det.AddKnownReports(in.reports); err != nil {
		det.Engine().Cluster().Close()
		return nil, fmt.Errorf("seeding database: %w", err)
	}
	if err := det.TrainFromIDPairs(in.train); err != nil {
		det.Engine().Cluster().Close()
		return nil, fmt.Errorf("training classifier: %w", err)
	}
	s := &service{det: det, srv: serve.New(det, cfg)}
	if err := s.srv.Start(); err != nil {
		det.Engine().Cluster().Close()
		return nil, err
	}
	if listen {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = s.close()
			return nil, err
		}
		s.http = &http.Server{Handler: s.srv.Handler()}
		s.url = "http://" + ln.Addr().String()
		s.done = make(chan error, 1)
		go func() { s.done <- s.http.Serve(ln) }()
	}
	return s, nil
}

// close stops the listener, drains the server and closes the engine, and
// returns once the HTTP serve goroutine has exited.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var errs []error
	if s.http != nil {
		errs = append(errs, s.http.Shutdown(ctx))
		if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, s.srv.Close(ctx))
	return errors.Join(errs...)
}

// bootstrapMedian bootstraps at least z.setups times and until
// z.setupTime has been spent, at most 4×z.setups times, keeps the last
// service and closes the others, and returns the median bootstrap time
// and the count. Repeating it is what makes setup_s steady enough to gate
// on: a 2,000-report bootstrap takes about 70 ms, and five of those vary
// by 15% from run to run.
func bootstrapMedian(in seedInputs, opts adrdedup.Options, cfg serve.Config, listen bool, z sizes) (*service, float64, int, error) {
	var times []float64
	var spent time.Duration
	var kept *service
	for len(times) < z.setups || (spent < z.setupTime && len(times) < 4*z.setups) {
		runtime.GC()
		start := time.Now()
		s, err := bootstrap(in, opts, cfg, listen)
		if err != nil {
			if kept != nil {
				_ = kept.close()
			}
			return nil, 0, 0, err
		}
		took := time.Since(start)
		spent += took
		times = append(times, took.Seconds())
		if kept != nil {
			if err := kept.close(); err != nil {
				_ = s.close()
				return nil, 0, 0, err
			}
		}
		kept = s
	}
	sort.Float64s(times)
	return kept, times[len(times)/2], len(times), nil
}

// quiesce collects garbage and returns freed memory to the OS, so one
// phase's leftovers neither inflate the next phase's resident set nor
// trigger collections inside it.
func quiesce() { debug.FreeOSMemory() }

// batchBody encodes reports as a batch ingest body.
func batchBody(reports []adr.Report) ([]byte, error) {
	return json.Marshal(struct {
		Reports []adr.Report `json:"reports"`
	}{reports})
}
