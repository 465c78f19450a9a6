package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"adrdedup"
	"adrdedup/internal/adr"
	"adrdedup/internal/serve"
)

// online is one ingest workload's run: its inputs, what the service did
// with them, and what the gate and the traced replay need.
type online struct {
	seedIn seedInputs
	opts   adrdedup.Options
	stream streamInputs
	single bool
	reqs   []request
	// first is the case number of each request's first report.
	first    []string
	outs     []outcome
	arrivals [][]string
	stats    serve.Stats
	phase    phase
}

// newOnline generates an ingest workload's inputs: the 10,000-report
// bootstrap and a campaign-free stream of n reports from the seed.
func newOnline(p params, n int, single bool) (*online, error) {
	seedIn, stream, err := generate(p.sizes, p.sizes.onlineSeed, bootstrapSeed, func() streamInputs {
		return makeStream(n, int(float64(n)*dupFraction/2), false, "LOAD", streamSeed(p.seed))
	})
	return &online{seedIn: seedIn, opts: detectorOptions(0.8, bootstrapSeed), stream: stream, single: single}, err
}

// measure bootstraps the service behind a loopback listener, timing
// setup_s, then runs drive against it while a probe measures, and keeps
// the service's counters and arrival log.
func (on *online) measure(p params, rep *report, clock *time.Time, drive func(*http.Client, string)) error {
	p.lap(clock, "inputs")
	cfg := serve.Config{Workers: 2, QueueDepth: 64, RecordArrivals: true}
	svc, setupS, setups, err := bootstrapMedian(on.seedIn, on.opts, cfg, true, p.sizes)
	if err != nil {
		return err
	}
	p.lap(clock, "set-up")

	quiesce()
	client := newClient(rep.Connections)
	pr := startProbe(svc.det)
	drive(client, svc.url)
	on.phase = pr.finish()
	client.CloseIdleConnections()
	on.stats = svc.srv.Stats()
	on.arrivals = svc.srv.ArrivalBatches()
	if err := svc.close(); err != nil {
		return err
	}
	p.lap(clock, "measured")
	rep.measured(setups, on.phase, setupS)
	return nil
}

func runStream(p params) (*report, error) {
	z := p.sizes
	rep := newReport(p)
	rep.Loop, rep.Connections = "open", connections()
	rep.Rate = fmt.Sprintf("%g requests/s of %d reports", z.streamRate, z.batchSize)
	clock := time.Now()

	requests := int(z.streamRate * float64(p.seconds))
	on, err := newOnline(p, requests*z.batchSize, false)
	if err != nil {
		return nil, err
	}
	for i := 0; i < requests; i++ {
		body, err := batchBody(on.stream.reports[i*z.batchSize : (i+1)*z.batchSize])
		if err != nil {
			return nil, err
		}
		due := time.Duration(float64(i) / z.streamRate * float64(time.Second))
		on.reqs = append(on.reqs, request{due: due, path: "/v1/reports:batch", body: body})
		on.first = append(on.first, on.stream.reports[i*z.batchSize].CaseNumber)
	}
	err = on.measure(p, rep, &clock, func(client *http.Client, url string) {
		on.outs = openLoop(client, url, on.reqs, rep.Connections)
	})
	if err != nil {
		return nil, err
	}
	if !p.trace {
		setLatency(rep, on.outs, lastDone(on.outs))
	}
	return rep, on.finish(rep, p, &clock)
}

func runSingles(p params) (*report, error) {
	rep := newReport(p)
	rep.Loop, rep.Connections = "open", connections()
	perRung := max(4, 2*p.seconds)
	rep.Rate = fmt.Sprintf("ladder from %g requests/s, doubling, %d requests a rung; latency from the first two rungs", ladderStart, perRung)
	clock := time.Now()

	on, err := newOnline(p, perRung*ladderRungs, true)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(on.stream.reports))
	for i, r := range on.stream.reports {
		if bodies[i], err = json.Marshal(r); err != nil {
			return nil, err
		}
	}
	var fixedRate []outcome
	var fixedWall time.Duration
	rep.Extra["slo_rate_per_s"] = 0
	err = on.measure(p, rep, &clock, func(client *http.Client, url string) {
		rate := ladderStart
		for rung := 0; rung < ladderRungs; rung++ {
			reqs := make([]request, perRung)
			for k := range reqs {
				reqs[k] = request{
					due:  time.Duration(float64(k) / rate * float64(time.Second)),
					path: "/v1/reports",
					body: bodies[rung*perRung+k],
				}
			}
			outs := openLoop(client, url, reqs, rep.Connections)
			on.reqs = append(on.reqs, reqs...)
			for _, r := range on.stream.reports[rung*perRung : (rung+1)*perRung] {
				on.first = append(on.first, r.CaseNumber)
			}
			on.outs = append(on.outs, outs...)
			if rung < 2 {
				fixedRate = append(fixedRate, outs...)
				fixedWall += lastDone(outs)
			}
			if !rungHolds(outs) {
				break
			}
			rep.Extra["slo_rate_per_s"] = rate
			rate *= 2
		}
	})
	if err != nil {
		return nil, err
	}
	if !p.trace {
		setLatency(rep, fixedRate, fixedWall)
	}
	return rep, on.finish(rep, p, &clock)
}

// rungHolds is the ladder's SLO rule: no request failed or was refused,
// p90 latency is within sloLatency, and so is the p90 of the rung's last
// quarter, so a backlog still growing at the end of the rung fails it.
func rungHolds(outs []outcome) bool {
	for _, o := range outs {
		if o.err != nil {
			return false
		}
	}
	tail := outs[len(outs)*3/4:]
	return percentile(latencies(outs), 0.9) <= sloLatency && percentile(latencies(tail), 0.9) <= sloLatency
}

// lastDone is how long a loop ran: until its last request completed.
func lastDone(outs []outcome) time.Duration {
	var d time.Duration
	for _, o := range outs {
		d = max(d, o.done)
	}
	return d
}

func latencies(outs []outcome) []time.Duration {
	ds := make([]time.Duration, len(outs))
	for i, o := range outs {
		ds[i] = o.latency()
	}
	return ds
}

// setLatency fills an ingest workload's latency and throughput over the
// timed requests, which took wall: reports_per_s counts the reports of the
// successful ones.
func setLatency(rep *report, timed []outcome, wall time.Duration) {
	absorbed := 0
	for _, o := range timed {
		if o.err == nil {
			absorbed += o.resp.Ingested
		}
	}
	lat := latencies(timed)
	rep.Metrics.set(endToEnd, "latency_p50_ms", ms(percentile(lat, 0.5)))
	rep.Metrics.set(endToEnd, "latency_p90_ms", ms(percentile(lat, 0.9)))
	rep.Metrics.set(endToEnd, "reports_per_s", float64(absorbed)/wall.Seconds())
	rep.Samples = len(lat)
}

// finish counts failures, checks the generator kept its schedule, scores
// the flagged duplicates against the ground truth, runs the gate and, in a
// traced run, the replay.
func (on *online) finish(rep *report, p params, clock *time.Time) error {
	rep.Attempted = len(on.outs)
	var returned []wireMatch
	lates := make([]time.Duration, len(on.outs))
	scored := 0
	for i, o := range on.outs {
		lates[i] = o.late()
		if o.err != nil {
			rep.Failed++
			continue
		}
		returned = append(returned, o.resp.Matches...)
		scored += o.resp.Scored
	}
	rep.Extra["failed_share"] = float64(rep.Failed) / float64(rep.Attempted)
	if late := percentile(lates, 0.9); late > maxLate {
		rep.Valid = false
		rep.Invalid = fmt.Sprintf("generator fell behind: late p90 %.1f ms > %v", ms(late), maxLate)
	}

	byCase := make(map[string]adr.Report, len(on.stream.reports))
	for _, r := range on.stream.reports {
		byCase[r.CaseNumber] = r
	}
	ingested := make(map[string]bool)
	var absorbed []adr.Report
	batches := make([][]adr.Report, len(on.arrivals))
	for i, cases := range on.arrivals {
		for _, c := range cases {
			batches[i] = append(batches[i], byCase[c])
			ingested[c] = true
		}
		absorbed = append(absorbed, batches[i]...)
	}
	truth := make(map[[2]string]bool)
	for k := range on.stream.truth {
		if ingested[k[0]] && ingested[k[1]] {
			truth[k] = true
		}
	}
	flagged := make([]adrdedup.Match, len(returned))
	for i, m := range returned {
		flagged[i] = adrdedup.Match{CaseA: m.CaseA, CaseB: m.CaseB, Score: m.Score, Duplicate: true}
	}
	rep.Extra["recall"], rep.Extra["precision"] = quality(flagged, truth)
	rep.Extra["true_pairs"] = float64(len(truth))

	// The gate: one untimed Detect of everything absorbed, in arrival
	// order, on a fresh identical bootstrap must flag exactly the
	// duplicates the service returned, and score as many pairs.
	oracle, err := bootstrap(on.seedIn, on.opts, serve.Config{}, false)
	if err != nil {
		return err
	}
	want, err := oracle.det.Detect(absorbed)
	if cerr := oracle.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("one-shot oracle: %w", err)
	}
	if err := sameDuplicates("online gate", want, returned); err != nil {
		rep.fail(err)
	} else if scored != len(want) {
		rep.fail(fmt.Errorf("online gate: service scored %d pairs, one-shot Detect %d", scored, len(want)))
	}
	p.lap(clock, "gate")
	if !p.trace {
		return nil
	}
	return on.replay(rep, p, clock, batches, lates)
}

// replay is the traced run of an ingest workload. Each absorbed batch is
// detected once more, untraced, on a fresh bootstrap, and once through the
// traced layer replay; the two must match each other and the service's
// response to the request that carried the batch.
func (on *online) replay(rep *report, p params, clock *time.Time, batches [][]adr.Report, lates []time.Duration) error {
	reqOf := make(map[string]int, len(on.first))
	for i, c := range on.first {
		reqOf[c] = i
	}

	loop, err := bootstrap(on.seedIn, on.opts, serve.Config{}, false)
	if err != nil {
		return err
	}
	untracedMatches := make([][]adrdedup.Match, len(batches))
	var untraced time.Duration
	for i, b := range batches {
		start := time.Now()
		untracedMatches[i], err = loop.det.Detect(b)
		untraced += time.Since(start)
		if err != nil {
			_ = loop.close()
			return fmt.Errorf("untraced detect loop: %w", err)
		}
	}
	if err := loop.close(); err != nil {
		return err
	}
	p.lap(clock, "untraced detect loop")

	tr := newTracer()
	rp := newReplayer(on.opts, tr)
	defer rp.close()
	if err := rp.setup(on.seedIn); err != nil {
		return fmt.Errorf("replaying set-up: %w", err)
	}
	for i, b := range batches {
		j := reqOf[b[0].CaseNumber]
		got, err := rp.request(i+1, on.reqs[j].body, on.single, len(b))
		if err != nil {
			return fmt.Errorf("replaying request %d: %w", j, err)
		}
		if err := sameMatches(fmt.Sprintf("batch %d: traced replay vs untraced Detect", i), untracedMatches[i], got); err != nil {
			rep.fail(err)
		}
		if err := sameDuplicates(fmt.Sprintf("batch %d: traced replay vs service", i), got, on.outs[j].resp.Matches); err != nil {
			rep.fail(err)
		}
	}
	p.lap(clock, "traced replay")
	detect := tr.sum("detect", func(req int) bool { return req > 0 })
	return layerTail(rep, p, tr, rp, on.phase, on.stats, lates, detect, untraced, len(batches))
}
