package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"adrdedup"
)

// smokeSizes runs every workload's full code path in seconds.
var smokeSizes = sizes{
	setups:      2,
	seedDups:    20,
	trainPairs:  200,
	bulkSeed:    300,
	bulkReports: 600,
	bulkDups:    30,
	bulkSample:  200,
	onlineSeed:  400,
	batchSize:   20,
	streamRate:  8,
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the workloads and metric
// definitions the program prints.
func TestBenchmarkFileMatches(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v in BENCHMARK.json, %q (%s) here", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit {
			t.Errorf("end-to-end metric %d is %s/%s in BENCHMARK.json, %s/%s here", i, e.Name, e.Unit, d.Name, d.Unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if l := b.PerLayer[i]; l.Name != d.Name || l.Unit != d.Unit {
			t.Errorf("per-layer metric %d is %s/%s in BENCHMARK.json, %s/%s here", i, l.Name, l.Unit, d.Name, d.Unit)
		}
	}
}

// TestWorkloadsSmoke runs a small size of every workload, untraced and
// traced, and checks the result line: the correctness gate passed, and the
// metrics are exactly the ones BENCHMARK.json names, with their units.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			p := params{workload: w.name, seed: 3, seconds: 1, trace: traced,
				sizes: smokeSizes, spanDir: t.TempDir(), log: io.Discard}
			var stdout, stderr bytes.Buffer
			if code := execute(w, p, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%v: exit %d: %s", w.name, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line: %v", w.name, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: result %+v", w.name, traced, res)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", w.name, d.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must be positive", w.name, d.Name, m.Value)
				}
			}
			if traced {
				var rec struct{ Record report }
				if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
					t.Fatal(err)
				}
				if _, err := os.Stat(rec.Record.SpansFile); err != nil {
					t.Errorf("%s: spans file: %v", w.name, err)
				}
			}
		}
	}
}

// TestGateDetectsDifferences checks that the gate's comparisons reject a
// changed score, a missing duplicate and a reordering.
func TestGateDetectsDifferences(t *testing.T) {
	want := []adrdedup.Match{
		{CaseA: "A", CaseB: "B", Score: 2, Duplicate: true},
		{CaseA: "C", CaseB: "D", Score: 1, Duplicate: true},
		{CaseA: "E", CaseB: "F", Score: -1},
	}
	wire := []wireMatch{{CaseA: "B", CaseB: "A", Score: 2}, {CaseA: "C", CaseB: "D", Score: 1}}
	if err := sameDuplicates("ok", want, wire); err != nil {
		t.Fatalf("equal sets rejected: %v", err)
	}
	for name, got := range map[string][]wireMatch{
		"score":   {{CaseA: "A", CaseB: "B", Score: 2}, {CaseA: "C", CaseB: "D", Score: 1.5}},
		"missing": {{CaseA: "A", CaseB: "B", Score: 2}},
		"twice":   {{CaseA: "A", CaseB: "B", Score: 2}, {CaseA: "A", CaseB: "B", Score: 2}, {CaseA: "C", CaseB: "D", Score: 1}},
	} {
		if sameDuplicates(name, want, got) == nil {
			t.Errorf("%s: difference not detected", name)
		}
	}
	if sameMatches("order", want, []adrdedup.Match{want[1], want[0], want[2]}) == nil {
		t.Error("reordering not detected")
	}
}

// TestRefusesBadArguments checks that a bad invocation prints no result.
func TestRefusesBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "bulk-tga", "--trace", "2"},
		{"--workload", "bulk-tga", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != exitUsage || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
