package main

// metricDef names one metric the benchmark prints, with its unit.
type metricDef struct {
	Name, Unit string
	// Exact marks a per-layer count that repeats exactly across repeated
	// runs of one seed (on ingest-singles, for the same number of requests:
	// where the ladder stops depends on timing). Counts not marked exact
	// still depend on goroutine scheduling, so a change to them proves
	// nothing on its own.
	Exact bool
}

// endToEnd are the metrics a user of the service sees, printed by every
// run with --trace 0. Each is defined for every workload and is never 0.
var endToEnd = []metricDef{
	{Name: "latency_p50_ms", Unit: "ms"},
	{Name: "latency_p90_ms", Unit: "ms"},
	{Name: "reports_per_s", Unit: "1/s"},
	{Name: "peak_rss_mb", Unit: "MB"},
	{Name: "setup_s", Unit: "s"},
}

// perLayer are the metrics of single layers, printed by every run with
// --trace 1. Times and counts from the replay cover its set-up as well as
// the measured requests; cluster, runtime and process figures are deltas
// over the untraced measured phase.
var perLayer = []metricDef{
	{Name: "candgen.signatures_ms", Unit: "ms"},
	{Name: "candgen.pairs_ms", Unit: "ms"},
	{Name: "candgen.records", Unit: "count", Exact: true},
	{Name: "candgen.index_entries", Unit: "count", Exact: true},
	{Name: "candgen.scanned", Unit: "count"},
	{Name: "candgen.verified", Unit: "count"},
	{Name: "candgen.emitted", Unit: "count", Exact: true},
	{Name: "candgen.emitted_per_verified", Unit: "ratio"},
	{Name: "adr.add_ms", Unit: "ms"},
	{Name: "adr.reports_copy_ms", Unit: "ms"},
	{Name: "pairdist.extract_ms", Unit: "ms"},
	{Name: "pairdist.extract_reports", Unit: "count", Exact: true},
	{Name: "pairdist.vectorize_ms", Unit: "ms"},
	{Name: "pairdist.vectorize_pairs", Unit: "count", Exact: true},
	{Name: "core.classify_ms", Unit: "ms"},
	{Name: "core.train_ms", Unit: "ms"},
	{Name: "core.test_pairs", Unit: "count", Exact: true},
	{Name: "core.pruned_pairs", Unit: "count", Exact: true},
	{Name: "core.intra_comparisons", Unit: "count", Exact: true},
	{Name: "core.cross_comparisons", Unit: "count", Exact: true},
	{Name: "core.positive_scan_comparisons", Unit: "count", Exact: true},
	{Name: "cluster.stages", Unit: "count", Exact: true},
	{Name: "cluster.tasks", Unit: "count", Exact: true},
	{Name: "cluster.task_failures", Unit: "count", Exact: true},
	{Name: "cluster.shuffle_bytes_written", Unit: "bytes", Exact: true},
	{Name: "cluster.records_processed", Unit: "count", Exact: true},
	{Name: "cluster.spilled_bytes", Unit: "bytes", Exact: true},
	{Name: "serve.decode_ms", Unit: "ms"},
	{Name: "serve.server_latency_ms", Unit: "ms"},
	{Name: "serve.queue_wait_ms", Unit: "ms"},
	{Name: "serve.rejected", Unit: "count"},
	{Name: "serve.failed_batches", Unit: "count"},
	{Name: "runtime.alloc_bytes", Unit: "bytes"},
	{Name: "runtime.gc_cycles", Unit: "count"},
	{Name: "runtime.gc_pause_ms", Unit: "ms"},
	{Name: "runtime.heap_peak_mb", Unit: "MB"},
	{Name: "process.cpu_s", Unit: "s"},
	{Name: "process.cpu_util", Unit: "ratio"},
	{Name: "loadgen.late_p90_ms", Unit: "ms"},
	{Name: "loadgen.requests", Unit: "count"},
	{Name: "trace.overhead_ms", Unit: "ms"},
}

// exactCounts lists the per-layer metrics marked Exact.
func exactCounts() []string {
	var names []string
	for _, d := range perLayer {
		if d.Exact {
			names = append(names, d.Name)
		}
	}
	return names
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values under the names of one definition list.
type metricSet map[string]metric

func (m metricSet) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			m[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("adrbench: undefined metric " + name)
}
