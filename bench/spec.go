package main

import (
	"encoding/json"
	"math"
)

// metricDef names one reported number. The tables below are the single
// source of the benchmark's contract: BENCHMARK.json is printed from them
// (-print-spec) and the smoke test checks the two agree.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound, on end-to-end metrics only (per-layer ones have none and omit
	// it), is the tolerated worsening as a share of the parent's median.
	Bound float64 `json:"bound,omitempty"`
}

const runSeconds = 26

// The same eight end-to-end metrics on every workload. Bounds are at least
// three times the inter-quartile spread measured over ten seeds on the
// seed commit (README, calibration record), and at most 0.25, which for
// lat_low_p99_us is only twice its worst spread. The ninth,
// lat_mid_p99_us, is a per-layer metric: on fed-forward it sits on the edge
// of the collector's pauses and spreads 13 to 25 % from run to run, which no
// bound the contract allows can gate.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lat_low_p50_us", "us", "lower", 0.18},
	{"lat_low_p99_us", "us", "lower", 0.25},
	{"lat_mid_p50_us", "us", "lower", 0.10},
	{"sat_items_per_s", "1/s", "higher", 0.10},
	{"cpu_us_per_msg_low", "us/msg", "lower", 0.12},
	{"cpu_us_per_msg_sat", "us/msg", "lower", 0.08},
	{"rss_peak_mb", "MiB", "lower", 0.08},
}

// Per-layer metrics of the traced run; the layer is the prefix. A metric of
// a layer the workload does not touch is n/a (-1 in the JSON line).
var perLayer = []metricDef{
	{Name: "notifier.notify_ns", Unit: "ns", Better: "lower"},
	{Name: "notifier.select_ns", Unit: "ns", Better: "lower"},
	{Name: "notifier.wake_ns", Unit: "ns", Better: "lower"},
	{Name: "queue.push1_ns", Unit: "ns", Better: "lower"},
	{Name: "queue.pop1_ns", Unit: "ns", Better: "lower"},
	{Name: "queue.batch32_ns_per_item", Unit: "ns", Better: "lower"},

	{Name: "plane.ingress_call_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "plane.notify_wait_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "plane.notify_wait_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "plane.handler_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "plane.deliver_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "plane.deliver_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "plane.batch_items_mean", Unit: "count", Better: "higher"},
	{Name: "plane.backlog_max", Unit: "count", Better: "lower"},
	{Name: "plane.refused", Unit: "count", Better: "lower"},
	{Name: "plane.dropped", Unit: "count", Better: "lower"},
	{Name: "plane.errors", Unit: "count", Better: "lower"},
	{Name: "plane.panics", Unit: "count", Better: "lower"},

	{Name: "edge.post_rtt_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "edge.post_rtt_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "edge.servehttp_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "edge.stage_wait_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "edge.stage_wait_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "edge.egress_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "edge.egress_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "edge.items_per_flush", Unit: "count", Better: "higher"},
	{Name: "edge.frames_per_write", Unit: "count", Better: "higher"},
	{Name: "edge.sent_bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "edge.rejected", Unit: "count", Better: "lower"},
	{Name: "edge.rate_limited", Unit: "count", Better: "lower"},
	{Name: "edge.slab_overflow", Unit: "count", Better: "lower"},
	{Name: "edge.sub_dropped", Unit: "count", Better: "lower"},

	{Name: "cluster.ingress_call_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "cluster.bridge_wait_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "cluster.bridge_wait_ns_p99", Unit: "ns", Better: "lower"},
	{Name: "cluster.items_per_frame", Unit: "count", Better: "higher"},
	{Name: "cluster.wire_bytes_per_item", Unit: "B", Better: "lower"},
	{Name: "cluster.recv_deduped", Unit: "count", Better: "higher"},
	{Name: "cluster.forward_dropped", Unit: "count", Better: "lower"},
	{Name: "cluster.recv_rejected", Unit: "count", Better: "lower"},
	{Name: "cluster.frame_errors", Unit: "count", Better: "lower"},
	{Name: "cluster.reconnects", Unit: "count", Better: "lower"},

	{Name: "rt.alloc_b_per_msg", Unit: "B", Better: "lower"},
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "rt.goroutines_max", Unit: "count", Better: "lower"},

	{Name: "gen.late_low_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.late_mid_p99_us", Unit: "us", Better: "lower"},
	{Name: "lat_mid_p99_us", Unit: "us", Better: "lower"},
	{Name: "lat_low_p999_us", Unit: "us", Better: "lower"},
	{Name: "lat_mid_p999_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func currentSpec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadSpec{w.name, w.why})
	}
	return s
}

// na marks a per-layer metric whose layer the workload does not touch.
var na = math.NaN()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) line() ([]byte, error) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := resultLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(v) {
			v = -1
		}
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return json.Marshal(out)
}
