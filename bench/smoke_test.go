package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesProgram: BENCHMARK.json is what -print-spec prints, its
// names are well formed and unique, and its limits hold.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	if want := currentSpec(); !reflect.DeepEqual(spec, want) {
		t.Fatalf("BENCHMARK.json differs from the program's tables; regenerate it with -print-spec\n got %+v\nwant %+v", spec, want)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// TestSmoke runs every workload untraced and traced with 0.2 s phases and
// checks the result line: every metric BENCHMARK.json names, once, with its
// unit; nothing failed; a layer the workload does not touch reads n/a, never
// a made-up zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads for real")
	}
	spec := readSpec(t)
	absent := map[string][]string{
		"plane-uniform-1k": {"edge.post_rtt_ns_p50", "cluster.recv_deduped", "plane.batch_items_mean"},
		"plane-skew-heavy": {"edge.sub_dropped", "cluster.items_per_frame"},
		"edge-http-sse":    {"plane.notify_wait_ns_p50", "cluster.bridge_wait_ns_p50"},
		"fed-forward":      {"edge.items_per_flush", "plane.ingress_call_ns_per_item"},
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			wl := findWorkload(w.Name)
			if wl == nil {
				t.Fatalf("unknown workload %q", w.Name)
			}
			res, err := runWorkload(wl, options{seconds: 0.6, warmup: 0.05, rounds: 1, seed: 7, trace: traced, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			b, err := res.line()
			if err != nil {
				t.Fatal(err)
			}
			var line resultLine
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("result line: %v\n%s", err, b)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d (%+v)", w.Name, traced, line.Correct, line.Attempted, line.Failed, res.verdict)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s: %s has unit %q, want %q", w.Name, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, name, got.Value)
				}
			}
			if traced {
				for _, name := range absent[w.Name] {
					if v := line.Metrics[name].Value; v != -1 || !math.IsNaN(res.metrics[name]) {
						t.Errorf("%s: %s of an absent layer reads %v, want n/a", w.Name, name, v)
					}
				}
				if len(res.owners) != 2 || len(res.owners[0].rows) != nSeg {
					t.Errorf("%s: no layer-ownership table", w.Name)
				}
			}
		}
	}
}
