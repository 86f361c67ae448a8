package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"hyperplane/internal/benchmeta"
)

// print writes every metric of the run by name with its unit, the verdict
// of the verifier and the validity of the run.
func (r *result) print(w io.Writer) {
	mode := "untraced: end-to-end metrics"
	defs := endToEnd
	if r.trace {
		mode, defs = "traced: per-layer metrics", perLayer
	}
	fmt.Fprintf(w, "== %s seed=%d (%s, %.1f s wall) ==\n", r.workload, r.seed, mode, r.wallS)
	switch r.sutCPUs {
	case 0:
		fmt.Fprintln(w, "  sut_cpus=0 (nothing pinned: the generator shares the cores with the program under test)")
	case 1:
		fmt.Fprintln(w, "  sut_cpus=1 (generator pinned to the other core: the program's workers take turns on ONE core, so")
		fmt.Fprintln(w, "  worker balance, scale-up sharing and cross-worker contention cannot show; see README, Placement)")
	default:
		fmt.Fprintf(w, "  sut_cpus=%d (generator pinned to a core of its own)\n", r.sutCPUs)
	}
	if findWorkload(r.workload).kind == kindEdge {
		fmt.Fprintln(w, "  (sockets are the host's loopback interface, not a real link)")
	}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(v) {
			fmt.Fprintf(w, "  %-32s %14s %s\n", d.Name, "n/a", d.Unit)
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.Name, v, d.Unit)
	}
	if !r.trace {
		for _, name := range []string{"lat_mid_p99_us", "gen.late_low_p99_us", "gen.late_mid_p99_us"} {
			fmt.Fprintf(w, "  %-32s %14.4f us (per-layer metric, untraced value)\n", name, r.metrics[name])
		}
	}
	for _, t := range r.owners {
		fmt.Fprintf(w, "  which layer owns phase %s (%d recorded messages, p50 %.1f us, p99 %.1f us):\n", t.phase, t.n, t.p50, t.p99)
		fmt.Fprintf(w, "    %-24s %12s %10s %10s\n", "segment", "median us", "of p50", "of p99 tail")
		for _, row := range t.rows {
			fmt.Fprintf(w, "    %-24s %12.2f %9.1f%% %9.1f%%\n", row.name, row.p50Us, 100*row.p50Share, 100*row.p99Share)
		}
	}
	v := r.verdict
	fmt.Fprintf(w, "  ops_attempted=%d ops_failed=%d (lost=%d duplicated=%d reordered=%d corrupt=%d)\n",
		r.attempted, r.failed, v.Lost, v.Duplicated, v.Reordered, v.Corrupt)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if r.valid {
		fmt.Fprintln(w, validPrefix+"true")
	} else {
		fmt.Fprintf(w, validPrefix+"false (%s)\n", strings.Join(r.reasons, "; "))
	}
}

// validPrefix starts the report's validity line; runChild reads it back.
const validPrefix = "  valid: "

// quartiles returns the median and the first and third quartile the way
// Python's statistics.quantiles(v, n=4) does (exclusive method), so the
// spread printed here is the one the driver computes.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), median(s), at(0.75)
}

type repeatRecord struct {
	benchmeta.Host
	Label     string                         `json:"label,omitempty"`
	Seconds   float64                        `json:"seconds"`
	Seeds     []int64                        `json:"seeds"`
	Workloads map[string]map[string]spreadOf `json:"workloads"`
	Failed    map[string][]uint64            `json:"ops_failed"`
	// Discarded lists the runs the validity guards did not believe (noisy
	// neighbour, late generator, rate_mid not sustained): each was made
	// again and is in none of the values above.
	Discarded []string `json:"discarded_invalid_runs"`
}

// repeatTries is how often repeat mode makes one run before it gives up on
// getting a valid one.
const repeatTries = 3

type spreadOf struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
}

// runRepeat is the repeatability mode: every workload untraced n times,
// each time with another seed (seed*1000+i), then per metric the median,
// the quartiles and their distance as a share of the median. A run the
// validity guards did not believe is discarded, recorded as such and made
// again. It fails when an end-to-end spread (set-up time aside, as in the
// driver) exceeds half its bound.
func runRepeat(o options, n int, path, label string) error {
	o.trace = false
	rec := repeatRecord{Host: benchmeta.Collect(), Label: label, Seconds: o.seconds,
		Workloads: map[string]map[string]spreadOf{}, Failed: map[string][]uint64{}, Discarded: []string{}}
	values := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		seed := o.seed*1000 + int64(i)
		rec.Seeds = append(rec.Seeds, seed)
		for _, wl := range workloads {
			ro := o
			ro.seed = seed
			var res childRun
			for try := 1; ; try++ {
				var err error
				if res, err = runChild(wl, ro); err != nil {
					return err
				}
				if res.valid || res.Failed > 0 {
					break // a failed operation is a finding, not noise: it is recorded
				}
				rec.Discarded = append(rec.Discarded, fmt.Sprintf("%s seed %d: %s", wl.name, seed, res.reasons))
				if try == repeatTries {
					return fmt.Errorf("%s seed %d: %d runs, none valid: %s", wl.name, seed, try, res.reasons)
				}
				fmt.Printf("  invalid run discarded, running %s seed %d again\n", wl.name, seed)
			}
			if values[wl.name] == nil {
				values[wl.name] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				values[wl.name][d.Name] = append(values[wl.name][d.Name], res.Metrics[d.Name].Value)
			}
			rec.Failed[wl.name] = append(rec.Failed[wl.name], res.Failed)
		}
	}
	wide := 0
	for _, wl := range workloads {
		fmt.Printf("== %s: %d runs ==\n  %-22s %14s %14s %14s %8s %8s\n", wl.name, n, "metric", "q1", "median", "q3", "spread", "bound")
		rec.Workloads[wl.name] = map[string]spreadOf{}
		for _, d := range endToEnd {
			v := values[wl.name][d.Name]
			q1, med, q3 := quartiles(v)
			sp := spreadOf{Unit: d.Unit, Values: v, Q1: q1, Median: med, Q3: q3, Spread: (q3 - q1) / med}
			rec.Workloads[wl.name][d.Name] = sp
			mark := ""
			if sp.Spread > d.Bound/2 && d.Name != "setup_s" {
				mark = "  <-- above half its bound"
				wide++
			}
			fmt.Printf("  %-22s %14.4f %14.4f %14.4f %7.2f%% %7.0f%%%s\n", d.Name, q1, med, q3, 100*sp.Spread, 100*d.Bound, mark)
		}
	}
	if path != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := benchmeta.WriteFileAtomic(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if wide > 0 {
		return fmt.Errorf("%d end-to-end spreads exceed half their bound", wide)
	}
	return nil
}

// compareSets prints, as a markdown table, whether two repeat records of
// the same commit agree: for every workload and end-to-end metric the two
// medians, how much worse the second is than the first as a share of the
// first, and whether that is inside the metric's bound. It fails if any
// pair disagrees or any run had a failed operation.
func compareSets(pathA, pathB string) error {
	var a, b repeatRecord
	for path, rec := range map[string]*repeatRecord{pathA: &a, pathB: &b} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, rec); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	fmt.Printf("A: %s, seeds %v, %s\nB: %s, seeds %v, %s\n\n", a.Label, a.Seeds, a.Generated, b.Label, b.Seeds, b.Generated)
	fmt.Println("| workload | metric | unit | median A | spread A | median B | spread B | B worse by | bound | agree |")
	fmt.Println("|---|---|---|---:|---:|---:|---:|---:|---:|---|")
	bad := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			x, y := a.Workloads[wl.name][d.Name], b.Workloads[wl.name][d.Name]
			worse := (y.Median - x.Median) / x.Median
			if d.Better == "higher" {
				worse = -worse
			}
			ok := "yes"
			if math.Abs(worse) > d.Bound {
				ok = "NO"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.1f%% | %.4g | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				wl.name, d.Name, d.Unit, x.Median, 100*x.Spread, y.Median, 100*y.Spread, 100*worse, 100*d.Bound, ok)
		}
	}
	fmt.Println()
	for _, wl := range workloads {
		fmt.Printf("%s: ops_failed A %v, B %v\n", wl.name, a.Failed[wl.name], b.Failed[wl.name])
		for _, f := range append(a.Failed[wl.name], b.Failed[wl.name]...) {
			if f != 0 {
				bad++
			}
		}
	}
	fmt.Printf("\ninvalid runs discarded and made again: A %q, B %q\n", a.Discarded, b.Discarded)
	if bad > 0 {
		return fmt.Errorf("%d disagreements", bad)
	}
	return nil
}
