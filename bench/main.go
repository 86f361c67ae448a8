// Command bench is the repository's one end-to-end benchmark: four
// workloads against the runtime's public entry points, eight end-to-end
// metrics each, and a traced run that says which layer owns them. See
// README.md; BENCHMARK.json at the root of the repository is its contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	o := options{warmup: warmupSeconds, rounds: runRounds}
	workloadName := flag.String("workload", "all", "workload name, or all (each workload untraced, then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of tenant draws and payload bytes")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measured seconds per run over all rounds, split low:mid:sat = 12:5:5")
	flag.StringVar(&o.outDir, "out", defaultOutDir(), "directory for trace-<workload>.jsonl")
	trace := flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = untraced (end-to-end metrics)")
	repeat := flag.Int("repeat", 0, "run every workload untraced N times, print spreads, write -results")
	results := flag.String("results", "", "with -repeat: file for the JSON record")
	label := flag.String("label", "", "with -repeat: free text stored in the record (commit, occasion)")
	compare := flag.String("compare", "", "A.json,B.json: print whether two -repeat records agree, and exit")
	printSpec := flag.Bool("print-spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	o.trace = *trace != 0

	if *printSpec {
		b, _ := json.MarshalIndent(currentSpec(), "", "  ")
		fmt.Println(string(b))
		return
	}
	if a, b, ok := strings.Cut(*compare, ","); ok {
		if err := compareSets(a, b); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o, *workloadName, *repeat, *results, *label); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultOutDir is bench/out whether the program is started from the root
// of the repository (run.sh) or from its own directory (go run .).
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}

func run(o options, name string, repeat int, results, label string) error {
	if repeat > 0 {
		return runRepeat(o, repeat, results, label)
	}
	if name != "all" {
		wl := findWorkload(name)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		res, err := runWorkload(wl, o)
		if err != nil {
			return err
		}
		res.print(os.Stdout)
		line, err := res.line()
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	// Every workload untraced for the end-to-end numbers, then traced for
	// the layers.
	sum := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, traced := range []bool{false, true} {
		o.trace = traced
		for _, wl := range workloads {
			one, err := runChild(wl, o)
			if err != nil {
				return err
			}
			sum.Correct = sum.Correct && one.Correct
			sum.Attempted += one.Attempted
			sum.Failed += one.Failed
			for k, v := range one.Metrics {
				sum.Metrics[wl.name+":"+k] = v
			}
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// childRun is what a run in a process of its own reported: its result line
// and, from the report above it (the line's keys are fixed by the contract),
// whether the validity guards believed the run.
type childRun struct {
	resultLine
	valid   bool
	reasons string
}

// runChild runs one workload in a process of its own, the way the driver
// does: peak memory and set-up time are per process, and a run must not
// inherit the previous one's heap. The child's report is passed through.
func runChild(wl *workload, o options) (childRun, error) {
	var run childRun
	exe, err := os.Executable()
	if err != nil {
		return run, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", wl.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace, "-out", o.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		os.Stdout.Write(out)
		return run, fmt.Errorf("%s: %w", wl.name, err)
	}
	report, last, _ := strings.Cut(strings.TrimRight(string(out), "\n"), "\n{")
	fmt.Println(report)
	if err := json.Unmarshal([]byte("{"+last), &run.resultLine); err != nil {
		return run, fmt.Errorf("%s: result line: %w", wl.name, err)
	}
	_, verdict, found := strings.Cut(report, "\n"+validPrefix)
	if !found {
		return run, fmt.Errorf("%s: report has no %q line", wl.name, validPrefix)
	}
	verdict, _, _ = strings.Cut(verdict, "\n")
	run.valid = verdict == "true"
	run.reasons = strings.TrimPrefix(verdict, "false ")
	return run, nil
}
