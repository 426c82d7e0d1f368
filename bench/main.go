// Command bench is the farmerd benchmark. It builds cmd/farmerd once, then
// drives each workload's seeded request plan over HTTP against freshly
// started daemon processes, from one client process with one keep-alive
// connection per client goroutine, checks every answer, and prints every
// metric by name with its unit. Each request is timed from its send time
// (open loop: its scheduled time) to the last byte of its NDJSON answer.
// README.md describes the workloads, the metrics and the comparison
// protocol.
//
// Run it from the root of the repository:
//
//	bash bench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//	                  [-o results.json] [-spans spans.ndjson]
//	bash bench/run.sh -compare old.json new.json
//
// The last line of standard output is one JSON object: whether every
// check passed, the requests attempted and failed, and the metrics — the
// end-to-end ones, or with --trace 1 the per-layer ones. The exit status
// is non-zero when any check fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// defaultSeconds is the planned phase length BENCHMARK.json's run_seconds
// names. The plans' spec pools are sized for phases up to 30 s.
const defaultSeconds = 25

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	spans    string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", "run one workload: explore, dashboard, scaleup or interactive (default all four)")
	fs.Int64Var(&opt.seed, "seed", 1, "seed of every generated request stream")
	fs.Float64Var(&opt.seconds, "seconds", defaultSeconds, "planned length of each timed phase in seconds; request counts scale with it")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&opt.out, "o", "", "append the runs (or, with --trace 1, write the per-layer summary) to this JSON file")
	fs.StringVar(&opt.spans, "spans", "", "with --trace 1, write the per-layer summaries and every span to this NDJSON file (default .bench_build/spans.ndjson)")
	compare := fs.Bool("compare", false, "compare two results files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		worse, err := compareResults(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	opt.trace = *traceFlag == 1
	if opt.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive")
		return 2
	}
	selected := workloads
	if opt.workload != "" {
		w, ok := workloadByName(opt.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", opt.workload)
			return 2
		}
		selected = []*workload{w}
	}
	line, err := execute(ctx, opt, selected, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if !line.Correct {
		return 1
	}
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// execute builds farmerd, runs the selected workloads and returns the
// result line. With several workloads the line's metric names carry a
// "<workload>." prefix.
func execute(ctx context.Context, opt options, selected []*workload, stdout, stderr io.Writer) (*resultLine, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	work := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildFarmerd(ctx, root, work)
	if err != nil {
		return nil, err
	}
	fx, err := newFixture()
	if err != nil {
		return nil, err
	}
	b := &bench{fx: fx, farmerd: bin, work: work, log: stderr, lives: 5}
	commit, sum, err := binaryStamp(bin, root)
	if err != nil {
		return nil, err
	}
	env := currentEnv()
	fmt.Fprintf(stderr, "farmerd %s (sha256 %.12s), %s, GOMAXPROCS=%d, seed %d, %g s phases\n",
		commit, sum, env.GoVersion, env.GOMAXPROCS, opt.seed, opt.seconds)

	line := &resultLine{Correct: true, Metrics: map[string]Metric{}}
	name := func(w *workload, metric string) string {
		if len(selected) > 1 {
			return w.name + "." + metric
		}
		return metric
	}
	if opt.trace {
		var traced []tracedWorkload
		var summaries []*traceSummary
		for _, w := range selected {
			s, spans, err := b.traced(ctx, w, opt.seed, opt.seconds)
			if err != nil {
				return nil, err
			}
			traced = append(traced, tracedWorkload{s, spans})
			summaries = append(summaries, s)
			line.Attempted += s.Attempted
			line.Failed += s.Failed
			for _, m := range perLayer {
				v, ok := s.Metrics[m.name]
				if !ok {
					return nil, fmt.Errorf("%s: traced run measured no %s", w.name, m.name)
				}
				line.Metrics[name(w, m.name)] = v
			}
			printSummary(stdout, s)
		}
		spansPath := opt.spans
		if spansPath == "" {
			spansPath = filepath.Join(work, "spans.ndjson")
		}
		if err := writeSpans(spansPath, traced); err != nil {
			return nil, err
		}
		if opt.out != "" {
			if err := writeJSON(opt.out, struct {
				Env           envStamp        `json:"env"`
				Commit        string          `json:"commit"`
				FarmerdSHA256 string          `json:"farmerd_sha256"`
				Workloads     []*traceSummary `json:"workloads"`
			}{env, commit, sum, summaries}); err != nil {
				return nil, err
			}
		}
		line.Correct = line.Failed == 0
		return line, nil
	}

	var runs []*runResult
	for _, w := range selected {
		p, err := b.runPhase(ctx, w, opt.seed, opt.seconds, nil)
		if err != nil {
			return nil, err
		}
		r := w.result(p, opt.seed, opt.seconds)
		runs = append(runs, r)
		printRun(stdout, r)
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, m := range endToEnd {
			if v, ok := r.Metrics[m.name]; ok && m.gated() {
				line.Metrics[name(w, m.name)] = v
			}
		}
	}
	if opt.out != "" {
		if err := appendResults(opt.out, env, commit, sum, runs); err != nil {
			return nil, err
		}
	}
	line.Correct = line.Failed == 0
	if len(line.Metrics) == 0 {
		return nil, errors.New("no metrics measured")
	}
	return line, nil
}

// printRun prints every end-to-end metric of a run by name with its unit,
// and beside each timing scaled to the reference host its value as measured.
func printRun(w io.Writer, r *runResult) {
	for _, m := range endToEnd {
		if v, ok := r.Metrics[m.name]; ok {
			note := ""
			if m.name == "latency_tail_ms" {
				note += "  " + r.TailPercentile
			}
			if raw, ok := r.Unscaled[m.name]; ok {
				note += fmt.Sprintf("  (%.4f as measured)", raw)
			}
			fmt.Fprintf(w, "%-12s %-24s %14.4f %s%s\n", r.Workload, m.name, v.Value, v.Unit, note)
		}
	}
	fmt.Fprintf(w, "%-12s %-24s %14.4f µs  (reference %d µs)\n", r.Workload, "host_probe", r.ProbeUS, refProbeUS)
	if r.GenLagMS != nil {
		fmt.Fprintf(w, "%-12s %-24s %14.4f ms  (diagnostic)\n", r.Workload, "gen_lag_ms", *r.GenLagMS)
	}
	for _, k := range r.Kinds {
		fmt.Fprintf(w, "%-12s kind %-19s %14.4f ms p50, %.4f ms %s over %d answers\n", r.Workload, k.Kind, k.P50MS, k.TailMS, k.TailPercentile, k.N)
	}
	fmt.Fprintf(w, "%-12s %-24s %14d of %d attempted\n", r.Workload, "failed", r.Failed, r.Attempted)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%-12s   %s\n", r.Workload, e)
	}
}
