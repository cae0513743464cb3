// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed window, checks every output against its own evaluation of
// the same inputs, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics) as one JSON object on the last line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload table5-cold --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 25
//
// Workloads and metrics are listed in BENCHMARK.json; metrics.go holds
// the same lists. Each batch job, each server run and each traced replay
// is a fresh process, started by this one; set-up, CPU, memory and
// allocation figures are that process's own.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// workload is one benchmark input mix.
type workload struct {
	name, why string
	run       func(o *runOpts) (*outcome, error)
}

var workloads = []workload{
	{"table5-cold", "the headline Table V evaluation from a CSV corpus in fresh processes; the models' scheduler does most of the work",
		func(o *runOpts) (*outcome, error) {
			return runBatch(o, batchShape{exp: "table5", chunkBlocks: 40, chunks: 48})
		}},
	{"boundcheck", "profiler, machine and bound do all the work on four uarches and the models never run, so a models change shows no gain",
		func(o *runOpts) (*outcome, error) {
			return runBatch(o, batchShape{exp: "boundcheck", chunkBlocks: 80, chunks: 24})
		}},
	{"serve-cached", "closed-loop jobs on the HTTP server sharing half their blocks: profile-cache hits, journal fsyncs and cache saves",
		runServe},
}

// minJobs is the fewest jobs a run may report: enough to leave minTail
// samples beyond the p90 latency.
const minJobs = 100

// maxProblemLines caps the failed checks printed per run; the result
// line counts them all.
const maxProblemLines = 10

// maxWindow bounds a run's measured window when jobs are slow, so a run
// always ends well inside its time limit.
const maxWindow = 120 * time.Second

// runOpts is one run's configuration.
type runOpts struct {
	seed    int64
	window  time.Duration
	trace   bool
	exe     string    // this binary, re-run as the job and server processes
	workDir string    // generated inputs and server state, removed at exit
	outDir  string    // span files, kept
	info    io.Writer // human-readable lines before the result
	name    string
}

// windowDone reports whether the measured window may close: the requested
// time has passed and the run has enough jobs for its p90.
func (o *runOpts) windowDone(start time.Time, jobs int) bool {
	el := time.Since(start)
	return (el >= o.window && jobs >= minJobs) || el >= maxWindow
}

func (o *runOpts) checkWindow(jobs int) error {
	if jobs < minJobs {
		return fmt.Errorf("only %d jobs completed in %v; the p90 latency needs %d", jobs, maxWindow, minJobs)
	}
	return nil
}

// outcome is what a workload run found.
type outcome struct {
	tally    tally
	problems []string
	digest   string
	e2e      map[string]float64
	layers   map[string]float64
}

func newOutcome() *outcome {
	return &outcome{layers: make(map[string]float64)}
}

func (o *outcome) failf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool { return o.tally.failed == 0 && len(o.problems) == 0 }

func main() {
	if len(os.Args) > 1 {
		var err error
		switch os.Args[1] {
		case "job":
			if len(os.Args) != 4 {
				err = errors.New("usage: perfbench job <experiment> <corpus.csv>")
			} else {
				err = runJob(os.Args[2], os.Args[3], os.Stdout)
			}
		case "serve":
			err = serveMain(os.Args[2:], os.Stdout)
		case "trace":
			err = traceJob(os.Args[2:], os.Stdout)
		default:
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(nil, os.Stdout, os.Stderr))
}

// run is the benchmark itself, behind a single exit code: 0 when every
// check passed, 1 when an output check failed (the result line is still
// printed), 2 when the run could not be made.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name, or all")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 25, "measured window per run")
		traceN  = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	o := &runOpts{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		trace:  *traceN == 1,
		exe:    exe,
		outDir: filepath.Join(".bench_build", "traces"),
		info:   stdout,
	}
	o.workDir = filepath.Join(".bench_build", "work", fmt.Sprintf("%s-s%d-p%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(o.workDir)
	fmt.Fprintf(stdout, "signature %s\n", signatureJSON())

	if *name == "all" {
		return runAll(o, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q (have %s, all)", *name, strings.Join(workloadNames(), ", ")))
	}
	o.name = w.name
	res, err := runOne(o, w)
	if err != nil {
		return fail(err)
	}
	raw, _ := json.Marshal(res) // plain structs of numbers and strings
	fmt.Fprintf(stdout, "%s\n", raw)
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload and shapes its result line.
func runOne(o *runOpts, w workload) (result, error) {
	out, err := w.run(o)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	fmt.Fprintf(o.info, "digest %s %s\n", w.name, out.digest)
	for i, p := range out.problems {
		if i == maxProblemLines {
			fmt.Fprintf(o.info, "check failed: %d more\n", len(out.problems)-i)
			break
		}
		fmt.Fprintf(o.info, "check failed: %s\n", p)
	}
	res := result{Correct: out.correct(), Attempted: out.tally.attempted, Failed: out.tally.failed}
	if o.trace {
		res.Metrics = fill(perLayer, out.layers)
	} else {
		res.Metrics = fill(endToEnd, out.e2e)
	}
	return res, nil
}

// runAll runs every workload untraced and prints one row per workload
// with every end-to-end metric and the failed fraction.
func runAll(o *runOpts, stdout, stderr io.Writer) int {
	o.trace = false
	header := []string{"workload"}
	for _, s := range endToEnd {
		header = append(header, fmt.Sprintf("%s[%s]", s.name, s.unit))
	}
	header = append(header, "failed_frac")
	rows := [][]string{header}
	code := 0
	for _, w := range workloads {
		o.name = w.name
		res, err := runOne(o, w)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		if !res.Correct {
			code = 1
		}
		row := []string{w.name}
		for _, s := range endToEnd {
			row = append(row, fmt.Sprintf("%.4g", res.Metrics[s.name].Value))
		}
		row = append(row, fmt.Sprintf("%.4g", ratio(float64(res.Failed), float64(res.Attempted))))
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, r := range rows {
		for i, c := range r {
			widths[i] = max(widths[i], len(c))
		}
	}
	for _, r := range rows {
		for i, c := range r {
			fmt.Fprintf(stdout, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(stdout)
	}
	return code
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
