// Command perfbench is the repository's benchmark. It drives the
// simulator through its public entry points on one of four workloads,
// checks the output of every job, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1).
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {"job_s_p50": {"value": 0.0123, "unit": "s"}, ...}}
//
// The line before it stamps the environment (Go version, GOMAXPROCS,
// CPU count and model, workload, seed). Two saved outputs are compared
// with
//
//	perfbench --compare old.txt new.txt
//
// which refuses outputs whose environments differ. perfbench/run.sh
// builds the program and the ddsimd service and runs it; see
// perfbench/README.md for the workloads and metrics.
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
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// config is one run's settings.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	minJobs   int // timed jobs per run, at least
	setupReps int // set-ups per run; setup_s is their median
	workers   int // engine workers per job
	tiny      bool
	ddsimd    string // path of the ddsimd binary (service)
	workdir   string // scratch space for ddsimd data dirs
}

var workloads = []string{"structured", "dense", "sweep", "service"}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{minJobs: 100, setupReps: 3, workers: runtime.NumCPU()}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured time of one run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	fs.StringVar(&cfg.ddsimd, "ddsimd", "", "ddsimd binary (service workload)")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench/tmp", "scratch directory for ddsimd data dirs")
	compare := fs.Bool("compare", false, "compare two saved outputs named as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare needs two output files")
			return 2
		}
		return compareOutputs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if (*trace != 0 && *trace != 1) || !(cfg.seconds >= 0) {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1, --seconds a non-negative number")
		return 2
	}
	cfg.trace = *trace == 1
	if cfg.trace {
		cfg.setupReps = 1
	}
	rep, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout, stderr, envStamp(cfg), cfg.trace)
	return 0
}

func runWorkload(ctx context.Context, cfg config) (*report, error) {
	switch cfg.workload {
	case "structured", "dense", "sweep":
		return runInproc(ctx, cfg.workload, cfg)
	case "service":
		return runService(ctx, cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	problems          []string // failed checks, for standard error
	findings          []string // measured program defects that fail no check
	broken            bool     // a check outside the per-job ones failed
	metrics           map[string]metric
	layers            map[string]float64
	samples           int // latency samples behind job_s_p50/p90
	beyondP90         int // samples ranked above p90
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, layers: map[string]float64{}}
}

func (r *report) set(name string, v float64) {
	for _, m := range endToEnd {
		if m.name == name {
			r.metrics[name] = metric{v, m.unit}
			return
		}
	}
	panic("perfbench: unknown metric " + name)
}

func (r *report) note(s string) { r.problems = append(r.problems, s) }

// find records a defect of the program that the run measures as a
// metric rather than counting as a failed check.
func (r *report) find(s string) { r.findings = append(r.findings, s) }

func (r *report) fail(s string) {
	r.broken = true
	r.note(s)
}

// print writes the human-readable table and the environment stamp,
// then the result line.
func (r *report) print(stdout, stderr io.Writer, env map[string]any, trace bool) {
	for i, p := range r.problems {
		if i == 20 {
			fmt.Fprintf(stderr, "... %d more\n", len(r.problems)-i)
			break
		}
		fmt.Fprintln(stderr, "FAIL", p)
	}
	for _, f := range r.findings {
		fmt.Fprintln(stderr, "NOTE", f)
	}
	if trace {
		r.metrics = map[string]metric{}
		for _, l := range layerMetrics {
			r.metrics[l.name] = metric{r.layers[l.name], l.unit}
		}
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "# %-26s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	if !trace {
		fmt.Fprintf(stdout, "# job_s_p50/p90 over %d jobs, %d ranked above p90\n", r.samples, r.beyondP90)
	}
	stamp, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", stamp)
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{!r.broken && r.failed == 0, r.attempted, r.failed, r.metrics})
	fmt.Fprintf(stdout, "%s\n", line)
}

// envStamp identifies what a result was measured with.
func envStamp(cfg config) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// compareOutputs prints new/old for every metric two saved outputs
// share. It refuses (exit 3) when the environments differ in anything
// but the seed, and flags a seed difference loudly.
func compareOutputs(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldEnv, oldRes, err := loadOutput(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	newEnv, newRes, err := loadOutput(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return compareLoaded(oldEnv, newEnv, oldRes, newRes, stdout, stderr)
}

func compareLoaded(oldEnv, newEnv map[string]any, oldRes, newRes map[string]metric, stdout, stderr io.Writer) int {
	refused := false
	for _, k := range []string{"go", "gomaxprocs", "nproc", "cpu", "workload", "trace"} {
		if fmt.Sprint(oldEnv[k]) != fmt.Sprint(newEnv[k]) {
			fmt.Fprintf(stderr, "REFUSED: %s differs: %v vs %v\n", k, oldEnv[k], newEnv[k])
			refused = true
		}
	}
	if refused {
		return 3
	}
	if fmt.Sprint(oldEnv["seed"]) != fmt.Sprint(newEnv["seed"]) {
		fmt.Fprintf(stderr, "WARNING: different seeds (%v vs %v): the inputs differ, compare medians over several seeds\n",
			oldEnv["seed"], newEnv["seed"])
	}
	names := make([]string, 0, len(oldRes))
	for n := range oldRes {
		if _, ok := newRes[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		o, nw := oldRes[n].Value, newRes[n].Value
		ratio := "-"
		if o != 0 {
			ratio = fmt.Sprintf("%.4f", nw/o)
		}
		fmt.Fprintf(stdout, "%-26s %14.6g %14.6g %8s %s\n", n, o, nw, ratio, oldRes[n].Unit)
	}
	return 0
}

// loadOutput reads a saved output: its env stamp and result line.
func loadOutput(path string) (map[string]any, map[string]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var env map[string]any
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "env "); ok {
			if err := json.Unmarshal([]byte(rest), &env); err != nil {
				return nil, nil, fmt.Errorf("%s: env stamp: %w", path, err)
			}
		}
	}
	if env == nil {
		return nil, nil, errors.New(path + ": no env stamp")
	}
	var res struct {
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("%s: result line: %w", path, err)
	}
	return env, res.Metrics, nil
}
