package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ddsim"
)

func TestPercentileAndSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	for _, c := range []struct {
		p            float64
		want         float64
		beyond       int
		reportableAt bool
	}{
		{0.5, 50, 50, true},
		{0.9, 90, 10, true},
		{0.99, 99, 1, false},
		{1, 100, 0, false},
	} {
		v, beyond := percentile(xs, c.p)
		if v != c.want || beyond != c.beyond || (beyond >= 10) != c.reportableAt {
			t.Errorf("p%v = %v (%d beyond), want %v (%d beyond)", c.p, v, beyond, c.want, c.beyond)
		}
	}
	// 99 samples leave only 9 above p90: too few to report it as such.
	if _, beyond := percentile(xs[:99], 0.9); beyond != 9 {
		t.Errorf("p90 of 99 samples: %d beyond, want 9", beyond)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// unionLen is the reference: the length of the union of spans.
func unionLen(spans []span) int64 {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total, curS, curE int64
	open := false
	for _, x := range s {
		switch {
		case !open:
			curS, curE, open = x.start, x.end, true
		case x.start <= curE:
			curE = max(curE, x.end)
		default:
			total += curE - curS
			curS, curE = x.start, x.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// feed replays spans into a unionClock as start/end events in time
// order, the way overlapping workers report them.
func feed(spans []span) int64 {
	type ev struct {
		t     int64
		start bool
	}
	var evs []ev
	for _, s := range spans {
		evs = append(evs, ev{s.start, true}, ev{s.end, false})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].start && !evs[j].start // touching spans stay joined
	})
	var u unionClock
	for _, e := range evs {
		if e.start {
			u.enter(e.t)
		} else {
			u.exit(e.t)
		}
	}
	return u.covered()
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// A 40-unit job whose two workers' backend spans overlap: the
	// backend covers [0,15] ∪ [20,30] = 25 units, so self time is 15,
	// not 40 − (10+10+10) = 10.
	job := span{0, 40}
	children := []span{{0, 10}, {5, 15}, {20, 30}}
	if got := feed(children); got != 25 {
		t.Fatalf("union = %d, want 25", got)
	}
	if self := (job.end - job.start) - feed(children); self != 15 {
		t.Fatalf("self = %d, want 15", self)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var spans []span
		for i := 0; i < 1+rng.Intn(20); i++ {
			s := int64(rng.Intn(1000))
			spans = append(spans, span{s, s + int64(rng.Intn(100))})
		}
		if got, want := feed(spans), unionLen(spans); got != want {
			t.Fatalf("trial %d: union clock %d, reference %d for %v", trial, got, want, spans)
		}
	}
}

func TestWrapperKeepsCapabilities(t *testing.T) {
	c := ddsim.GHZ(4)
	for _, name := range ddsim.Backends() {
		b, err := ddsim.NewBackend(c, name)
		if err != nil {
			t.Fatal(err)
		}
		jt := &jobTrace{}
		w, err := wrapBackend(b, &instRec{job: jt})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := capsOf(w), capsOf(b); got != want {
			t.Errorf("%s: wrapper capabilities %05b, backend %05b", name, got, want)
		}
	}
}

// With one worker the engine is deterministic, so any difference
// between the traced and untraced results is the wrapper's.
func TestTracedResultsIdentical(t *testing.T) {
	ctx := context.Background()
	for _, backend := range ddsim.Backends() {
		c := ddsim.QFT(5)
		jobs := []ddsim.BatchJob{{Circuit: c, Model: ddsim.PaperNoise(),
			Opts: ddsim.Options{Runs: 200, Seed: 3, Workers: 1, TrackStates: []uint64{0}, TrackFidelity: backend != ddsim.BackendSparse}}}
		plainRes, err := simulate(ctx, backend, jobs, 1)
		if err != nil {
			t.Fatal(err)
		}
		jt := &jobTrace{workers: 1}
		tracedRes, err := simulateTraced(ctx, backend, jobs, 1, jt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonical(plainRes), canonical(tracedRes)) {
			t.Errorf("%s: traced results differ:\n%s\n%s", backend, canonical(plainRes), canonical(tracedRes))
		}
		if plainRes[0].Checkpointed != (backend != ddsim.BackendSparse) {
			t.Errorf("%s: checkpointed=%v", backend, plainRes[0].Checkpointed)
		}
		if len(jt.factories) != 1 || jt.insts[0].n[kGate] == 0 {
			t.Errorf("%s: trace recorded %d factory calls, %d gates", backend, len(jt.factories), jt.insts[0].n[kGate])
		}
	}
}

// Two runs that differ only in their sampled estimates are counted as
// unrepeatable; a difference in what the engine decides up front
// (here the Checkpointed flag) fails the check.
func TestCompareRuns(t *testing.T) {
	res := func(p float64, ckpt bool) outcome {
		return outcome{results: []*ddsim.Result{{Runs: 10, TrackedProbs: []float64{p}, Checkpointed: ckpt}}}
	}
	jobs := []job{{e: &entry{name: "a"}}, {e: &entry{name: "b"}}}
	rep := newReport()
	frac := compareRuns(rep, "t", jobs, []outcome{res(0.5, true), res(0.5, true)}, []outcome{res(0.5, true), res(0.25, true)})
	if frac != 0.5 || rep.broken || len(rep.findings) != 1 {
		t.Errorf("estimates differ: frac %v, broken %v, findings %v", frac, rep.broken, rep.findings)
	}
	rep = newReport()
	if compareRuns(rep, "t", jobs[:1], []outcome{res(0.5, true)}, []outcome{res(0.5, false)}); !rep.broken {
		t.Error("a different Checkpointed flag passed")
	}
}

// TestSmoke runs every workload at its smallest sizes, untraced and
// traced, and checks the result line's shape and metric set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ddsimd and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ddsimd")
	if out, err := exec.Command("go", "build", "-o", bin, "ddsim/cmd/ddsimd").CombinedOutput(); err != nil {
		t.Fatalf("build ddsimd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 2, minJobs: 4, setupReps: 1, workers: 1, tiny: true,
				trace: trace, ddsimd: bin, workdir: filepath.Join(dir, "work")}
			rep, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			var out, errs bytes.Buffer
			rep.print(&out, &errs, envStamp(cfg), trace)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: result line: %v", w, err)
			}
			var keys []string
			for k := range res {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
				t.Errorf("%s: result keys %v", w, keys)
			}
			var metrics map[string]metric
			if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			want := len(endToEnd)
			if trace {
				want = len(layerMetrics)
			}
			if len(metrics) != want || rep.attempted < cfg.minJobs || rep.failed > 0 || rep.broken {
				t.Errorf("%s trace=%v: %d metrics (want %d), %d attempted, %d failed, problems %v",
					w, trace, len(metrics), want, rep.attempted, rep.failed, rep.problems)
			}
		}
	}
	if left, _ := os.ReadDir(filepath.Join(dir, "work")); len(left) != 0 {
		t.Errorf("service left %d data dirs behind", len(left))
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var b struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, program has %d", len(b.EndToEnd), len(endToEnd))
	}
	e2e := map[string]bool{}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		e2e[m.Name] = true
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, program has %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		l := layerMetrics[i]
		if m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, program %+v", i, m, l)
		}
		// Every arrow names an end-to-end metric and a workload, or
		// says it should move none.
		named := strings.HasPrefix(l.moves, "none")
		for name := range e2e {
			named = named || strings.Contains(l.moves, name)
		}
		if !named {
			t.Errorf("%s: arrow %q names no end-to-end metric", l.name, l.moves)
		}
	}
}

func TestCompareRefusesDifferentEnvironments(t *testing.T) {
	env := func(nproc int, seed int64) map[string]any {
		return map[string]any{"go": "go1.24.0", "gomaxprocs": nproc, "nproc": nproc, "cpu": "x", "workload": "dense", "seed": seed, "trace": false}
	}
	res := map[string]metric{"job_s_p50": {1, "s"}}
	var out, errs bytes.Buffer
	if code := compareLoaded(env(1, 1), env(2, 1), res, res, &out, &errs); code != 3 || !strings.Contains(errs.String(), "REFUSED") {
		t.Errorf("different core counts: exit %d, stderr %q", code, errs.String())
	}
	errs.Reset()
	if code := compareLoaded(env(2, 1), env(2, 5), res, res, &out, &errs); code != 0 || !strings.Contains(errs.String(), "WARNING") {
		t.Errorf("different seeds: exit %d, stderr %q", code, errs.String())
	}
}
