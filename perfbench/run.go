package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"ddsim"
	"ddsim/internal/telemetry"
)

// epochSteal is the steal time when the benchmark started.
var epochSteal = stolen()

// setUp runs a workload's set-up reps times and returns the last
// result with the median set-up time. The first repetition is timed
// from the benchmark's start; later ones find the kernel pools warm.
func setUp[T any](ctx context.Context, reps int, build func(context.Context) (T, error)) (T, float64, error) {
	var w T
	var times []float64
	for i := 0; i < reps; i++ {
		win := startWindow()
		if i == 0 {
			win = window{0, epochSteal}
		}
		var err error
		if w, err = build(ctx); err != nil {
			return w, 0, err
		}
		wall, f := win.elapsed()
		times = append(times, wall*f)
	}
	return w, median(times), nil
}

// runInproc runs the structured, dense or sweep workload.
func runInproc(ctx context.Context, name string, cfg config) (*report, error) {
	w, setup, err := setUp(ctx, cfg.setupReps, func(ctx context.Context) (*inproc, error) {
		w, err := newInproc(ctx, name, cfg)
		if err != nil {
			return nil, err
		}
		// Warm-up: the largest circuit fills the kernel pools. Its
		// run seeds [0, runs) are disjoint from every timed job's.
		big := w.pool[0]
		for _, e := range w.pool {
			if e.qubits > big.qubits {
				big = e
			}
		}
		if o := w.exec(ctx, job{e: big}, ddsim.BackendDD, nil); o.err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", big.name, o.err)
		}
		return w, nil
	})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if !cfg.trace {
		rss := sampleRSS("self")
		win := startWindow()
		jobs, outs, err := w.loop(ctx, cfg.seconds, cfg.minJobs)
		wall, f := win.elapsed()
		rssMB := rss.median()
		if err != nil {
			return nil, err
		}
		rep.tally(w.name, jobs, outs)
		rep.endToEnd(setup, outs, wall, f, rssMB)
		return rep, nil
	}

	// Traced run: an untraced pass, then the same jobs traced.
	win := startWindow()
	jobs, outsA, err := w.loop(ctx, cfg.seconds/2, cfg.minJobs/2)
	_, fA := win.elapsed()
	if err != nil {
		return nil, err
	}
	before := readCounters()
	win = startWindow()
	traces := make([]*jobTrace, len(jobs))
	outsB := make([]outcome, len(jobs))
	for i, j := range jobs {
		traces[i] = &jobTrace{}
		outsB[i] = w.exec(ctx, j, ddsim.BackendDD, traces[i])
	}
	_, fB := win.elapsed()
	after := readCounters()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.tally(w.name, jobs, outsA)
	rep.tally(w.name, jobs, outsB)
	m := rep.layers
	m["stochastic.unrepeatable_frac"] = compareRuns(rep, w.name, jobs, outsA, outsB)
	traceLayers(m, traces, before, after)
	m["trace.overhead_frac"] = p50(outsB)*fB/(p50(outsA)*fA) - 1
	var exactS, exactN float64
	for _, o := range outsB {
		for _, r := range o.results {
			if r != nil && r.Exact {
				exactS += r.Elapsed.Seconds()
				exactN++
			}
		}
	}
	if exactN > 0 {
		m["exact.job_s"] = exactS / exactN
		m["exact.peak_dd_nodes"] = float64(telemetry.ExactDDNodes.Value())
	}
	if name == "dense" {
		// The same jobs on the dense state-vector backend.
		outsC := make([]outcome, len(jobs))
		for i, j := range jobs {
			outsC[i] = w.exec(ctx, j, ddsim.BackendStatevector, nil)
		}
		rep.tally(w.name+"/statevec", jobs, outsC)
		m["statevec.job_s"] = mean(outsC)
	}
	// With one worker the engine is reproducible, so there the traced
	// results must equal the untraced ones byte for byte: one pass over
	// the pool.
	one := *w
	one.workers = 1
	for i, j := range jobs[:min(len(jobs), len(w.pool))] {
		a := one.exec(ctx, j, ddsim.BackendDD, nil)
		b := one.exec(ctx, j, ddsim.BackendDD, &jobTrace{})
		switch {
		case a.err != nil || b.err != nil:
			rep.fail(fmt.Sprintf("job %d (%s) with one worker: %v", i, j.e.name, errors.Join(a.err, b.err)))
		case !bytes.Equal(canonical(a.results), canonical(b.results)):
			rep.fail(fmt.Sprintf("job %d (%s): traced results differ from untraced with one worker", i, j.e.name))
		}
	}
	return rep, nil
}

// loop runs whole passes over the pool until secs have passed and at
// least minJobs jobs have run. Stopping only between passes keeps the
// job mix of every run identical to the pool's.
func (w *inproc) loop(ctx context.Context, secs float64, minJobs int) ([]job, []outcome, error) {
	var jobs []job
	var outs []outcome
	start := nanotime()
	for p := 0; seconds(nanotime()-start) < secs || len(outs) < minJobs; p++ {
		for _, j := range w.pass(p, len(jobs)) {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			jobs = append(jobs, j)
			outs = append(outs, w.exec(ctx, j, ddsim.BackendDD, nil))
		}
	}
	return jobs, outs, nil
}

// tally counts a pass's jobs into the report and runs the pooled
// checks: per pool entry (and sweep point), all the pass's estimates
// together against the reference.
func (r *report) tally(label string, jobs []job, outs []outcome) {
	type key struct {
		e *entry
		i int
	}
	pool := map[key]*pooled{}
	get := func(k key, ref reference) *pooled {
		p := pool[k]
		if p == nil {
			p = &pooled{ref: ref}
			pool[k] = p
		}
		return p
	}
	for i, o := range outs {
		r.attempted++
		if o.err != nil {
			r.failed++
			r.note(fmt.Sprintf("%s job %d (%s): %v", label, i, jobs[i].e.name, o.err))
			continue
		}
		e := jobs[i].e
		if e.points == nil {
			get(key{e, -1}, e.ref).add(o.results[0])
			continue
		}
		for pi, pt := range e.points {
			if !pt.exact {
				get(key{e, pi}, pt.ref).add(o.results[pi])
			}
		}
	}
	for k, p := range pool {
		if err := p.check(); err != nil {
			r.fail(fmt.Sprintf("%s pooled %s point %d: %v", label, k.e.name, k.i, err))
		}
	}
}

// compareRuns holds two runs of the same jobs at the same worker count
// against each other and returns the share of jobs whose results
// differ. The engine promises bit-identical results for a seed
// whatever the scheduling, but with more than one worker a chunk's
// arithmetic can depend on which chunks its worker's backend ran
// before, so the estimates may differ in the last bits, or by a whole
// trajectory where a branch flips. That share is a measured defect of
// the program. What the engine decides before any trajectory runs
// (see frame) must agree, or the check fails.
func compareRuns(rep *report, label string, jobs []job, a, b []outcome) float64 {
	differ := 0
	for i := range jobs {
		switch {
		case a[i].err != nil || b[i].err != nil:
			// Counted by tally.
		case !bytes.Equal(frame(a[i].results), frame(b[i].results)):
			rep.fail(fmt.Sprintf("%s job %d (%s): run counts, checkpointing or exact results differ between two runs", label, i, jobs[i].e.name))
		case !bytes.Equal(canonical(a[i].results), canonical(b[i].results)):
			differ++
		}
	}
	if differ > 0 {
		rep.find(fmt.Sprintf("%s: %d of %d jobs gave different estimates in two runs of the same seed", label, differ, len(jobs)))
	}
	return float64(differ) / float64(max(1, len(jobs)))
}

// endToEnd fills the end-to-end metrics of an untraced run whose timed
// part took wall seconds, of which the share f was free of steal time
// (see window); every latency is scaled by f.
func (r *report) endToEnd(setup float64, outs []outcome, wall, f, rssMB float64) {
	lats := make([]float64, len(outs))
	traj := 0
	for i, o := range outs {
		lats[i] = o.latency * f
		traj += o.traj
	}
	wall *= f
	v50, _ := percentile(lats, 0.5)
	v90, beyond := percentile(lats, 0.9)
	r.set("setup_s", setup)
	r.set("job_s_p50", v50)
	r.set("job_s_p90", v90)
	r.set("traj_per_s", float64(traj)/wall)
	r.set("jobs_per_s", float64(len(outs))/wall)
	r.set("peak_rss_mb", rssMB)
	r.set("ok_frac", 1-float64(r.failed)/float64(max(1, r.attempted)))
	r.samples = len(lats)
	r.beyondP90 = beyond
}

func p50(outs []outcome) float64 {
	lats := make([]float64, len(outs))
	for i, o := range outs {
		lats[i] = o.latency
	}
	v, _ := percentile(lats, 0.5)
	return v
}

func mean(outs []outcome) float64 {
	s := 0.0
	for _, o := range outs {
		s += o.latency
	}
	return s / float64(max(1, len(outs)))
}

// vmHWM reads the peak resident set size, in MiB, of a process from
// /proc ("self" for this one).
func vmHWM(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var kb float64
		if _, err := fmt.Sscanf(string(line), "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// rssSampler measures peak_rss_mb: the median, over the one-second
// windows of a run, of a process's peak resident set size within the
// window. Writing 5 to /proc/<pid>/clear_refs restarts the peak at each
// window; where that is refused, the process's lifetime peak is used.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	reset := func() bool { return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0) == nil }
	go func() {
		var peaks []float64
		resettable := reset()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if resettable {
					peaks = append(peaks, vmHWM(pid))
					reset()
				}
			case <-s.stop:
				if len(peaks) == 0 || !resettable {
					peaks = append(peaks, vmHWM(pid))
				}
				s.done <- peaks
				return
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median window peak in MiB.
func (s *rssSampler) median() float64 {
	close(s.stop)
	return median(<-s.done)
}
