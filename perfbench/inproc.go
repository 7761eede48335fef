package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"ddsim"
	"ddsim/internal/exact"
	"ddsim/internal/stochastic"
)

// inproc is a workload that calls the library in this process:
// structured and dense (SimulateContext, one caller) and sweep
// (BatchSimulate, one caller). All three are closed loops.
type inproc struct {
	name    string
	pool    []*entry
	model   ddsim.NoiseModel // structured, dense: the one noise point
	runs    int              // Theorem-1 trajectories per stochastic point
	workers int
	seed    int64
}

// Theorem-1 accuracy of the workloads' tracked probability at
// confidence 95%. Dense jobs cost tens of µs per gate, so they settle
// for a coarser estimate to keep a run above a hundred jobs.
const (
	structuredEps = 0.1 // 185 trajectories
	denseEps      = 0.2 // 47 trajectories
	jobDelta      = 0.05
)

// newInproc generates the workload's pool from the seed and computes
// every reference answer.
func newInproc(ctx context.Context, name string, cfg config) (*inproc, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &inproc{name: name, model: ddsim.PaperNoise(), workers: cfg.workers, seed: cfg.seed}
	eps := structuredEps
	var fams []family
	switch name {
	case "structured":
		fams = structuredFamilies()
	case "dense":
		fams, eps = denseFamilies(rng), denseEps
	case "sweep":
		fams = sweepFamilies()
	}
	runs, err := ddsim.RequiredRuns(1, eps, jobDelta)
	if err != nil {
		return nil, err
	}
	w.runs = runs
	if name == "sweep" {
		return w, w.addSweeps(ctx, rng, fams, cfg.tiny)
	}
	for _, f := range fams {
		for _, n := range drawSizes(rng, f, cfg.tiny) {
			c := f.build(n)
			src, err := ddsim.WriteQASM(c)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.Name, err)
			}
			ref, err := makeReference(ctx, c, w.model)
			if err != nil {
				return nil, err
			}
			w.pool = append(w.pool, &entry{name: c.Name, qasm: src, qubits: n, ref: ref})
		}
	}
	return w, nil
}

// addSweeps builds one sweep per family and size: the circuit
// with a mid-circuit measurement, and noise points from a generated device —
// calibrated gate noise, crosstalk and idle decay at three scales, a
// twirled point, and one exact ddensity point.
func (w *inproc) addSweeps(ctx context.Context, rng *rand.Rand, fams []family, tiny bool) error {
	devJSON, err := deviceJSON(rng, 6)
	if err != nil {
		return err
	}
	dev, err := ddsim.ParseDevice(devJSON)
	if err != nil {
		return err
	}
	base := ddsim.NoiseModel{
		Device:    dev,
		Crosstalk: &ddsim.Crosstalk{Strength: 0.002 + 0.004*rng.Float64(), ZZBias: 0.5},
		Idle:      &ddsim.IdleNoise{},
	}
	models := []ddsim.NoiseModel{base.Scale(0.5), base, base.Twirl(), base.Scale(2)}
	for _, f := range fams {
		for _, n := range drawSizes(rng, f, tiny) {
			if err := w.addSweep(ctx, f, n, base, models); err != nil {
				return err
			}
		}
	}
	return nil
}

// addSweep adds the sweep of family f at n qubits.
func (w *inproc) addSweep(ctx context.Context, f family, n int, base ddsim.NoiseModel, models []ddsim.NoiseModel) error {
	src, err := withFeedback(f.build(n))
	if err != nil {
		return err
	}
	c, err := ddsim.ParseQASM(f.name, src)
	if err != nil {
		return fmt.Errorf("sweep %s: %w", f.name, err)
	}
	e := &entry{name: fmt.Sprintf("%s_%d", f.name, n), qasm: src, qubits: n}
	for _, m := range models {
		ref, err := makeReference(ctx, c, m)
		if err != nil {
			return err
		}
		e.points = append(e.points, point{model: m, ref: ref})
	}
	// The exact point runs the ddensity representation; its reference
	// is the dense density matrix of the same model.
	e.points = append(e.points, point{model: base, exact: true, ref: e.points[1].ref})
	w.pool = append(w.pool, e)
	return nil
}

// job is one unit of a run: a pool entry and the seed of its
// trajectories. Job k uses run seeds [(k+1)·2^20 + s, … + runs), so no
// two jobs of a run share a trajectory and pooled checks stay valid.
type job struct {
	e    *entry
	seed int64
}

// pass returns the p-th pass over the pool, in a seeded order.
func (w *inproc) pass(p, first int) []job {
	perm := rand.New(rand.NewSource(w.seed*7919 + int64(p))).Perm(len(w.pool))
	out := make([]job, len(perm))
	for i, j := range perm {
		out[i] = job{e: w.pool[j], seed: int64(first+i+1)<<20 + w.seed&(1<<19-1)}
	}
	return out
}

// batch renders a job as the engine's batch: one point for structured
// and dense, one per noise point for a sweep.
func (w *inproc) batch(c *ddsim.Circuit, j job) []ddsim.BatchJob {
	opts := func(track uint64) ddsim.Options {
		return ddsim.Options{Runs: w.runs, Seed: j.seed, Workers: w.workers, TrackStates: []uint64{track}}
	}
	if j.e.points == nil {
		return []ddsim.BatchJob{{Circuit: c, Model: w.model, Opts: opts(j.e.ref.track)}}
	}
	out := make([]ddsim.BatchJob, len(j.e.points))
	for i, p := range j.e.points {
		o := opts(p.ref.track)
		if p.exact {
			o = ddsim.Options{Mode: ddsim.ModeExact, ExactBackend: ddsim.ExactDDensity, TrackStates: []uint64{p.ref.track}}
		}
		out[i] = ddsim.BatchJob{Circuit: c, Model: p.model, Opts: o}
	}
	return out
}

// outcome is what a run keeps of one job.
type outcome struct {
	latency float64 // seconds
	traj    int
	results []*ddsim.Result
	err     error // the job errored or failed its output check
}

// exec runs one job: parse its OpenQASM, simulate, check. backend
// selects the engine; jt, when set, traces the job.
func (w *inproc) exec(ctx context.Context, j job, backend string, jt *jobTrace) outcome {
	start := nanotime()
	c, err := ddsim.ParseQASM(j.e.name, j.e.qasm)
	if jt != nil {
		jt.parse = nanotime() - start
	}
	if err != nil {
		return outcome{latency: seconds(nanotime() - start), err: err}
	}
	jobs := w.batch(c, j)
	var results []*ddsim.Result
	if jt == nil {
		results, err = simulate(ctx, backend, jobs, w.workers)
	} else {
		jt.workers = w.workers
		jt.span.start = nanotime()
		results, err = simulateTraced(ctx, backend, jobs, w.workers, jt)
		jt.span.end = nanotime()
	}
	o := outcome{latency: seconds(nanotime() - start), results: results}
	if err != nil {
		o.err = err
		return o
	}
	o.err = w.check(j, results)
	for _, r := range results {
		if r != nil {
			o.traj += r.Runs
		}
	}
	return o
}

// check holds every result of a job against its reference.
func (w *inproc) check(j job, results []*ddsim.Result) error {
	if j.e.points == nil {
		return checkTracked(results[0], j.e.ref, w.runs)
	}
	var errs []error
	for i, p := range j.e.points {
		r := results[i]
		if !p.exact {
			if err := checkTracked(r, p.ref, w.runs); err != nil {
				errs = append(errs, fmt.Errorf("point %d: %w", i, err))
			}
			continue
		}
		if r == nil || !r.Exact || len(r.TrackedProbs) != 1 || math.Abs(r.TrackedProbs[0]-p.ref.value) > 1e-9 {
			errs = append(errs, fmt.Errorf("exact point: %v, want %.12f", r, p.ref.value))
		}
	}
	return errors.Join(errs...)
}

// simulate is the untraced path: the public entry points.
func simulate(ctx context.Context, backend string, jobs []ddsim.BatchJob, workers int) ([]*ddsim.Result, error) {
	if len(jobs) == 1 {
		r, err := ddsim.SimulateContext(ctx, jobs[0].Circuit, backend, jobs[0].Model, jobs[0].Opts)
		return []*ddsim.Result{r}, err
	}
	return ddsim.BatchSimulate(ctx, backend, jobs, workers)
}

// simulateTraced runs the same jobs through the engines the public
// entry points call, with the backend factory wrapped by the trace:
// SimulateContext is stochastic.RunContext on the backend's factory,
// and BatchSimulate runs the stochastic points on stochastic.RunBatch
// beside the exact points on exact.RunBatch. The run compares the
// results of both paths byte for byte.
func simulateTraced(ctx context.Context, backend string, jobs []ddsim.BatchJob, workers int, jt *jobTrace) ([]*ddsim.Result, error) {
	f, err := ddsim.Factory(backend)
	if err != nil {
		return nil, err
	}
	f = jt.factory(f)
	if len(jobs) == 1 {
		r, err := stochastic.RunContext(ctx, jobs[0].Circuit, f, jobs[0].Model, jobs[0].Opts)
		return []*ddsim.Result{r}, err
	}
	var stochIdx, exactIdx []int
	for i := range jobs {
		if jobs[i].Opts.Mode == ddsim.ModeExact {
			exactIdx = append(exactIdx, i)
		} else {
			stochIdx = append(stochIdx, i)
		}
	}
	pick := func(idx []int) []ddsim.BatchJob {
		out := make([]ddsim.BatchJob, len(idx))
		for k, i := range idx {
			out[k] = jobs[i]
		}
		return out
	}
	results := make([]*ddsim.Result, len(jobs))
	scatter := func(idx []int, sub []*ddsim.Result) {
		for k, i := range idx {
			if k < len(sub) {
				results[i] = sub[k]
			}
		}
	}
	var wg sync.WaitGroup
	var stochErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sub, err := stochastic.RunBatch(ctx, f, pick(stochIdx), workers)
		scatter(stochIdx, sub)
		stochErr = err
	}()
	sub, exactErr := exact.RunBatch(ctx, pick(exactIdx), workers)
	scatter(exactIdx, sub)
	wg.Wait()
	return results, errors.Join(stochErr, exactErr)
}

// canonical renders results for the byte-identity check, without the
// wall-clock field.
func canonical(results []*ddsim.Result) []byte {
	cp := make([]ddsim.Result, 0, len(results))
	for _, r := range results {
		if r != nil {
			c := *r
			c.Elapsed = 0
			cp = append(cp, c)
		}
	}
	b, err := json.Marshal(cp)
	if err != nil {
		return []byte(err.Error())
	}
	return b
}

// frame renders the parts of results that no trajectory's arithmetic
// touches: everything but the sampled estimates of the stochastic
// results and the wall-clock field. Exact results are kept whole.
func frame(results []*ddsim.Result) []byte {
	cp := make([]*ddsim.Result, 0, len(results))
	for _, r := range results {
		if r != nil && !r.Exact {
			c := *r
			c.Counts, c.ClassicalCounts, c.TrackedProbs, c.MeanFidelity = nil, nil, nil, 0
			r = &c
		}
		cp = append(cp, r)
	}
	return canonical(cp)
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
