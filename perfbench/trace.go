package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/dd"
	"ddsim/internal/sim"
)

// epoch anchors the benchmark's monotonic clock.
var epoch = time.Now()

// nanotime is monotonic nanoseconds since the benchmark started.
func nanotime() int64 { return int64(time.Since(epoch)) }

// span is one closed interval of the benchmark's clock.
type span struct{ start, end int64 }

// callKind groups backend methods into the layers the trace reports.
type callKind int

const (
	kGate    callKind = iota // ApplyOp
	kNoise                   // ApplyPauli, ApplyDamping, ApplyKraus2
	kMeasure                 // ProbOne, Collapse (noise events that read P(1) land here too)
	kSample                  // SampleBasis, Probability, FidelityTo
	kFork                    // Reset, Snapshot, Restore
	kOther                   // Norm2, StateCost, TableStats, Release
	nKinds
)

// jobTrace is the trace of one job. The job span, its parse time and
// every factory span are kept individually; calls into the backends
// are aggregated per backend instance (instRec) and folded into a
// union clock, so the trace of a job stays a few hundred bytes however
// many gates it applies.
type jobTrace struct {
	span    span
	parse   int64
	workers int
	// backend is the union of every factory and backend-method span
	// of the job, over all workers.
	backend unionClock

	mu        sync.Mutex
	factories []span
	insts     []*instRec
}

// instRec aggregates the calls into one backend instance. An instance
// belongs to one engine worker at a time, so its counters need no lock;
// they are read after the job has returned.
type instRec struct {
	job        *jobTrace
	born, last int64 // factory start; end of the latest call
	n, t       [nKinds]int64

	// Table statistics read just before Release.
	released bool
	tables   sim.TableStats
	weights  int
	cnumHit  float64
}

func (r *instRec) enter() int64 {
	now := nanotime()
	r.job.backend.enter(now)
	return now
}

func (r *instRec) exit(k callKind, start int64) {
	now := nanotime()
	r.job.backend.exit(now)
	r.n[k]++
	r.t[k] += now - start
	r.last = now
}

// factory wraps f so that every backend it builds reports into jt.
func (jt *jobTrace) factory(f sim.Factory) sim.Factory {
	return func(c *circuit.Circuit) (sim.Backend, error) {
		start := nanotime()
		jt.backend.enter(start)
		b, err := f(c)
		end := nanotime()
		jt.backend.exit(end)
		rec := &instRec{job: jt, born: start, last: end}
		jt.mu.Lock()
		jt.factories = append(jt.factories, span{start, end})
		if err == nil {
			jt.insts = append(jt.insts, rec)
		}
		jt.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return wrapBackend(b, rec)
	}
}

// capSet is the set of optional sim capabilities a backend implements.
type capSet uint8

const (
	capFork capSet = 1 << iota
	capSnap
	capRelease
	capTables
	capSize
)

func capsOf(b sim.Backend) capSet {
	var c capSet
	if _, ok := b.(sim.Forker); ok {
		c |= capFork
	}
	if _, ok := b.(sim.Snapshotter); ok {
		c |= capSnap
	}
	if _, ok := b.(sim.Releaser); ok {
		c |= capRelease
	}
	if _, ok := b.(sim.TableStatser); ok {
		c |= capTables
	}
	if _, ok := b.(sim.StateSizer); ok {
		c |= capSize
	}
	return c
}

// wrapBackend returns a traced backend with exactly the optional
// capabilities of b, so the engine checkpoints, pools and reports
// tables through the wrapper just as it does without it. The three
// capability sets of the repository's backends (dd: all five;
// statevec: fork, snapshot and size; sparse: none) have a wrapper; any
// other set is an error rather than a silently different program.
func wrapBackend(b sim.Backend, rec *instRec) (sim.Backend, error) {
	t := &tracedBackend{b: b, rec: rec}
	switch caps := capsOf(b); caps {
	case capFork | capSnap | capRelease | capTables | capSize:
		return struct {
			*tracedBackend
			snapshotM
			restoreM
			fidelityM
			stateCostM
			releaseM
			tableStatsM
		}{t, snapshotM{t}, restoreM{t}, fidelityM{t}, stateCostM{t}, releaseM{t}, tableStatsM{t}}, nil
	case capFork | capSnap | capSize:
		return struct {
			*tracedBackend
			snapshotM
			restoreM
			fidelityM
			stateCostM
		}{t, snapshotM{t}, restoreM{t}, fidelityM{t}, stateCostM{t}}, nil
	case 0:
		return t, nil
	default:
		return nil, fmt.Errorf("perfbench: no traced wrapper for backend %q with capability set %05b", b.Name(), caps)
	}
}

// tracedBackend times every sim.Backend method of the wrapped backend.
type tracedBackend struct {
	b   sim.Backend
	rec *instRec
}

func (t *tracedBackend) Name() string   { return t.b.Name() }
func (t *tracedBackend) NumQubits() int { return t.b.NumQubits() }

func (t *tracedBackend) Reset() {
	s := t.rec.enter()
	t.b.Reset()
	t.rec.exit(kFork, s)
}

func (t *tracedBackend) ApplyOp(i int) {
	s := t.rec.enter()
	t.b.ApplyOp(i)
	t.rec.exit(kGate, s)
}

func (t *tracedBackend) ApplyPauli(p sim.Pauli, qubit int) {
	s := t.rec.enter()
	t.b.ApplyPauli(p, qubit)
	t.rec.exit(kNoise, s)
}

func (t *tracedBackend) ProbOne(qubit int) float64 {
	s := t.rec.enter()
	v := t.b.ProbOne(qubit)
	t.rec.exit(kMeasure, s)
	return v
}

func (t *tracedBackend) Collapse(qubit, outcome int, prob float64) {
	s := t.rec.enter()
	t.b.Collapse(qubit, outcome, prob)
	t.rec.exit(kMeasure, s)
}

func (t *tracedBackend) ApplyDamping(qubit int, p float64, fire bool, branchProb float64) {
	s := t.rec.enter()
	t.b.ApplyDamping(qubit, p, fire, branchProb)
	t.rec.exit(kNoise, s)
}

func (t *tracedBackend) ApplyKraus2(q0, q1 int, k [4][4]complex128, branchProb float64) {
	s := t.rec.enter()
	t.b.ApplyKraus2(q0, q1, k, branchProb)
	t.rec.exit(kNoise, s)
}

func (t *tracedBackend) SampleBasis(rng *rand.Rand) uint64 {
	s := t.rec.enter()
	v := t.b.SampleBasis(rng)
	t.rec.exit(kSample, s)
	return v
}

func (t *tracedBackend) Probability(idx uint64) float64 {
	s := t.rec.enter()
	v := t.b.Probability(idx)
	t.rec.exit(kSample, s)
	return v
}

func (t *tracedBackend) Norm2() float64 {
	s := t.rec.enter()
	v := t.b.Norm2()
	t.rec.exit(kOther, s)
	return v
}

// The optional capabilities, one embeddable method each.

type snapshotM struct{ t *tracedBackend }

// Snapshot serves both sim.Forker and sim.Snapshotter.
func (m snapshotM) Snapshot() sim.State {
	s := m.t.rec.enter()
	v := m.t.b.(interface{ Snapshot() sim.State }).Snapshot()
	m.t.rec.exit(kFork, s)
	return v
}

type restoreM struct{ t *tracedBackend }

func (m restoreM) Restore(st sim.State) {
	s := m.t.rec.enter()
	m.t.b.(sim.Forker).Restore(st)
	m.t.rec.exit(kFork, s)
}

type fidelityM struct{ t *tracedBackend }

func (m fidelityM) FidelityTo(snap sim.Snapshot) float64 {
	s := m.t.rec.enter()
	v := m.t.b.(sim.Snapshotter).FidelityTo(snap)
	m.t.rec.exit(kSample, s)
	return v
}

type stateCostM struct{ t *tracedBackend }

func (m stateCostM) StateCost(st sim.State) (nodes, bytes int64) {
	s := m.t.rec.enter()
	nodes, bytes = m.t.b.(sim.StateSizer).StateCost(st)
	m.t.rec.exit(kOther, s)
	return nodes, bytes
}

type tableStatsM struct{ t *tracedBackend }

func (m tableStatsM) TableStats() sim.TableStats {
	s := m.t.rec.enter()
	v := m.t.b.(sim.TableStatser).TableStats()
	m.t.rec.exit(kOther, s)
	return v
}

type releaseM struct{ t *tracedBackend }

// Release records the instance's final table statistics through the
// backend's public accessors, then retires it.
func (m releaseM) Release() {
	r, b := m.t.rec, m.t.b
	if !r.released {
		r.released = true
		if ts, ok := b.(sim.TableStatser); ok {
			r.tables = ts.TableStats()
		}
		if p, ok := b.(interface{ Package() *dd.Package }); ok {
			r.weights = p.Package().Stats().Weights
			r.cnumHit = p.Package().W.HitRate()
		}
	}
	s := r.enter()
	b.(sim.Releaser).Release()
	r.exit(kOther, s)
}
