package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"ddsim"
	"ddsim/internal/circuit"
	"ddsim/internal/qbench"
)

// family is a circuit generator, the qubit range a workload draws its
// sizes from, and how many sizes it draws.
type family struct {
	name   string
	lo, hi int
	build  func(n int) *ddsim.Circuit
	sizes  int
}

func fromBench(f func(int) qbench.Benchmark) func(int) *ddsim.Circuit {
	return func(n int) *ddsim.Circuit { return f(n).Circuit }
}

// The pools of the in-process workloads hold 25, 25 and 15 circuits. A
// pass runs every circuit once, so a run's latencies form one cluster
// per circuit, each a 1/P share of the jobs; with P ≡ 5 (mod 10) the
// ranks of p50 and p90 fall in the middle of a cluster rather than on
// the edge between two, where noise would flip the percentile between
// two circuits' costs.

// The DD-win families of the paper's Table Ic plus the extended set.
// The multiplier family is absent: its multi-controlled X gates have
// more controls than OpenQASM 2.0 can express, and every job here is
// submitted as OpenQASM text.
func structuredFamilies() []family {
	return []family{
		{"ghz", 9, 64, fromBench(qbench.GHZ), 3},
		{"qft", 9, 20, fromBench(qbench.QFT), 3},
		{"bigadder", 10, 64, fromBench(qbench.BigAdder), 3},
		{"bv", 9, 40, fromBench(qbench.BV), 3},
		{"seca", 11, 16, fromBench(qbench.SECA), 3},
		{"sat", 9, 10, fromBench(qbench.SAT), 2},
		{"wstate", 9, 40, fromBench(qbench.WState), 3},
		{"dj", 9, 40, fromBench(qbench.DeutschJozsa), 3},
		{"qpe", 9, 12, fromBench(qbench.QPE), 2},
	}
}

// layered adapts a depth-parameterised generator: the depth is chosen
// so the circuit has about ops operations.
func layered(f func(n, depth int) qbench.Benchmark, ops int) func(int) *ddsim.Circuit {
	return func(n int) *ddsim.Circuit {
		one, two := len(f(n, 1).Circuit.Ops), len(f(n, 2).Circuit.Ops)
		per := two - one
		depth := max(1, int(math.Round(float64(ops-(one-per))/float64(per))))
		return f(n, depth).Circuit
	}
}

// The DD-loss families: VQE-UCCSD, basis-Trotter, Ising and QAOA at
// about 120 operations, and cc (the paper's third Table Ic loss, at its
// own depth) to make 25 circuits. Amplitudes become generic after a few
// layers. The seed draws every rotation angle (the generator's angle
// plus up to ±0.05 rad): generic angles give the same diagram sizes, so
// job costs, and with them the latency percentiles, barely move between
// seeds while the inputs differ.
func denseFamilies(rng *rand.Rand) []family {
	jitter := func(build func(int) *ddsim.Circuit) func(int) *ddsim.Circuit {
		return func(n int) *ddsim.Circuit {
			c := build(n)
			for i := range c.Ops {
				for k := range c.Ops[i].Params {
					c.Ops[i].Params[k] += 0.1 * (rng.Float64() - 0.5)
				}
			}
			return c
		}
	}
	return []family{
		{"vqe_uccsd", 4, 8, jitter(layered(qbench.VQEUCCSD, 120)), 5},
		{"basis_trotter", 4, 8, jitter(layered(qbench.BasisTrotter, 120)), 5},
		{"ising", 4, 8, jitter(layered(qbench.Ising, 120)), 5},
		{"qaoa", 4, 8, jitter(layered(qbench.QAOAMaxCut, 120)), 5},
		{"cc", 4, 8, jitter(fromBench(qbench.CC)), 5},
	}
}

// Small circuits for the noise sweeps; a mid-circuit measurement is
// spliced into each (see withFeedback). The exact ddensity point of a
// sweep costs up to 0.4 s at five qubits and grows about fourfold per
// qubit, so the sweeps stay at three to five.
func sweepFamilies() []family {
	return []family{
		{"ghz", 3, 5, fromBench(qbench.GHZ), 3},
		{"qft", 3, 5, fromBench(qbench.QFT), 3},
		{"wstate", 3, 5, fromBench(qbench.WState), 3},
		{"qaoa", 3, 5, func(n int) *ddsim.Circuit { return qbench.QAOAMaxCut(n, 1).Circuit }, 3},
		{"ising", 3, 5, func(n int) *ddsim.Circuit { return qbench.Ising(n, 2).Circuit }, 3},
	}
}

// Small structured jobs for the service.
func serviceFamilies() []family {
	return []family{
		{"ghz", 6, 16, fromBench(qbench.GHZ), 3},
		{"qft", 6, 12, fromBench(qbench.QFT), 3},
		{"bigadder", 7, 16, fromBench(qbench.BigAdder), 3},
		{"bv", 6, 16, fromBench(qbench.BV), 3},
		{"seca", 11, 16, fromBench(qbench.SECA), 3},
		{"wstate", 6, 16, fromBench(qbench.WState), 3},
		{"dj", 6, 16, fromBench(qbench.DeutschJozsa), 3},
		{"qpe", 6, 10, fromBench(qbench.QPE), 3},
	}
}

// drawSizes picks f.sizes qubit counts, one near the centre of each of
// as many equal strata of f's range: the seed moves a size by at most
// an eighth of a stratum. Every seed thus covers the whole range with
// nearly the same mix of job costs, so the latency percentiles of two
// seeds differ little while their inputs still differ. tiny keeps only
// the smallest size (smoke tests).
func drawSizes(rng *rand.Rand, f family, tiny bool) []int {
	if tiny {
		return []int{f.lo}
	}
	k := f.sizes
	width := float64(f.hi - f.lo)
	out := make([]int, k)
	for i := range out {
		centre := float64(f.lo) + (float64(i)+0.5)*width/float64(k)
		jitter := (2*rng.Float64() - 1) * width / float64(8*k)
		out[i] = min(f.hi, max(f.lo, int(math.Round(centre+jitter))))
	}
	return out
}

// entry is one circuit of a workload's pool, with its reference answer.
type entry struct {
	name   string
	qasm   string
	qubits int
	ref    reference
	// sweep only: the noise points of one BatchSimulate call, and a
	// reference per stochastic point.
	points []point
}

// point is one noise point of a sweep.
type point struct {
	model ddsim.NoiseModel
	exact bool // a ModeExact ddensity point
	ref   reference
}

// reference is what a job's tracked probability is checked against:
// the exact ensemble probability of basis state track, or — for
// registers the exact engine does not handle within the set-up budget —
// a lower bound on it derived from the noise rates.
type reference struct {
	track uint64
	exact bool
	value float64
}

// checkDelta is the per-job failure probability of the output check.
// At 1e-9 a correct program fails a check about once per billion jobs,
// far below one spurious failure over every run of an evaluation.
const checkDelta = 1e-9

// exactOK reports whether a circuit's reference comes from the exact
// engine: small registers with at most two measurements keep the dense
// density-matrix pass (and its outcome branching) within milliseconds.
func exactOK(c *ddsim.Circuit) bool {
	return c.NumQubits <= 8 && measurements(c) <= 2
}

func measurements(c *ddsim.Circuit) int {
	n := 0
	for i := range c.Ops {
		if c.Ops[i].Kind == circuit.KindMeasure {
			n++
		}
	}
	return n
}

// makeReference computes the reference of circuit c under model.
func makeReference(ctx context.Context, c *ddsim.Circuit, model ddsim.NoiseModel) (reference, error) {
	if exactOK(c) {
		res, err := ddsim.SimulateContext(ctx, c, ddsim.BackendDD, model,
			ddsim.Options{Mode: ddsim.ModeExact, ExactBackend: ddsim.ExactDensity})
		if err != nil {
			return reference{}, fmt.Errorf("reference %s: %w", c.Name, err)
		}
		best := 0
		for i, p := range res.Probabilities {
			if p > res.Probabilities[best] {
				best = i
			}
		}
		return reference{track: uint64(best), exact: true, value: res.Probabilities[best]}, nil
	}
	if model.Extended() {
		return reference{}, fmt.Errorf("reference %s: no lower bound for extended noise", c.Name)
	}
	track, ideal, err := idealPeak(ctx, c)
	if err != nil {
		return reference{}, err
	}
	return reference{track: track, value: ideal * noErrorProb(c, model)}, nil
}

// idealPeak finds the most likely basis state of the noise-free output
// and its probability. Two passes with different seeds must agree: the
// bound is only valid when mid-circuit measurements (BV, DJ, QPE) have
// deterministic outcomes.
func idealPeak(ctx context.Context, c *ddsim.Circuit) (uint64, float64, error) {
	res, err := ddsim.SimulateContext(ctx, c, ddsim.BackendDD, ddsim.NoNoise(),
		ddsim.Options{Runs: 1, Shots: 32, Seed: 7, Workers: 1})
	if err != nil {
		return 0, 0, fmt.Errorf("reference %s: %w", c.Name, err)
	}
	var track uint64
	for idx, n := range res.Counts {
		if n > res.Counts[track] || (n == res.Counts[track] && idx < track) {
			track = idx
		}
	}
	var p [2]float64
	for i, seed := range []int64{11, 12} {
		r, err := ddsim.SimulateContext(ctx, c, ddsim.BackendDD, ddsim.NoNoise(),
			ddsim.Options{Runs: 1, Seed: seed, Workers: 1, TrackStates: []uint64{track}})
		if err != nil {
			return 0, 0, fmt.Errorf("reference %s: %w", c.Name, err)
		}
		p[i] = r.TrackedProbs[0]
	}
	if math.Abs(p[0]-p[1]) > 1e-9 {
		return 0, 0, fmt.Errorf("reference %s: noise-free outcome is random (%g vs %g)", c.Name, p[0], p[1])
	}
	return track, p[0], nil
}

// noErrorProb is the probability that no error event fires in a
// trajectory under a uniform model: per touched qubit of every gate, a
// non-identity depolarising Pauli (3p/4), a damping event, or a phase
// flip. A trajectory without an event ends in the noise-free state, so
// the noisy tracked probability is at least this times the ideal one.
func noErrorProb(c *ddsim.Circuit, m ddsim.NoiseModel) float64 {
	perTouch := (1 - 0.75*m.Depolarizing) * (1 - m.Damping) * (1 - m.PhaseFlip)
	touches := 0
	for i := range c.Ops {
		if c.Ops[i].Kind == circuit.KindGate {
			touches += len(c.Ops[i].Qubits())
		}
	}
	return math.Pow(perTouch, float64(touches))
}

// checkTracked checks one stochastic result of a job planned with runs
// trajectories against its reference, at the Theorem-1 radius for
// failure probability checkDelta.
func checkTracked(res *ddsim.Result, ref reference, runs int) error {
	switch {
	case res == nil:
		return errors.New("no result")
	case res.Runs != runs || res.Interrupted || res.TimedOut:
		return fmt.Errorf("ran %d of %d trajectories (interrupted=%v timed_out=%v)",
			res.Runs, runs, res.Interrupted, res.TimedOut)
	case len(res.TrackedProbs) != 1:
		return fmt.Errorf("%d tracked probabilities, want 1", len(res.TrackedProbs))
	}
	est := res.TrackedProbs[0]
	r := ddsim.EstimateAccuracy(runs, 1, checkDelta)
	if ref.exact && math.Abs(est-ref.value) > r {
		return fmt.Errorf("tracked probability %.6f outside exact %.6f ± %.4f", est, ref.value, r)
	}
	if !ref.exact && est < ref.value-r {
		return fmt.Errorf("tracked probability %.6f below bound %.6f − %.4f", est, ref.value, r)
	}
	return nil
}

// pooled accumulates the estimates of one pool entry over a run, so the
// check can be repeated on all its trajectories at once with a radius
// many times tighter than a single job's.
type pooled struct {
	ref  reference
	sum  float64 // Σ estimate × runs
	runs int
}

func (p *pooled) add(res *ddsim.Result) {
	if res != nil && len(res.TrackedProbs) == 1 {
		p.sum += res.TrackedProbs[0] * float64(res.Runs)
		p.runs += res.Runs
	}
}

func (p *pooled) check() error {
	if p.runs == 0 {
		return nil
	}
	est := p.sum / float64(p.runs)
	return checkTracked(&ddsim.Result{Runs: p.runs, TrackedProbs: []float64{est}}, p.ref, p.runs)
}

// withFeedback splices a mid-circuit measurement of qubit 0 into the
// middle of c, followed by a classically conditioned X that returns a
// measured 1 to 0, and renders the result as OpenQASM.
func withFeedback(c *ddsim.Circuit) (string, error) {
	src, err := ddsim.WriteQASM(c)
	if err != nil {
		return "", err
	}
	lines := strings.Split(strings.TrimSpace(src), "\n")
	var body []string
	for _, l := range lines {
		if !strings.HasPrefix(l, "OPENQASM") && !strings.HasPrefix(l, "include") &&
			!strings.HasPrefix(l, "qreg") && !strings.HasPrefix(l, "creg") {
			body = append(body, l)
		}
	}
	mid := len(body) / 2
	var b strings.Builder
	fmt.Fprintf(&b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\ncreg c[1];\n", c.NumQubits)
	b.WriteString(strings.Join(body[:mid], "\n"))
	b.WriteString("\nmeasure q[0] -> c[0];\nif(c==1) x q[0];\n")
	b.WriteString(strings.Join(body[mid:], "\n"))
	b.WriteString("\n")
	return b.String(), nil
}

// deviceJSON generates a calibrated device description for n qubits:
// T1 between 60 and 140 µs, T2 between 0.6 and 1.6 T1, typical gate
// durations and per-gate error rates.
func deviceJSON(rng *rand.Rand, n int) ([]byte, error) {
	type qubit struct {
		T1 float64 `json:"t1_us"`
		T2 float64 `json:"t2_us"`
	}
	qs := make([]qubit, n)
	for i := range qs {
		t1 := 60 + 80*rng.Float64()
		qs[i] = qubit{T1: t1, T2: t1 * (0.6 + rng.Float64())}
	}
	return json.Marshal(map[string]any{
		"name":                 fmt.Sprintf("perfbench-%d", rng.Intn(1000)),
		"qubits":               qs,
		"gate_times_ns":        map[string]float64{"h": 35, "x": 35, "rz": 1, "cx": 300 + 100*rng.Float64()},
		"default_gate_time_ns": 50,
		"gate_errors":          map[string]float64{"*": 5e-4 + 1e-3*rng.Float64(), "cx": 5e-3 + 5e-3*rng.Float64()},
	})
}
