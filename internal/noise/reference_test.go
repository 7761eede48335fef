package noise

import (
	"math/rand"
	"slices"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/sim"
)

// refApplyAfterGate is the reference sampler for a uniform model: the
// per-gate loop the stochastic driver ran before every model was
// compiled into a Plan. It injects errors on each qubit a gate
// touched, in the fixed order depolarising → damping → phase flip.
// FuzzUniformPlanStream checks that Compile plus OpNoise.ApplyPost
// makes exactly the same backend calls and rng draws.
func refApplyAfterGate(m Model, b sim.Backend, qubits []int, rng *rand.Rand) {
	for _, q := range qubits {
		if m.Depolarizing > 0 && rng.Float64() < m.Depolarizing {
			// The depolarised qubit receives I, X, Y or Z uniformly.
			b.ApplyPauli(sim.Pauli(rng.Intn(4)), q)
		}
		if m.Damping > 0 {
			refApplyDamping(m, b, q, rng)
		}
		if m.PhaseFlip > 0 && rng.Float64() < m.PhaseFlip {
			b.ApplyPauli(sim.PauliZ, q)
		}
	}
}

// refApplyDamping realises the T1 error in the configured semantics.
func refApplyDamping(m Model, b sim.Backend, q int, rng *rand.Rand) {
	if m.DampingAsEvent {
		// Section III event semantics: untouched with prob 1−p.
		if rng.Float64() >= m.Damping {
			return
		}
		// A relaxation event: full-strength damping (γ = 1), branch
		// probabilities from the state as in Example 6.
		p1 := b.ProbOne(q)
		if p1 <= 0 {
			return // qubit already in |0⟩: the event is invisible
		}
		if p1 >= 1 || rng.Float64() < p1 {
			b.ApplyDamping(q, 1, true, p1)
		} else {
			b.ApplyDamping(q, 1, false, 1-p1)
		}
		return
	}
	// Exact-channel semantics (Example 6 with γ = p): the branch
	// probabilities depend on the current state through P(q = 1).
	p1 := b.ProbOne(q)
	pFire := m.Damping * p1 // ‖A0|ψ⟩‖²
	if pFire <= 0 {
		// Qubit is (numerically) in |0⟩; A1 acts as identity.
		return
	}
	if rng.Float64() < pFire {
		b.ApplyDamping(q, m.Damping, true, pFire)
	} else {
		b.ApplyDamping(q, m.Damping, false, 1-pFire)
	}
}

// call is one backend call seen by recBackend.
type call struct {
	op     string
	q0, q1 int
	pauli  sim.Pauli
	p      float64
	fire   bool
	prob   float64
	k      [4][4]complex128
}

// recBackend is a sim.Backend that records every call made on it and
// answers ProbOne from a fixed cycle that includes the edge values 0
// and 1, so two samplers driven with the same rng must leave identical
// logs.
type recBackend struct {
	n     int
	log   []call
	probs int
}

var recProbs = [...]float64{0.3, 0, 1, 0.7, 1e-3, 0.5, 0.999}

func (r *recBackend) Name() string   { return "rec" }
func (r *recBackend) NumQubits() int { return r.n }
func (r *recBackend) Reset()         { r.log = append(r.log, call{op: "reset"}) }
func (r *recBackend) ApplyOp(i int)  { r.log = append(r.log, call{op: "gate", q0: i}) }
func (r *recBackend) ApplyPauli(p sim.Pauli, q int) {
	r.log = append(r.log, call{op: "pauli", q0: q, pauli: p})
}
func (r *recBackend) ProbOne(q int) float64 {
	p := recProbs[r.probs%len(recProbs)]
	r.probs++
	r.log = append(r.log, call{op: "prob", q0: q, prob: p})
	return p
}
func (r *recBackend) Collapse(q, outcome int, prob float64) {
	r.log = append(r.log, call{op: "collapse", q0: q, q1: outcome, prob: prob})
}
func (r *recBackend) ApplyDamping(q int, p float64, fire bool, prob float64) {
	r.log = append(r.log, call{op: "damp", q0: q, p: p, fire: fire, prob: prob})
}
func (r *recBackend) ApplyKraus2(q0, q1 int, k [4][4]complex128, prob float64) {
	r.log = append(r.log, call{op: "kraus2", q0: q0, q1: q1, k: k, prob: prob})
}
func (r *recBackend) SampleBasis(*rand.Rand) uint64 { return 0 }
func (r *recBackend) Probability(uint64) float64    { return 0 }
func (r *recBackend) Norm2() float64                { return 1 }

// randomCircuit builds a circuit of gates with up to two controls,
// interleaved with measurements, resets and barriers.
func randomCircuit(rng *rand.Rand) *circuit.Circuit {
	n := 1 + rng.Intn(5)
	c := circuit.New("fuzz", n)
	for k := rng.Intn(40); k > 0; k-- {
		switch r := rng.Intn(10); {
		case r == 0:
			c.Measure(rng.Intn(n), rng.Intn(n))
		case r == 1:
			c.Reset(rng.Intn(n))
		case r == 2:
			c.Barrier()
		default:
			perm := rng.Perm(n)
			op := circuit.Op{Kind: circuit.KindGate, Name: "x", Target: perm[0]}
			for _, q := range perm[1:min(n, 1+rng.Intn(3))] {
				op.Controls = append(op.Controls, circuit.Control{Qubit: q})
			}
			c.Append(op)
		}
	}
	return c
}

// FuzzUniformPlanStream checks that a compiled uniform model makes the
// same backend calls and consumes the same rng draws as the reference
// per-gate loop, for any rates (zeros and ones included), either T1
// semantics and any circuit.
func FuzzUniformPlanStream(f *testing.F) {
	f.Add(int64(1), int64(2), uint16(1), uint16(2), uint16(1), true)
	f.Add(int64(7), int64(3), uint16(0), uint16(500), uint16(0), false)
	f.Add(int64(9), int64(4), uint16(1000), uint16(1000), uint16(1000), true)
	f.Add(int64(5), int64(8), uint16(300), uint16(0), uint16(700), false)
	f.Add(int64(3), int64(1), uint16(0), uint16(0), uint16(0), true)
	f.Fuzz(func(t *testing.T, seed, circ int64, dep, damp, flip uint16, event bool) {
		rate := func(v uint16) float64 { return float64(v%1001) / 1000 }
		m := Model{Depolarizing: rate(dep), Damping: rate(damp), PhaseFlip: rate(flip), DampingAsEvent: event}
		c := randomCircuit(rand.New(rand.NewSource(circ)))
		plan, err := m.Compile(c)
		if err != nil {
			t.Fatal(err)
		}

		ref, got := &recBackend{n: c.NumQubits}, &recBackend{n: c.NumQubits}
		refRng, gotRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := range c.Ops {
			op := &c.Ops[i]
			if op.Kind != circuit.KindGate {
				if plan.At(i) != nil {
					t.Fatalf("op %d (%v) carries channels", i, op.Kind)
				}
				continue
			}
			ref.ApplyOp(i)
			refApplyAfterGate(m, ref, op.Qubits(), refRng)

			on := plan.At(i)
			if on != nil {
				if len(on.Pre) > 0 || len(on.Post2) > 0 {
					t.Fatalf("op %d: uniform model compiled idle or crosstalk channels %+v", i, on)
				}
				var tally int64
				for _, n := range on.Counts {
					tally += n
				}
				if tally != int64(len(on.Post)) {
					t.Fatalf("op %d: Counts tally %d for %d channels", i, tally, len(on.Post))
				}
				on.ApplyPre(got, gotRng)
			}
			got.ApplyOp(i)
			if on != nil {
				on.ApplyPost(got, gotRng)
			}
		}
		if !slices.Equal(ref.log, got.log) {
			t.Fatalf("model %v: call logs differ\nreference %v\nplan      %v", m, ref.log, got.log)
		}
		if r, g := refRng.Int63(), gotRng.Int63(); r != g {
			t.Fatalf("model %v: rng positions differ after the circuit (next draws %d vs %d)", m, r, g)
		}
	})
}
