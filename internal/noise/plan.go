// Plan compilation: lowering a Model against a concrete
// circuit into per-operation channel lists. The stochastic driver and
// the exact engines both execute the same compiled Plan, so every
// channel the trajectories sample is exactly the channel the
// density-matrix reference applies.
package noise

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"ddsim/internal/circuit"
	"ddsim/internal/sim"
)

// Crosstalk configures the correlated two-qubit Pauli channel fired
// after every two-qubit gate: total error probability Strength,
// biased towards the ZZ pair by ZZBias (0 = uniform over the 15
// non-identity pairs, 1 = all mass on ZZ).
type Crosstalk struct {
	Strength float64 `json:"strength"`
	ZZBias   float64 `json:"zz_bias,omitempty"`
}

// Validate checks the crosstalk parameters.
func (x *Crosstalk) Validate() error {
	if !(x.Strength >= 0 && x.Strength <= 1) {
		return fmt.Errorf("noise: crosstalk strength %v outside [0,1]", x.Strength)
	}
	if !(x.ZZBias >= 0 && x.ZZBias <= 1) {
		return fmt.Errorf("noise: crosstalk zz_bias %v outside [0,1]", x.ZZBias)
	}
	return nil
}

// Channel binds the configured crosstalk to an ordered qubit pair —
// the channel Compile attaches after a two-qubit gate, exposed for
// direct exact-engine use and tests.
func (x *Crosstalk) Channel(q0, q1 int) Chan2 {
	return newChan2(q0, q1, x.terms(), LabelCrosstalk)
}

// terms expands the configuration into the 15 non-identity Pauli-pair
// branches.
func (x *Crosstalk) terms() []PairTerm {
	if x.Strength <= 0 {
		return nil
	}
	uniform := x.Strength * (1 - x.ZZBias) / 15
	out := make([]PairTerm, 0, 15)
	for p0 := sim.PauliI; p0 <= sim.PauliZ; p0++ {
		for p1 := sim.PauliI; p1 <= sim.PauliZ; p1++ {
			if p0 == sim.PauliI && p1 == sim.PauliI {
				continue
			}
			prob := uniform
			if p0 == sim.PauliZ && p1 == sim.PauliZ {
				prob += x.Strength * x.ZZBias
			}
			if prob > 0 {
				out = append(out, PairTerm{P0: p0, P1: p1, Prob: prob})
			}
		}
	}
	return out
}

// IdleNoise configures time-dependent idling noise: qubits sitting
// out k circuit moments between gates accumulate damping and
// dephasing before their next gate. With a Device, the per-qubit
// probabilities derive from T1/T2 over k·MomentNs; without one, the
// uniform per-moment rates compound over k moments.
type IdleNoise struct {
	// Damping is the per-moment amplitude-damping probability
	// (ignored when the model carries a Device).
	Damping float64 `json:"damping,omitempty"`
	// Dephasing is the per-moment phase-flip probability, at most 0.5
	// (ignored when the model carries a Device).
	Dephasing float64 `json:"dephasing,omitempty"`
	// MomentNs is the wall-clock duration of one circuit moment used
	// with a Device (0 means the device's default gate time).
	MomentNs float64 `json:"moment_ns,omitempty"`
}

// Validate checks the idle-noise parameters.
func (id *IdleNoise) Validate() error {
	if !(id.Damping >= 0 && id.Damping <= 1) {
		return fmt.Errorf("noise: idle damping %v outside [0,1]", id.Damping)
	}
	if !(id.Dephasing >= 0 && id.Dephasing <= 0.5) {
		return fmt.Errorf("noise: idle dephasing %v outside [0,0.5]", id.Dephasing)
	}
	if id.MomentNs < 0 || math.IsInf(id.MomentNs, 0) || math.IsNaN(id.MomentNs) {
		return fmt.Errorf("noise: idle moment_ns %v must be non-negative and finite", id.MomentNs)
	}
	return nil
}

// OpNoise lists the channels bound to one circuit operation: idle
// decay applied before the gate, single-qubit gate noise after it,
// then correlated two-qubit noise. A condition-skipped gate skips all
// of them: untaken gates inflict no noise, idle noise included.
type OpNoise struct {
	Pre   []Chan1
	Post  []Chan1
	Post2 []Chan2
	// Counts tallies Pre, Post and Post2 by telemetry label, so a
	// runner accounts an executed operation with one ChannelCounts.Add
	// instead of one increment per channel.
	Counts ChannelCounts
}

// ApplyPre samples the pre-gate (idle) channels on one trajectory.
// Most operations have none; the length check inlines into the caller
// and skips the call.
func (on *OpNoise) ApplyPre(b sim.Backend, rng *rand.Rand) {
	if len(on.Pre) > 0 {
		applyChans(on.Pre, b, rng)
	}
}

// ApplyPost samples the post-gate channels on one trajectory.
func (on *OpNoise) ApplyPost(b sim.Backend, rng *rand.Rand) {
	applyChans(on.Post, b, rng)
	for i := range on.Post2 {
		on.Post2[i].Apply(b, rng)
	}
}

// Plan is a Model compiled against one circuit: the channel lists for
// each operation index.
type Plan struct {
	ops []*OpNoise
}

// At returns the channels of operation i (nil when it carries none).
func (p *Plan) At(i int) *OpNoise {
	if p == nil || i < 0 || i >= len(p.ops) {
		return nil
	}
	return p.ops[i]
}

// Empty reports whether no operation carries any channel.
func (p *Plan) Empty() bool {
	if p == nil {
		return true
	}
	for _, on := range p.ops {
		if on != nil {
			return false
		}
	}
	return true
}

// Compile lowers the model against a circuit: validates it for the
// register size, schedules the circuit into moments when idle noise is
// on, and binds idle, gate and crosstalk channels to each operation.
// Zero-probability channels are dropped, so a plan compiled from the
// paper's uniform model samples depolarising → damping → phase flip on
// each touched qubit in target-then-controls order, and draws from the
// rng only for channels that can fire.
//
// Every single-qubit channel of the plan lives in one slab and the
// crosstalk key is formatted once, so a model without a device
// compiles in a fixed number of allocations whatever the circuit's
// size.
func (m Model) Compile(c *circuit.Circuit) (*Plan, error) {
	if err := m.ValidateFor(c.NumQubits); err != nil {
		return nil, err
	}
	idleOn := m.Idle != nil && (m.Device != nil || m.Idle.Damping > 0 || m.Idle.Dephasing > 0)
	var xtalk Chan2
	if m.Crosstalk != nil {
		if terms := m.Crosstalk.terms(); len(terms) > 0 {
			xtalk = newChan2(0, 0, terms, LabelCrosstalk)
		}
	}
	// Size the slabs: at most three gate channels per touched qubit
	// (idle channels may append past the estimate, which only costs a
	// reallocation: each operation slices its channels after appending
	// them) and one crosstalk channel per two-qubit gate.
	touched, pairs := 0, 0
	for i := range c.Ops {
		if op := &c.Ops[i]; op.Kind == circuit.KindGate {
			touched += 1 + len(op.Controls)
			if len(op.Controls) == 1 {
				pairs++
			}
		}
	}
	pc := planCompiler{m: m, chans: make([]Chan1, 0, 3*touched)}
	if xtalk.Terms != nil {
		pc.pairs = make([]Chan2, 0, pairs)
	}
	var moments, last []int
	if idleOn {
		moments = circuit.Moments(c)
		last = make([]int, c.NumQubits)
		for i := range last {
			last[i] = -1
		}
	}
	p := &Plan{ops: make([]*OpNoise, len(c.Ops))}
	slab := make([]OpNoise, len(c.Ops))
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Kind == circuit.KindBarrier {
			continue
		}
		nq := 1 + len(op.Controls)
		if op.Kind == circuit.KindGate {
			on := &slab[i]
			start := len(pc.chans)
			if idleOn {
				for j := 0; j < nq; j++ {
					q := qubitAt(op, j)
					if last[q] < 0 {
						continue // a qubit still in |0⟩ has nothing to decay
					}
					k := moments[i] - last[q] - 1
					if k <= 0 {
						continue
					}
					pd, pf := m.idleProbs(q, k)
					pc.damping(q, pd, false, LabelIdle)
					if pf > 0 {
						pc.add(Chan1{Kind: ChanPhaseFlip, Qubit: q, P: pf, Label: LabelIdle})
					}
				}
			}
			pre := len(pc.chans)
			name := op.Name
			if m.Device != nil && len(op.Controls) > 0 {
				// Device tables use the QASM spelling of controlled
				// gates ("cx", "ccx"), while the IR stores the base
				// name plus a control list.
				name = strings.Repeat("c", len(op.Controls)) + name
			}
			for j := 0; j < nq; j++ {
				q := qubitAt(op, j)
				dep, damp, flip, event := m.gateRates(name, q)
				if dep > 0 {
					pc.add(Chan1{Kind: ChanDepolarizing, Qubit: q, P: dep, Label: LabelDepolarizing})
				}
				pc.damping(q, damp, event, LabelDamping)
				if flip > 0 {
					pc.add(Chan1{Kind: ChanPhaseFlip, Qubit: q, P: flip, Label: LabelPhaseFlip})
				}
			}
			end := len(pc.chans)
			on.Pre = pc.chans[start:pre:pre]
			on.Post = pc.chans[pre:end:end]
			if xtalk.Terms != nil && nq == 2 {
				ch := xtalk
				ch.Q0, ch.Q1 = op.Target, op.Controls[0].Qubit
				pc.pairs = append(pc.pairs, ch)
				n := len(pc.pairs)
				on.Post2 = pc.pairs[n-1 : n : n]
				pc.tally[LabelCrosstalk]++
			}
			if len(on.Pre)+len(on.Post)+len(on.Post2) > 0 {
				on.Counts = pc.tally
				p.ops[i] = on
			}
			pc.tally = ChannelCounts{}
		}
		if idleOn {
			for j := 0; j < nq; j++ {
				if q := qubitAt(op, j); q >= 0 && q < len(last) {
					last[q] = moments[i]
				}
			}
		}
	}
	return p, nil
}

// qubitAt returns the j-th entry of op.Qubits() (target first, then
// controls) without building the slice.
func qubitAt(op *circuit.Op, j int) int {
	if j == 0 {
		return op.Target
	}
	return op.Controls[j-1].Qubit
}

// planCompiler accumulates one plan's channels into shared slabs.
type planCompiler struct {
	m     Model
	chans []Chan1
	pairs []Chan2
	tally ChannelCounts // labels of the current operation's channels
}

// add appends a channel.
func (pc *planCompiler) add(ch Chan1) {
	pc.tally[ch.Label]++
	pc.chans = append(pc.chans, ch)
}

// damping appends the T1 channel with probability p, twirled into its
// Pauli-channel approximation when the model is Twirled.
func (pc *planCompiler) damping(q int, p float64, event bool, label int) {
	if p <= 0 {
		return
	}
	if pc.m.Twirled {
		if label == LabelDamping {
			label = LabelTwirled
		}
		probe := Chan1{Kind: ChanDamping, P: p, Event: event}
		pc.add(Chan1{Kind: ChanPauli, Qubit: q, Probs: TwirlProbs(probe.Kraus()), Label: label})
		return
	}
	pc.add(Chan1{Kind: ChanDamping, Qubit: q, P: p, Event: event, Label: label})
}

// gateRates resolves the post-gate channel probabilities for one
// qubit of the named gate. With a Device, the depolarising rate comes
// from the gate-error table and the T1/T2 rates from the qubit's
// calibration over the gate duration (exact-channel damping
// semantics — the derived γ is a physical channel parameter, not an
// event rate); without one, the model's uniform rates apply.
func (m Model) gateRates(name string, q int) (dep, damp, flip float64, event bool) {
	if m.Device != nil {
		dep = m.Device.gateError(name, m.Depolarizing)
		damp, flip = m.Device.decayProbs(q, m.Device.gateTimeNs(name))
		return dep, damp, flip, false
	}
	return m.Depolarizing, m.Damping, m.PhaseFlip, m.DampingAsEvent
}

// idleProbs resolves the decay probabilities for k idle moments of
// qubit q. With a Device they derive from T1/T2 over k·MomentNs;
// without one the uniform per-moment rates compound:
// 1−(1−p)^k for damping and (1−(1−2f)^k)/2 for dephasing.
func (m Model) idleProbs(q, k int) (pDamp, pFlip float64) {
	if m.Device != nil {
		dt := m.Idle.MomentNs
		if dt <= 0 {
			dt = m.Device.gateTimeNs("")
		}
		return m.Device.decayProbs(q, float64(k)*dt)
	}
	if m.Idle.Damping > 0 {
		pDamp = 1 - math.Pow(1-m.Idle.Damping, float64(k))
	}
	if m.Idle.Dephasing > 0 {
		pFlip = (1 - math.Pow(1-2*m.Idle.Dephasing, float64(k))) / 2
	}
	return clampProb(pDamp), clampProb(pFlip)
}
