package dd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

const eps = 1e-9

var (
	matH = Mat2{{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)}}
	matX = Mat2{{0, 1}, {1, 0}}
	matY = Mat2{{0, complex(0, -1)}, {complex(0, 1), 0}}
	matZ = Mat2{{1, 0}, {0, -1}}
	matI = Mat2{{1, 0}, {0, 1}}
)

func cEq(a, b complex128) bool { return cmplx.Abs(a-b) < eps }

func vecEq(t *testing.T, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if !cEq(got[i], want[i]) {
			t.Fatalf("amplitude %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestZeroState(t *testing.T) {
	p := NewPackage(3)
	e := p.ZeroState()
	v := p.ToVector(e)
	want := make([]complex128, 8)
	want[0] = 1
	vecEq(t, v, want)
	if p.NodeCount(e) != 3 {
		t.Errorf("|000> should have 3 nodes, got %d", p.NodeCount(e))
	}
}

func TestBasisState(t *testing.T) {
	p := NewPackage(3)
	for idx := uint64(0); idx < 8; idx++ {
		v := p.ToVector(p.BasisState(idx))
		for i := range v {
			want := complex128(0)
			if uint64(i) == idx {
				want = 1
			}
			if !cEq(v[i], want) {
				t.Fatalf("basis %d: amplitude %d = %v", idx, i, v[i])
			}
		}
	}
}

func TestBasisStateOutOfRangePanics(t *testing.T) {
	p := NewPackage(2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range basis state")
		}
	}()
	p.BasisState(4)
}

func TestFromVectorRoundTrip(t *testing.T) {
	p := NewPackage(4)
	rng := rand.New(rand.NewSource(7))
	amps := make([]complex128, 16)
	for i := range amps {
		amps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	got := p.ToVector(p.FromVector(amps))
	vecEq(t, got, amps)
}

func TestFromVectorCanonical(t *testing.T) {
	// Building the same vector twice must yield the identical edge.
	p := NewPackage(3)
	amps := []complex128{0.5, 0, 0.5, 0, 0.5, 0, 0.5, 0}
	e1 := p.FromVector(amps)
	e2 := p.FromVector(amps)
	if e1 != e2 {
		t.Error("identical vectors produced different canonical edges")
	}
}

func TestIdentityMatrix(t *testing.T) {
	p := NewPackage(3)
	m := p.ToMatrix(p.Identity())
	for r := range m {
		for c := range m[r] {
			want := complex128(0)
			if r == c {
				want = 1
			}
			if !cEq(m[r][c], want) {
				t.Fatalf("I[%d][%d] = %v", r, c, m[r][c])
			}
		}
	}
	if n := p.NodeCountM(p.Identity()); n != 3 {
		t.Errorf("identity chain should have 3 nodes, got %d", n)
	}
}

// TestFig1bMatrix reproduces Fig. 1b: Z applied to the first (most
// significant) qubit of a 2-qubit register is diag(1,1,-1,-1).
func TestFig1bMatrix(t *testing.T) {
	p := NewPackage(2)
	m := p.ToMatrix(p.SingleQubitGate(matZ, 0))
	want := [][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, -1, 0},
		{0, 0, 0, -1},
	}
	for r := range want {
		for c := range want[r] {
			if !cEq(m[r][c], want[r][c]) {
				t.Fatalf("(Z⊗I)[%d][%d] = %v, want %v", r, c, m[r][c], want[r][c])
			}
		}
	}
	// The paper's Fig. 1b diagram has one q0 node and one q1 node.
	if n := p.NodeCountM(p.SingleQubitGate(matZ, 0)); n != 2 {
		t.Errorf("Z⊗I should have 2 nodes, got %d", n)
	}
}

// TestBellState walks through Examples 1, 2 and 4 of the paper:
// H on q0 then CNOT(q0→q1) yields (|00⟩+|11⟩)/√2.
func TestBellState(t *testing.T) {
	p := NewPackage(2)
	e := p.ZeroState()
	e = p.MulMV(p.SingleQubitGate(matH, 0), e)

	// After H: (|00⟩ + |10⟩)/√2, Example 1.
	v := p.ToVector(e)
	s := complex(1/math.Sqrt2, 0)
	vecEq(t, v, []complex128{s, 0, s, 0})

	e = p.MulMV(p.ControlledGate(matX, 1, []Control{{Qubit: 0}}), e)
	v = p.ToVector(e)
	vecEq(t, v, []complex128{s, 0, 0, s})

	// Fig. 1a: the Bell state diagram has 3 nodes (one q0, two q1).
	if n := p.NodeCount(e); n != 3 {
		t.Errorf("Bell state should have 3 nodes, got %d", n)
	}
	// Amplitude reconstruction along the bold path of Fig. 1a.
	if a := p.Amplitude(e, 3); !cEq(a, s) {
		t.Errorf("amplitude |11> = %v, want %v", a, s)
	}
	if a := p.Amplitude(e, 1); !cEq(a, 0) {
		t.Errorf("amplitude |01> = %v, want 0", a)
	}
	if n2 := p.Norm2(e); math.Abs(n2-1) > eps {
		t.Errorf("norm² = %v", n2)
	}
}

func TestGHZNodeCountLinear(t *testing.T) {
	// The GHZ/entanglement circuit of Table Ia: DD stays linear in n.
	for _, n := range []int{4, 8, 16, 32, 64} {
		p := NewPackage(n)
		e := p.ZeroState()
		e = p.MulMV(p.SingleQubitGate(matH, 0), e)
		for qb := 1; qb < n; qb++ {
			e = p.MulMV(p.ControlledGate(matX, qb, []Control{{Qubit: qb - 1}}), e)
		}
		if got := p.NodeCount(e); got != 2*n-1 {
			t.Errorf("GHZ(%d) node count = %d, want %d", n, got, 2*n-1)
		}
		if n2 := p.Norm2(e); math.Abs(n2-1) > eps {
			t.Errorf("GHZ(%d) norm² = %v", n, n2)
		}
	}
}

func TestSingleQubitGatesMatchDense(t *testing.T) {
	p := NewPackage(3)
	gates := map[string]Mat2{"H": matH, "X": matX, "Y": matY, "Z": matZ}
	for name, g := range gates {
		for target := 0; target < 3; target++ {
			m := p.ToMatrix(p.SingleQubitGate(g, target))
			want := denseSingle(g, target, 3)
			for r := 0; r < 8; r++ {
				for c := 0; c < 8; c++ {
					if !cEq(m[r][c], want[r][c]) {
						t.Fatalf("%s on q%d: [%d][%d] = %v, want %v", name, target, r, c, m[r][c], want[r][c])
					}
				}
			}
		}
	}
}

// denseSingle builds the dense n-qubit matrix for a single-qubit gate
// by explicit Kronecker products (q0 most significant).
func denseSingle(g Mat2, target, n int) [][]complex128 {
	m := [][]complex128{{1}}
	for q := 0; q < n; q++ {
		f := matI
		if q == target {
			f = g
		}
		m = denseKron(m, f)
	}
	return m
}

func denseKron(a [][]complex128, b Mat2) [][]complex128 {
	ra := len(a)
	out := make([][]complex128, ra*2)
	for i := range out {
		out[i] = make([]complex128, ra*2)
	}
	for i := 0; i < ra; i++ {
		for j := 0; j < ra; j++ {
			for bi := 0; bi < 2; bi++ {
				for bj := 0; bj < 2; bj++ {
					out[i*2+bi][j*2+bj] = a[i][j] * b[bi][bj]
				}
			}
		}
	}
	return out
}

func TestControlledGateDense(t *testing.T) {
	// CNOT with control q0, target q1 (Example 2's matrix).
	p := NewPackage(2)
	m := p.ToMatrix(p.ControlledGate(matX, 1, []Control{{Qubit: 0}}))
	want := [][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	}
	for r := range want {
		for c := range want[r] {
			if !cEq(m[r][c], want[r][c]) {
				t.Fatalf("CNOT[%d][%d] = %v, want %v", r, c, m[r][c], want[r][c])
			}
		}
	}
}

func TestControlledGateReversed(t *testing.T) {
	// CNOT with control q1 (less significant), target q0.
	p := NewPackage(2)
	m := p.ToMatrix(p.ControlledGate(matX, 0, []Control{{Qubit: 1}}))
	want := [][]complex128{
		{1, 0, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
	}
	for r := range want {
		for c := range want[r] {
			if !cEq(m[r][c], want[r][c]) {
				t.Fatalf("reversed CNOT[%d][%d] = %v, want %v", r, c, m[r][c], want[r][c])
			}
		}
	}
}

func TestNegativeControl(t *testing.T) {
	p := NewPackage(2)
	m := p.ToMatrix(p.ControlledGate(matX, 1, []Control{{Qubit: 0, Negative: true}}))
	// X on q1 iff q0 == |0⟩.
	want := [][]complex128{
		{0, 1, 0, 0},
		{1, 0, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
	}
	for r := range want {
		for c := range want[r] {
			if !cEq(m[r][c], want[r][c]) {
				t.Fatalf("neg-CNOT[%d][%d] = %v, want %v", r, c, m[r][c], want[r][c])
			}
		}
	}
}

func TestToffoli(t *testing.T) {
	p := NewPackage(3)
	ccx := p.ControlledGate(matX, 2, []Control{{Qubit: 0}, {Qubit: 1}})
	e := p.BasisState(0b110) // q0=1, q1=1, q2=0
	e = p.MulMV(ccx, e)
	if pr := p.Probability(e, 0b111); math.Abs(pr-1) > eps {
		t.Errorf("CCX|110> should be |111>, got prob %v", pr)
	}
	e2 := p.MulMV(ccx, p.BasisState(0b100))
	if pr := p.Probability(e2, 0b100); math.Abs(pr-1) > eps {
		t.Errorf("CCX|100> should stay |100>, got prob %v", pr)
	}
}

func TestAddVectors(t *testing.T) {
	p := NewPackage(3)
	rng := rand.New(rand.NewSource(11))
	a := make([]complex128, 8)
	b := make([]complex128, 8)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	sum := p.ToVector(p.Add(p.FromVector(a), p.FromVector(b)))
	for i := range a {
		if !cEq(sum[i], a[i]+b[i]) {
			t.Fatalf("sum[%d] = %v, want %v", i, sum[i], a[i]+b[i])
		}
	}
}

func TestAddCancellation(t *testing.T) {
	p := NewPackage(2)
	e := p.BasisState(1)
	neg := p.scaleV(e, p.W.Lookup(-1, 0))
	if got := p.Add(e, neg); !got.IsZero() {
		t.Error("v + (-v) should be the zero stub")
	}
}

func TestMulMMUnitarity(t *testing.T) {
	p := NewPackage(3)
	h := p.SingleQubitGate(matH, 1)
	prod := p.MulMM(h, p.ConjugateTranspose(h))
	if prod != p.Identity() {
		t.Error("H·H† should be the canonical identity edge")
	}
	cx := p.ControlledGate(matX, 2, []Control{{Qubit: 0}})
	if got := p.MulMM(cx, cx); got != p.Identity() {
		t.Error("CX·CX should be the canonical identity edge")
	}
}

func TestMulMMAssociates(t *testing.T) {
	p := NewPackage(3)
	a := p.SingleQubitGate(matH, 0)
	b := p.ControlledGate(matX, 1, []Control{{Qubit: 0}})
	c := p.SingleQubitGate(matY, 2)
	l := p.MulMM(p.MulMM(a, b), c)
	r := p.MulMM(a, p.MulMM(b, c))
	if l != r {
		t.Error("(AB)C != A(BC) as canonical edges")
	}
}

func TestKron(t *testing.T) {
	p := NewPackage(2)
	z1 := p.Embed2x2(matZ)
	x1 := p.Embed2x2(matX)
	k := p.Kron(z1, x1) // Z ⊗ X on 2 qubits
	m := p.ToMatrix(k)
	want := [][]complex128{
		{0, 1, 0, 0},
		{1, 0, 0, 0},
		{0, 0, 0, -1},
		{0, 0, -1, 0},
	}
	for r := range want {
		for c := range want[r] {
			if !cEq(m[r][c], want[r][c]) {
				t.Fatalf("Z⊗X[%d][%d] = %v, want %v", r, c, m[r][c], want[r][c])
			}
		}
	}
}

func TestDotAndFidelity(t *testing.T) {
	p := NewPackage(2)
	plus := p.MulMV(p.SingleQubitGate(matH, 0), p.ZeroState())
	zero := p.ZeroState()
	d := p.Dot(zero, plus)
	if !cEq(d, complex(1/math.Sqrt2, 0)) {
		t.Errorf("⟨00|+0⟩ = %v", d)
	}
	if f := p.Fidelity(zero, plus); math.Abs(f-0.5) > eps {
		t.Errorf("fidelity = %v, want 0.5", f)
	}
	if f := p.Fidelity(plus, plus); math.Abs(f-1) > eps {
		t.Errorf("self fidelity = %v", f)
	}
	// Conjugate symmetry: ⟨a|b⟩ = conj(⟨b|a⟩).
	if d2 := p.Dot(plus, zero); !cEq(d2, cmplx.Conj(d)) {
		t.Errorf("Dot not conjugate-symmetric: %v vs %v", d2, d)
	}
}

func TestProbOne(t *testing.T) {
	p := NewPackage(2)
	bell := bellState(p)
	for q := 0; q < 2; q++ {
		if pr := p.ProbOne(bell, q); math.Abs(pr-0.5) > eps {
			t.Errorf("P(q%d=1) = %v, want 0.5", q, pr)
		}
	}
	e := p.BasisState(0b10) // q0=1, q1=0
	if pr := p.ProbOne(e, 0); math.Abs(pr-1) > eps {
		t.Errorf("P(q0=1) = %v, want 1", pr)
	}
	if pr := p.ProbOne(e, 1); math.Abs(pr) > eps {
		t.Errorf("P(q1=1) = %v, want 0", pr)
	}
}

func bellState(p *Package) VEdge {
	e := p.ZeroState()
	e = p.MulMV(p.SingleQubitGate(matH, 0), e)
	return p.MulMV(p.ControlledGate(matX, 1, []Control{{Qubit: 0}}), e)
}

func TestCollapseQubit(t *testing.T) {
	p := NewPackage(2)
	bell := bellState(p)
	c0, pr0 := p.CollapseQubit(bell, 0, 0)
	if math.Abs(pr0-0.5) > eps {
		t.Errorf("collapse prob = %v", pr0)
	}
	if pr := p.Probability(c0, 0); math.Abs(pr-1) > eps {
		t.Errorf("collapsed state should be |00>, got prob %v", pr)
	}
	c1, pr1 := p.CollapseQubit(bell, 0, 1)
	if math.Abs(pr1-0.5) > eps {
		t.Errorf("collapse prob = %v", pr1)
	}
	if pr := p.Probability(c1, 3); math.Abs(pr-1) > eps {
		t.Errorf("collapsed state should be |11>, got prob %v", pr)
	}
	// Impossible outcome.
	zero := p.ZeroState()
	if _, pr := p.CollapseQubit(zero, 1, 1); pr != 0 {
		t.Errorf("impossible collapse prob = %v", pr)
	}
}

func TestMeasureQubitEntanglement(t *testing.T) {
	// Measuring one half of a Bell pair determines the other half.
	p := NewPackage(2)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		out, collapsed := p.MeasureQubit(bellState(p), 0, rng)
		other := p.ProbOne(collapsed, 1)
		if out == 1 && math.Abs(other-1) > eps {
			t.Fatalf("measured q0=1 but P(q1=1)=%v", other)
		}
		if out == 0 && math.Abs(other) > eps {
			t.Fatalf("measured q0=0 but P(q1=1)=%v", other)
		}
	}
}

func TestSampleBasisDistribution(t *testing.T) {
	p := NewPackage(2)
	bell := bellState(p)
	rng := rand.New(rand.NewSource(42))
	counts := map[uint64]int{}
	const trials = 20000
	for i := 0; i < trials; i++ {
		counts[p.SampleBasis(bell, rng)]++
	}
	if counts[1] != 0 || counts[2] != 0 {
		t.Errorf("sampled impossible outcomes: %v", counts)
	}
	f0 := float64(counts[0]) / trials
	if math.Abs(f0-0.5) > 0.02 {
		t.Errorf("P(|00>) ≈ %v, want 0.5±0.02", f0)
	}
}

// TestExample6AmplitudeDamping reproduces Example 6 and Fig. 1c: the
// two branch states and probabilities of damping q0 of a Bell state.
func TestExample6AmplitudeDamping(t *testing.T) {
	const pDamp = 0.3
	p := NewPackage(2)
	bell := bellState(p)

	a0 := Mat2{{0, complex(math.Sqrt(pDamp), 0)}, {0, 0}}
	a1 := Mat2{{1, 0}, {0, complex(math.Sqrt(1-pDamp), 0)}}

	b0, pr0 := p.ApplyKraus(bell, a0, 0)
	if math.Abs(pr0-pDamp/2) > eps {
		t.Errorf("P(A0 branch) = %v, want %v", pr0, pDamp/2)
	}
	b0n := p.Normalize(b0)
	// Branch state is |01⟩: q0 decayed to 0, q1 still 1.
	if pr := p.Probability(b0n, 1); math.Abs(pr-1) > eps {
		t.Errorf("A0 branch should be |01>, got prob %v", pr)
	}

	b1, pr1 := p.ApplyKraus(bell, a1, 0)
	if math.Abs(pr1-(1-pDamp/2)) > eps {
		t.Errorf("P(A1 branch) = %v, want %v", pr1, 1-pDamp/2)
	}
	b1n := p.Normalize(b1)
	// Fig. 1c: weights 1/√(2−p) on |00⟩ and √(1−p)/√(2−p) on |11⟩.
	w00 := 1 / math.Sqrt(2-pDamp)
	w11 := math.Sqrt(1-pDamp) / math.Sqrt(2-pDamp)
	if a := p.Amplitude(b1n, 0); !cEq(a, complex(w00, 0)) {
		t.Errorf("A1 branch |00> amplitude = %v, want %v", a, w00)
	}
	if a := p.Amplitude(b1n, 3); !cEq(a, complex(w11, 0)) {
		t.Errorf("A1 branch |11> amplitude = %v, want %v", a, w11)
	}
	// Kraus completeness: the branch probabilities sum to 1.
	if math.Abs(pr0+pr1-1) > eps {
		t.Errorf("branch probabilities sum to %v", pr0+pr1)
	}
}

func TestNormalizePanicsOnZero(t *testing.T) {
	p := NewPackage(2)
	defer func() {
		if recover() == nil {
			t.Error("Normalize(0) should panic")
		}
	}()
	p.Normalize(p.ZeroEdge())
}

func TestGarbageCollection(t *testing.T) {
	p := NewPackage(4)
	state := bell4(p)
	p.Ref(state)
	// Create garbage.
	for i := 0; i < 50; i++ {
		g := p.MulMV(p.SingleQubitGate(matH, i%4), state)
		_ = g
	}
	before := p.VNodeCount()
	collected := p.GarbageCollect()
	if collected == 0 {
		t.Error("expected some garbage to be collected")
	}
	if p.VNodeCount() >= before {
		t.Error("unique table did not shrink")
	}
	// The pinned state must survive and stay intact.
	if pr := p.Probability(state, 0); math.Abs(pr-0.5) > eps {
		t.Errorf("pinned state corrupted: P(|0000>) = %v", pr)
	}
	p.Unref(state)
	p.GarbageCollect()
	if p.VNodeCount() != 0 {
		t.Errorf("after unref+GC, %d nodes remain", p.VNodeCount())
	}
}

func bell4(p *Package) VEdge {
	e := p.ZeroState()
	e = p.MulMV(p.SingleQubitGate(matH, 0), e)
	for q := 1; q < 4; q++ {
		e = p.MulMV(p.ControlledGate(matX, q, []Control{{Qubit: q - 1}}), e)
	}
	return e
}

func TestGCPreservesCanonicity(t *testing.T) {
	p := NewPackage(3)
	state := p.ZeroState()
	p.Ref(state)
	p.GarbageCollect()
	// Rebuilding the same state after GC must converge to the same node.
	again := p.ZeroState()
	if state != again {
		t.Error("canonicity broken after GC: same state, different edges")
	}
	p.Unref(state)
}

func TestUnrefUnderflowPanics(t *testing.T) {
	p := NewPackage(2)
	e := p.ZeroState()
	defer func() {
		if recover() == nil {
			t.Error("Unref without Ref should panic")
		}
	}()
	p.Unref(e)
}

// TestSetGCThresholds: the tuning knob moves the MaybeGC trigger
// points and ignores non-positive arguments.
func TestSetGCThresholds(t *testing.T) {
	p := NewPackage(4)
	p.SetGCThresholds(123, 456)
	if p.gcThreshold != 123 || p.wGCThreshold != 456 {
		t.Fatalf("thresholds = %d/%d, want 123/456", p.gcThreshold, p.wGCThreshold)
	}
	p.SetGCThresholds(0, -1)
	if p.gcThreshold != 123 || p.wGCThreshold != 456 {
		t.Errorf("non-positive arguments must leave thresholds unchanged, got %d/%d",
			p.gcThreshold, p.wGCThreshold)
	}
	// A tiny node threshold must now trigger a collection.
	state := bell4(p)
	p.Ref(state)
	p.SetGCThresholds(1, 0)
	if !p.MaybeGC() {
		t.Error("MaybeGC should collect once the lowered threshold is exceeded")
	}
	p.Unref(state)
}

func TestMaybeGCThresholdGrowth(t *testing.T) {
	p := NewPackage(4)
	state := bell4(p)
	p.Ref(state)
	p.GarbageCollect() // flush construction garbage; only live nodes remain
	p.gcThreshold = 1
	if !p.MaybeGC() {
		t.Error("MaybeGC should have collected with tiny threshold")
	}
	if p.gcThreshold == 1 {
		t.Error("threshold should have grown after an unproductive sweep")
	}
	p.Unref(state)
}

func TestDOTExport(t *testing.T) {
	p := NewPackage(2)
	dot := p.DOT(bellState(p))
	for _, want := range []string{"digraph", "q0", "q1", "terminal", "0.707107"} {
		if !containsStr(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	mdot := p.DOTMatrix(p.SingleQubitGate(matZ, 0))
	for _, want := range []string{"digraph", "-1"} {
		if !containsStr(mdot, want) {
			t.Errorf("DOTMatrix output missing %q:\n%s", want, mdot)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestStats(t *testing.T) {
	p := NewPackage(2)
	_ = bellState(p)
	if s := p.Describe(); !containsStr(s, "qubits=2") {
		t.Errorf("Stats = %q", s)
	}
}

func TestRandomCircuitNormPreserved(t *testing.T) {
	// Property: unitary evolution preserves the norm.
	p := NewPackage(5)
	rng := rand.New(rand.NewSource(99))
	e := p.ZeroState()
	gates := []Mat2{matH, matX, matY, matZ}
	for i := 0; i < 200; i++ {
		q := rng.Intn(5)
		if rng.Float64() < 0.4 {
			c := rng.Intn(5)
			if c == q {
				c = (c + 1) % 5
			}
			e = p.MulMV(p.ControlledGate(gates[rng.Intn(4)], q, []Control{{Qubit: c}}), e)
		} else {
			e = p.MulMV(p.SingleQubitGate(gates[rng.Intn(4)], q), e)
		}
		if i%50 == 0 {
			if n2 := p.Norm2(e); math.Abs(n2-1) > 1e-8 {
				t.Fatalf("norm drifted to %v after %d gates", n2, i+1)
			}
		}
	}
	if n2 := p.Norm2(e); math.Abs(n2-1) > 1e-8 {
		t.Fatalf("final norm %v", n2)
	}
}

// TestGateBuildersDoNotAllocate: building a gate diagram whose nodes
// already exist allocates nothing — the builders' factor matrices stay
// off the heap. Every worker compiles one gate diagram per circuit op,
// so a per-gate allocation multiplies with the worker count.
func TestGateBuildersDoNotAllocate(t *testing.T) {
	p := NewPackage(4)
	defer p.Release()
	u := Mat2{{0, 1}, {1, 0}}
	ctl := []Control{{Qubit: 0}, {Qubit: 2, Negative: true}}
	p.SingleQubitGate(u, 1)
	p.ControlledGate(u, 3, ctl)
	if n := testing.AllocsPerRun(100, func() { p.SingleQubitGate(u, 1) }); n != 0 {
		t.Errorf("SingleQubitGate: %v allocations per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { p.ControlledGate(u, 3, ctl) }); n != 0 {
		t.Errorf("ControlledGate: %v allocations per call, want 0", n)
	}
}
