// Package qbench provides the paper's evaluation workloads
// (Section V): scalable Entanglement/GHZ and QFT circuits, and
// proprietary-free regenerations of the QASMBench circuit families
// appearing in Table Ic. It also contains the table harness that
// reruns every simulator over these workloads with a per-cell time
// budget, reproducing the structure of Tables Ia, Ib and Ic.
//
// QASMBench itself (reference [40]) ships OpenQASM sources; the
// generators here build the same circuit *families* programmatically
// (documented per generator), and can emit OpenQASM via internal/qasm
// so the front-end is exercised on every Table Ic workload that fits
// the OpenQASM 2.0 gate alphabet.
package qbench

import (
	"fmt"
	"math"
	"math/rand"

	"ddsim/internal/circuit"
)

// Benchmark is one evaluation workload.
type Benchmark struct {
	// Name matches the paper's circuit naming where applicable.
	Name string
	// Circuit is the workload itself.
	Circuit *circuit.Circuit
	// Family documents which QASMBench family the generator mirrors
	// and why the DD simulator is expected to win or lose on it.
	Family string
}

// GHZ wraps the entanglement benchmark of Table Ia.
func GHZ(n int) Benchmark {
	return Benchmark{
		Name:    fmt.Sprintf("entanglement_%d", n),
		Circuit: circuit.GHZ(n),
		Family:  "entanglement: linear-size DD at every step (paper Table Ia)",
	}
}

// QFT wraps the Quantum Fourier Transform benchmark of Table Ib,
// applied to a non-trivial basis input so the transform produces the
// characteristic linear-phase superposition.
func QFT(n int) Benchmark {
	var bits uint64
	for q := 0; q < n; q += 3 {
		bits |= 1 << uint(n-1-q)
	}
	return Benchmark{
		Name:    fmt.Sprintf("qft_%d", n),
		Circuit: circuit.QFTWithInput(n, bits),
		Family:  "qft: product-of-phases state, polynomial DD (paper Table Ib)",
	}
}

// BV builds a Bernstein–Vazirani circuit on n qubits (n−1 input
// qubits plus one oracle ancilla) with a pseudo-random secret string.
// The state stays a tensor product throughout, so DDs remain linear —
// the family where Table Ic reports a ~2× win.
func BV(n int) Benchmark {
	if n < 2 {
		panic("qbench: BV needs at least 2 qubits")
	}
	secret := uint64(0)
	rng := rand.New(rand.NewSource(int64(n) * 7919))
	for i := 0; i < n-1; i++ {
		if rng.Intn(2) == 1 {
			secret |= 1 << uint(i)
		}
	}
	c := circuit.New(fmt.Sprintf("bv_%d", n), n)
	anc := n - 1
	c.X(anc).H(anc)
	for q := 0; q < n-1; q++ {
		c.H(q)
	}
	for q := 0; q < n-1; q++ {
		if secret>>uint(q)&1 == 1 {
			c.CX(q, anc)
		}
	}
	for q := 0; q < n-1; q++ {
		c.H(q)
	}
	for q := 0; q < n-1; q++ {
		c.Measure(q, q)
	}
	return Benchmark{
		Name:    c.Name,
		Circuit: c,
		Family:  "bv: product states throughout, linear DDs (Table Ic win)",
	}
}

// Ising builds a first-order Trotterised transverse-field Ising model
// evolution: alternating RZZ couplings on a chain and RX fields, with
// incommensurate angles. The state develops exponentially many
// distinct amplitudes, which defeats DD compression — this is one of
// the three Table Ic circuits where the proposed simulator *loses*.
func Ising(n, steps int) Benchmark {
	c := circuit.New(fmt.Sprintf("ising_%d", n), n)
	j, h := 0.731, 1.117
	for s := 0; s < steps; s++ {
		for q := 0; q+1 < n; q++ {
			// rzz(2·J·dt) decomposed as cx, rz, cx.
			c.CX(q, q+1)
			c.RZ(q+1, 2*j*0.1*(1+0.01*float64(q)))
			c.CX(q, q+1)
		}
		for q := 0; q < n; q++ {
			c.RX(q, 2*h*0.1*(1+0.013*float64(q)))
		}
	}
	return Benchmark{
		Name:    c.Name,
		Circuit: c,
		Family:  "ising: dense amplitude structure, DD blow-up (Table Ic loss)",
	}
}

// VQEUCCSD builds a UCCSD-style variational ansatz: layers of
// single-qubit RY/RZ rotations with pseudo-random ("optimised")
// angles and entangling CX ladders. Amplitudes become generic, so the
// DD representation saturates at ~2^n nodes — the paper's vqe_uccsd_8
// loss case.
func VQEUCCSD(n, layers int) Benchmark {
	c := circuit.New(fmt.Sprintf("vqe_uccsd_%d", n), n)
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(layers)))
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.RY(q, rng.Float64()*2*math.Pi)
			c.RZ(q, rng.Float64()*2*math.Pi)
		}
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
		}
		for q := n - 2; q >= 0; q -= 2 {
			c.CX(q+1, q)
		}
	}
	for q := 0; q < n; q++ {
		c.RY(q, rng.Float64()*2*math.Pi)
	}
	return Benchmark{
		Name:    c.Name,
		Circuit: c,
		Family:  "vqe_uccsd: generic amplitudes, DD saturates (Table Ic loss)",
	}
}

// BasisTrotter mirrors QASMBench's basis_trotter_4: a very deep
// Trotterised chemistry evolution on few qubits — thousands of
// rotations and CNOTs. Runtime is dominated by sheer gate count, and
// the generic amplitudes leave decision diagrams little to share: in
// the bench-ratchet configuration (10 runs, paper noise, 2-vCPU Xeon)
// basis_trotter_4 took 0.64 s on DD against 0.010 s on statevec,
// about 60× slower (Table Ic's first row).
func BasisTrotter(n, steps int) Benchmark {
	c := circuit.New(fmt.Sprintf("basis_trotter_%d", n), n)
	for s := 0; s < steps; s++ {
		phase := 0.02 * float64(s+1)
		for q := 0; q < n; q++ {
			c.RZ(q, phase*(1+0.1*float64(q)))
			c.H(q)
		}
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
			c.RZ(q+1, phase*0.5)
			c.CX(q, q+1)
		}
		for q := 0; q < n; q++ {
			c.H(q)
			c.RZ(q, -phase*(1+0.07*float64(q)))
		}
	}
	return Benchmark{
		Name:    c.Name,
		Circuit: c,
		Family:  "basis_trotter: gate-count bound, modest DD win (Table Ic)",
	}
}

// BigAdder builds a reversible ripple-carry adder on basis-state
// inputs, the Table Ic bigadder family: purely classical reversible
// logic keeps the state a single basis vector, so the DD has n nodes
// and the proposed simulator wins by orders of magnitude. n is the
// total qubit count; the adder width is the largest fitting
// ⌊(n−1)/3⌋ bits, with any leftover qubits idle padding (they still
// double the baselines' state vectors).
func BigAdder(n int) Benchmark {
	bits := (n - 1) / 3
	if bits < 2 {
		panic("qbench: BigAdder needs at least 7 qubits")
	}
	c := circuit.New(fmt.Sprintf("bigadder_%d", n), n)
	a := make([]int, bits)
	b := make([]int, bits)
	cr := make([]int, bits)
	for i := 0; i < bits; i++ {
		a[i] = i
		b[i] = bits + i
		cr[i] = 2*bits + i
	}
	ovf := 3 * bits

	// Prepare non-trivial classical inputs a = …1011, b = …0110.
	for i := 0; i < bits; i++ {
		if i%3 != 1 {
			c.X(a[i])
		}
		if i%2 == 1 {
			c.X(b[i])
		}
	}
	// Ripple-carry: carry_{i+1} = maj(a_i, b_i, carry_i) computed into
	// the clean carry chain, then sum_i = a_i ⊕ b_i ⊕ carry_i in b.
	for i := 0; i < bits; i++ {
		cout := ovf
		if i+1 < bits {
			cout = cr[i+1]
		}
		c.CCX(a[i], b[i], cout)
		c.CCX(a[i], cr[i], cout)
		c.CCX(b[i], cr[i], cout)
		c.CX(a[i], b[i])
		c.CX(cr[i], b[i])
	}
	return Benchmark{
		Name:    c.Name,
		Circuit: c,
		Family:  "bigadder: classical reversible logic, basis-state DD (Table Ic win)",
	}
}

// Multiplier builds a reversible shift-and-add multiplier on basis
// inputs (Table Ic's multiplier family): for every partial-product
// bit x_i·y_j, a controlled incrementer (an MCX cascade) adds 2^(i+j)
// into the product register. All gates are multi-controlled X, the
// state stays one basis vector, DDs stay linear. n is the total qubit
// count; the operand width is ⌊n/4⌋ bits.
func Multiplier(n int) Benchmark {
	bits := n / 4
	if bits < 2 {
		panic("qbench: Multiplier needs at least 8 qubits")
	}
	c := circuit.New(fmt.Sprintf("multiplier_%d", n), n)
	x := make([]int, bits)
	y := make([]int, bits)
	prod := make([]int, 2*bits)
	for i := range x {
		x[i] = i
		y[i] = bits + i
	}
	for i := range prod {
		prod[i] = 2*bits + i
	}

	// Basis inputs: x = 0b11…, y = 0b101….
	for i := 0; i < bits; i++ {
		if i%2 == 0 {
			c.X(x[i])
		}
		if i != 1 {
			c.X(y[i])
		}
	}
	// Controlled incrementer: adding 1 at bit k of prod, controlled on
	// x_i and y_j, flips prod[b] iff all lower product bits k..b−1 are
	// set (carry propagation), highest bit first.
	for i := 0; i < bits; i++ {
		for j := 0; j < bits; j++ {
			k := i + j
			for b := len(prod) - 1; b >= k; b-- {
				controls := []int{x[i], y[j]}
				for l := k; l < b; l++ {
					controls = append(controls, prod[l])
				}
				c.MCX(controls, prod[b])
			}
		}
	}
	return Benchmark{
		Name:    c.Name,
		Circuit: c,
		Family:  "multiplier: Toffoli arithmetic on basis states (Table Ic win)",
	}
}

// mcxVChain appends a multi-controlled X decomposed into Toffolis via
// a clean-ancilla V-chain, keeping the emitted ops ≤ 2 controls so
// circuits stay OpenQASM-writable.
func mcxVChain(c *circuit.Circuit, controls, ancillas []int, target int) {
	k := len(controls)
	switch {
	case k == 0:
		c.X(target)
	case k == 1:
		c.CX(controls[0], target)
	case k == 2:
		c.CCX(controls[0], controls[1], target)
	default:
		if len(ancillas) < k-2 {
			panic("qbench: mcxVChain needs k-2 ancillas")
		}
		c.CCX(controls[0], controls[1], ancillas[0])
		for i := 2; i < k-1; i++ {
			c.CCX(controls[i], ancillas[i-2], ancillas[i-1])
		}
		c.CCX(controls[k-1], ancillas[k-3], target)
		for i := k - 2; i >= 2; i-- {
			c.CCX(controls[i], ancillas[i-2], ancillas[i-1])
		}
		c.CCX(controls[0], controls[1], ancillas[0])
	}
}

// SAT builds a Grover-style satisfiability search (Table Ic's sat
// family): an equal superposition over m problem qubits, a phase
// oracle marking one assignment, and the diffusion operator, with all
// multi-controlled gates decomposed into Toffoli V-chains over
// ancilla qubits. The state stays a low-rank superposition, so DDs
// remain small (Table Ic win).
func SAT(n int) Benchmark {
	if n < 5 {
		panic("qbench: SAT needs at least 5 qubits")
	}
	// Layout: m problem qubits, k ancillas, 1 oracle target.
	m := (n - 1 + 2) / 2 // roughly half problem qubits
	if m < 3 {
		m = 3
	}
	anc := n - 1 - m
	for anc < m-2 { // ensure enough ancillas for the V-chain
		m--
		anc = n - 1 - m
	}
	c := circuit.New(fmt.Sprintf("sat_%d", n), n)
	problem := make([]int, m)
	ancillas := make([]int, anc)
	for i := range problem {
		problem[i] = i
	}
	for i := range ancillas {
		ancillas[i] = m + i
	}
	oracle := n - 1

	c.X(oracle).H(oracle)
	for _, q := range problem {
		c.H(q)
	}
	iterations := int(math.Round(math.Pi / 4 * math.Sqrt(float64(uint(1)<<uint(m)))))
	if iterations < 1 {
		iterations = 1
	}
	marked := uint64(0b101) // the satisfying assignment (low bits)
	for it := 0; it < iterations; it++ {
		// Oracle: flip the target iff problem register == marked.
		for i, q := range problem {
			if marked>>uint(i)&1 == 0 {
				c.X(q)
			}
		}
		mcxVChain(c, problem, ancillas, oracle)
		for i, q := range problem {
			if marked>>uint(i)&1 == 0 {
				c.X(q)
			}
		}
		// Diffusion: H X on all, multi-controlled Z on the last problem
		// qubit (an MCX conjugated by H), then X H back.
		for _, q := range problem {
			c.H(q).X(q)
		}
		last := problem[len(problem)-1]
		c.H(last)
		mcxVChain(c, problem[:len(problem)-1], ancillas, last)
		c.H(last)
		for _, q := range problem {
			c.X(q).H(q)
		}
	}
	return Benchmark{
		Name:    c.Name,
		Circuit: c,
		Family:  "sat: Grover search, low-rank superposition (Table Ic win)",
	}
}

// SECA builds a Shor-error-correction-algorithm style circuit
// (Table Ic's seca family on 11 qubits): encode a logical qubit into
// the 9-qubit Shor code with 2 work qubits, inject an error, decode
// and correct. The state is a small superposition of code words —
// ideal DD territory.
func SECA(n int) Benchmark {
	if n < 11 {
		panic("qbench: SECA needs 11 qubits")
	}
	c := circuit.New(fmt.Sprintf("seca_%d", n), n)
	// Logical input: superposed qubit on block leader 0.
	c.RY(0, 0.7)
	// Phase-flip code across block leaders 0,3,6.
	c.CX(0, 3).CX(0, 6)
	c.H(0).H(3).H(6)
	// Bit-flip code within each block.
	for _, lead := range []int{0, 3, 6} {
		c.CX(lead, lead+1).CX(lead, lead+2)
	}
	// Error injection on qubit 4 (bit flip + phase flip).
	c.X(4).Z(4)
	// Decode: reverse encoding.
	for _, lead := range []int{0, 3, 6} {
		c.CX(lead, lead+1).CX(lead, lead+2)
		c.CCX(lead+1, lead+2, lead)
	}
	c.H(0).H(3).H(6)
	c.CX(0, 3).CX(0, 6)
	c.CCX(3, 6, 0)
	// Work qubits record a parity syndrome.
	c.CX(1, 9).CX(2, 9)
	c.CX(4, 10).CX(5, 10)
	return Benchmark{
		Name:    c.Name,
		Circuit: c,
		Family:  "seca: stabiliser-code words, compact DDs (Table Ic win)",
	}
}

// CC mirrors the counterfeit-coin family (Table Ic's cc_18, one of
// the DD losses): a broad superposition over coin subsets is built
// with Hadamards, entangled with a balance ancilla, then dressed with
// incommensurate phase rotations — after which amplitudes are generic
// and the DD saturates.
func CC(n int) Benchmark {
	if n < 3 {
		panic("qbench: CC needs at least 3 qubits")
	}
	c := circuit.New(fmt.Sprintf("cc_%d", n), n)
	balance := n - 1
	for q := 0; q < n-1; q++ {
		c.H(q)
	}
	// Weighing: coins touch the balance.
	for q := 0; q < n-1; q++ {
		c.CX(q, balance)
	}
	// Phase structure that breaks amplitude degeneracy (the generic-
	// amplitude regime responsible for the paper's cc blow-up).
	for q := 0; q < n-1; q++ {
		c.Phase(q, 0.37*float64(q+1))
		if q+1 < n-1 {
			c.CPhase(q, q+1, 0.23*float64(q+1))
		}
	}
	c.H(balance)
	for q := 0; q < n-1; q++ {
		c.CX(q, balance)
		c.RY(q, 0.11*float64(q+3))
	}
	for q := 0; q < n-1; q++ {
		c.H(q)
	}
	return Benchmark{
		Name:    c.Name,
		Circuit: c,
		Family:  "cc: generic amplitudes after phase dressing, DD loss (Table Ic)",
	}
}

// TableIc returns the ten Table Ic workloads at the paper's sizes.
func TableIc() []Benchmark {
	return []Benchmark{
		BasisTrotter(4, 400),
		VQEUCCSD(6, 40),
		VQEUCCSD(8, 60),
		Ising(10, 30),
		SECA(11),
		SAT(11),
		Multiplier(15),
		BigAdder(18),
		CC(18),
		BV(19),
	}
}
