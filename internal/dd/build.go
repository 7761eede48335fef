package dd

import "fmt"

// Mat2 is a dense 2×2 complex matrix, the elementary building block of
// every operation diagram (row-major: [row][col]).
type Mat2 [2][2]complex128

// ZeroState returns the decision diagram of |0…0⟩. The diagram is a
// chain of n nodes whose |1⟩ successors are all zero stubs — the
// textbook example of DD compactness (n nodes for a 2^n vector).
func (p *Package) ZeroState() VEdge {
	return p.BasisState(0)
}

// BasisState returns the decision diagram of the computational basis
// state |bits⟩, where bit i of bits (counting from the least
// significant bit) is the value of qubit q_{n-1-i}; i.e. bits is the
// integer index into the state vector, matching the paper's ordering
// with q0 most significant.
func (p *Package) BasisState(bits uint64) VEdge {
	if p.nQubits < MaxQubits && bits >= 1<<uint(p.nQubits) {
		panic(fmt.Sprintf("dd: basis state %d out of range for %d qubits", bits, p.nQubits))
	}
	e := p.TerminalEdge(p.W.One)
	for level := 1; level <= p.nQubits; level++ {
		bit := (bits >> uint(level-1)) & 1
		if bit == 0 {
			e = p.makeVNode(level, e, p.ZeroEdge())
		} else {
			e = p.makeVNode(level, p.ZeroEdge(), e)
		}
	}
	return e
}

// FromVector builds the decision diagram representing the given
// amplitude vector. len(amps) must equal 2^n. Intended for tests and
// small-scale cross-validation against the array backends.
func (p *Package) FromVector(amps []complex128) VEdge {
	if len(amps) != 1<<uint(p.nQubits) {
		panic(fmt.Sprintf("dd: FromVector got %d amplitudes, want %d", len(amps), 1<<uint(p.nQubits)))
	}
	return p.fromVectorRec(amps, p.nQubits)
}

func (p *Package) fromVectorRec(amps []complex128, level int) VEdge {
	if level == 0 {
		return p.TerminalEdge(p.W.LookupC(amps[0]))
	}
	half := len(amps) / 2
	e0 := p.fromVectorRec(amps[:half], level-1)
	e1 := p.fromVectorRec(amps[half:], level-1)
	return p.makeVNode(level, e0, e1)
}

// FromMatrix builds a matrix diagram from a dense 2^n × 2^n matrix
// given in row-major order. Intended for tests.
func (p *Package) FromMatrix(m [][]complex128) MEdge {
	dim := 1 << uint(p.nQubits)
	if len(m) != dim {
		panic(fmt.Sprintf("dd: FromMatrix got %d rows, want %d", len(m), dim))
	}
	return p.fromMatrixRec(m, 0, 0, dim, p.nQubits)
}

func (p *Package) fromMatrixRec(m [][]complex128, r, c, size, level int) MEdge {
	if level == 0 {
		return MEdge{N: nil, W: p.W.LookupC(m[r][c])}
	}
	h := size / 2
	var e [4]MEdge
	e[0] = p.fromMatrixRec(m, r, c, h, level-1)
	e[1] = p.fromMatrixRec(m, r, c+h, h, level-1)
	e[2] = p.fromMatrixRec(m, r+h, c, h, level-1)
	e[3] = p.fromMatrixRec(m, r+h, c+h, h, level-1)
	return p.makeMNode(level, e)
}

// Identity returns the matrix diagram of the 2^n × 2^n identity — a
// linear-size chain of nodes.
func (p *Package) Identity() MEdge {
	e := MEdge{N: nil, W: p.W.One}
	for level := 1; level <= p.nQubits; level++ {
		e = p.makeMNode(level, [4]MEdge{e, p.ZeroMEdge(), p.ZeroMEdge(), e})
	}
	return e
}

// ProductOperator builds the matrix diagram of the Kronecker product
// factors[0] ⊗ factors[1] ⊗ … ⊗ factors[n-1], where factors[q] acts on
// qubit q (q0 most significant / top level). Every factor that is nil
// is taken to be the 2×2 identity. Construction is bottom-up and adds
// at most one node per level, so arbitrary product operators (identity
// chains, Pauli strings, projector chains) cost O(n) nodes.
func (p *Package) ProductOperator(factors []*Mat2) MEdge {
	if len(factors) != p.nQubits {
		panic(fmt.Sprintf("dd: ProductOperator got %d factors, want %d", len(factors), p.nQubits))
	}
	e := MEdge{N: nil, W: p.W.One}
	for level := 1; level <= p.nQubits; level++ {
		f := factors[p.levelToQubit(level)]
		if f == nil {
			f = &identity
		}
		var kids [4]MEdge
		kids[0] = p.scaleM(e, p.W.LookupC(f[0][0]))
		kids[1] = p.scaleM(e, p.W.LookupC(f[0][1]))
		kids[2] = p.scaleM(e, p.W.LookupC(f[1][0]))
		kids[3] = p.scaleM(e, p.W.LookupC(f[1][1]))
		e = p.makeMNode(level, kids)
	}
	return e
}

// Embed2x2 returns the one-level matrix diagram of a bare 2×2 matrix.
// Useful as a Kron operand and in tests.
func (p *Package) Embed2x2(u Mat2) MEdge {
	var e [4]MEdge
	e[0] = MEdge{N: nil, W: p.W.LookupC(u[0][0])}
	e[1] = MEdge{N: nil, W: p.W.LookupC(u[0][1])}
	e[2] = MEdge{N: nil, W: p.W.LookupC(u[1][0])}
	e[3] = MEdge{N: nil, W: p.W.LookupC(u[1][1])}
	return p.makeMNode(1, e)
}

// Control describes a control qubit of a gate. Positive controls
// trigger on |1⟩ (the usual case), negative controls on |0⟩.
type Control struct {
	Qubit    int
	Negative bool
}

// SingleQubitGate returns the matrix diagram of the n-qubit operator
// that applies u to the target qubit and the identity elsewhere.
func (p *Package) SingleQubitGate(u Mat2, target int) MEdge {
	factors := p.factorSlice()
	p.targetScratch = u
	factors[target] = &p.targetScratch
	return p.ProductOperator(factors)
}

// The control projectors and the identity factor of the gate builders,
// shared read-only (ProductOperator only reads its factors).
var (
	projZero = Mat2{{1, 0}, {0, 0}}
	projOne  = Mat2{{0, 0}, {0, 1}}
	identity = Mat2{{1, 0}, {0, 1}}
)

// ControlledGate returns the matrix diagram of the controlled
// operator: u is applied to the target qubit iff every positive
// control is |1⟩ and every negative control is |0⟩.
//
// The diagram is assembled compositionally:
//
//	CU = I − (P_ctrl ⊗ I_target) + (P_ctrl ⊗ U_target)
//
// where P_ctrl is the projector chain selecting the triggering control
// subspace. All three pieces are linear-size product operators, so the
// construction costs O(n) nodes regardless of the number of controls.
func (p *Package) ControlledGate(u Mat2, target int, controls []Control) MEdge {
	if len(controls) == 0 {
		return p.SingleQubitGate(u, target)
	}
	factors := p.factorSlice()
	for _, c := range controls {
		if c.Qubit == target {
			panic("dd: control coincides with target")
		}
		if factors[c.Qubit] != nil {
			panic(fmt.Sprintf("dd: duplicate control on qubit %d", c.Qubit))
		}
		if c.Negative {
			factors[c.Qubit] = &projZero
		} else {
			factors[c.Qubit] = &projOne
		}
	}

	factors[target] = &identity
	projID := p.ProductOperator(factors) // P_ctrl ⊗ I_target
	p.targetScratch = u
	factors[target] = &p.targetScratch
	projU := p.ProductOperator(factors) // P_ctrl ⊗ U_target

	return p.AddM(p.SubM(p.Identity(), projID), projU)
}
