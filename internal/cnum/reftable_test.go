package cnum

import (
	"math"
	"testing"
)

// refTable is the test-only reference weight directory the production
// Table is compared against. It implements the interning contract in
// the plainest way: a Go map from tolerance-grid cell (qr, qi) to that
// cell's values, newest first; a lookup probes the home cell, the
// real-axis neighbour, the imaginary-axis neighbour and the diagonal,
// in that order, and the first value within tol per component wins.
// Snapping, the Zero/One fast paths of the arithmetic helpers and
// mark/sweep follow the same rules as Table, written independently of
// its swiss-table directory, slab arena and free list.
type refTable struct {
	tol, cell float64
	cells     map[[2]int64][]*refValue
	count     int
	zero, one *refValue
}

type refValue struct {
	re, im float64
	pins   int
	marked bool
}

func newRefTable(tol float64) *refTable {
	r := &refTable{tol: tol, cell: 4 * tol, cells: map[[2]int64][]*refValue{}}
	r.zero = r.lookup(0, 0)
	r.one = r.lookup(1, 0)
	return r
}

func (r *refTable) snap(x float64) float64 {
	for _, c := range []float64{0, 1, -1, math.Sqrt2 / 2, -math.Sqrt2 / 2} {
		if math.Abs(x-c) <= r.tol {
			return c
		}
	}
	return x
}

// near returns −1, +1 or 0: the neighbouring cell along one axis that
// can hold a value within tol of x, if any.
func (r *refTable) near(x float64, q int64) int64 {
	switch off := x - float64(q)*r.cell; {
	case off <= r.tol:
		return -1
	case off >= r.cell-r.tol:
		return 1
	}
	return 0
}

func (r *refTable) lookup(re, im float64) *refValue {
	re, im = r.snap(re), r.snap(im)
	qr, qi := int64(math.Floor(re/r.cell)), int64(math.Floor(im/r.cell))
	nr, ni := r.near(re, qr), r.near(im, qi)
	probes := [][2]int64{{qr, qi}}
	if nr != 0 {
		probes = append(probes, [2]int64{qr + nr, qi})
	}
	if ni != 0 {
		probes = append(probes, [2]int64{qr, qi + ni})
	}
	if nr != 0 && ni != 0 {
		probes = append(probes, [2]int64{qr + nr, qi + ni})
	}
	for _, c := range probes {
		for _, v := range r.cells[c] {
			if math.Abs(v.re-re) <= r.tol && math.Abs(v.im-im) <= r.tol {
				return v
			}
		}
	}
	v := &refValue{re: re, im: im}
	home := [2]int64{qr, qi}
	r.cells[home] = append([]*refValue{v}, r.cells[home]...)
	r.count++
	return v
}

func (r *refTable) lookupC(c complex128) *refValue { return r.lookup(real(c), imag(c)) }

func (v *refValue) c() complex128 { return complex(v.re, v.im) }

func (r *refTable) mul(a, b *refValue) *refValue {
	switch {
	case a == r.zero || b == r.zero:
		return r.zero
	case a == r.one:
		return b
	case b == r.one:
		return a
	}
	return r.lookupC(a.c() * b.c())
}

func (r *refTable) div(a, b *refValue) *refValue {
	switch {
	case a == r.zero:
		return r.zero
	case b == r.one:
		return a
	case a == b:
		return r.one
	}
	return r.lookupC(a.c() / b.c())
}

func (r *refTable) add(a, b *refValue) *refValue {
	switch {
	case a == r.zero:
		return b
	case b == r.zero:
		return a
	}
	return r.lookupC(a.c() + b.c())
}

func (r *refTable) neg(a *refValue) *refValue {
	if a == r.zero {
		return a
	}
	return r.lookup(-a.re, -a.im)
}

func (r *refTable) conj(a *refValue) *refValue {
	if a.im == 0 {
		return a
	}
	return r.lookup(a.re, -a.im)
}

func (r *refTable) beginMark() {
	for _, vs := range r.cells {
		for _, v := range vs {
			v.marked = false
		}
	}
}

// sweep drops every unmarked, unpinned value except zero and one,
// keeping each cell's survivors in their order.
func (r *refTable) sweep() int {
	dropped := 0
	for c, vs := range r.cells {
		keep := vs[:0]
		for _, v := range vs {
			if v.marked || v.pins > 0 || v == r.zero || v == r.one {
				keep = append(keep, v)
			} else {
				dropped++
			}
		}
		if len(keep) == 0 {
			delete(r.cells, c)
		} else {
			r.cells[c] = keep
		}
	}
	r.count -= dropped
	return dropped
}

// sameBits fails the test unless a production value and a reference
// value hold bit-identical coordinates.
func sameBits(t *testing.T, what string, a *Value, b *refValue) {
	t.Helper()
	if math.Float64bits(a.re) != math.Float64bits(b.re) ||
		math.Float64bits(a.im) != math.Float64bits(b.im) {
		t.Fatalf("%s: table %v%+vi, reference %v%+vi", what, a.re, a.im, b.re, b.im)
	}
}
