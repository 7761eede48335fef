package cnum

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// boundaryProbes derives lookups that straddle the hash-grid cell
// boundaries around (re,im): offsets of ±tol/2 (same representative),
// ±2·tol (distinct representative) and ±(cell−tol/2) (adjacent cell,
// within reach of the single-probe neighbour guarantee).
func boundaryProbes(t *Table, re, im float64) [][2]float64 {
	offs := []float64{0, t.tol / 2, -t.tol / 2, 2 * t.tol, -2 * t.tol, t.cell - t.tol/2, -(t.cell - t.tol/2)}
	var out [][2]float64
	for _, dr := range offs {
		out = append(out, [2]float64{re + dr, im}, [2]float64{re, im + dr}, [2]float64{re + dr, im - dr})
	}
	return out
}

// feedBoth sends one lookup to the table and the reference and fails
// unless the returned representatives are bit-identical.
func feedBoth(t *testing.T, sw *Table, ref *refTable, re, im float64) (*Value, *refValue) {
	t.Helper()
	a, b := sw.Lookup(re, im), ref.lookup(re, im)
	sameBits(t, fmt.Sprintf("tol=%g Lookup(%v,%v)", sw.tol, re, im), a, b)
	return a, b
}

// TestSwissChainedLookupIdentical drives identical random workloads —
// including cell-boundary straddlers and derived Mul/Div/Add/Neg/Conj
// traffic — through the swiss table and the map-based reference
// (refTable) at the default and the exact-engine tolerance, demanding
// bit-identical representatives throughout. This is the table-level
// core of the kernel's differential guarantee.
func TestSwissChainedLookupIdentical(t *testing.T) {
	for _, tol := range []float64{Tolerance, 1e-14} {
		sw, ch := NewTableTol(tol), newRefTable(tol)
		rng := rand.New(rand.NewSource(41))
		var swVals []*Value
		var chVals []*refValue
		for i := 0; i < 4000; i++ {
			var re, im float64
			switch i % 3 {
			case 0: // generic amplitudes
				re, im = rng.NormFloat64(), rng.NormFloat64()
			case 1: // near-underflow magnitudes around the tolerance
				s := math.Pow(10, -4-6*rng.Float64()) // 1e-4 .. 1e-10
				re, im = s*rng.NormFloat64(), s*rng.NormFloat64()
			default: // revisit an earlier value's neighbourhood
				if len(swVals) == 0 {
					continue
				}
				v := swVals[rng.Intn(len(swVals))]
				re = v.Re() + (rng.Float64()-0.5)*4*tol
				im = v.Im() + (rng.Float64()-0.5)*4*tol
			}
			a, b := feedBoth(t, sw, ch, re, im)
			swVals = append(swVals, a)
			chVals = append(chVals, b)
			for _, pr := range boundaryProbes(sw, re, im) {
				feedBoth(t, sw, ch, pr[0], pr[1])
			}
			// Derived arithmetic traffic exercises the snap/identity
			// fast paths on interned operands.
			if len(swVals) > 1 {
				j := rng.Intn(len(swVals) - 1)
				sa, ca := swVals[j], chVals[j]
				sameBits(t, "Mul", sw.Mul(a, sa), ch.mul(b, ca))
				sameBits(t, "Add", sw.Add(a, sa), ch.add(b, ca))
				sameBits(t, "Neg", sw.Neg(a), ch.neg(b))
				sameBits(t, "Conj", sw.Conj(a), ch.conj(b))
				if sa != sw.Zero {
					sameBits(t, "Div", sw.Div(a, sa), ch.div(b, ca))
				}
			}
		}
		if sw.Count() != ch.count {
			t.Fatalf("tol=%g: table holds %d values, reference %d", tol, sw.Count(), ch.count)
		}
	}
}

// TestSwissSweepIdentical marks the same survivor set in the table and
// the reference and checks Sweep agrees on the drop count, the
// surviving population, and the representatives returned afterwards —
// covering the per-cell chain filtering and the tombstone-free
// control-word rebuild.
func TestSwissSweepIdentical(t *testing.T) {
	sw, ch := NewTable(), newRefTable(Tolerance)
	rng := rand.New(rand.NewSource(97))
	var swVals []*Value
	var chVals []*refValue
	for i := 0; i < 3000; i++ {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		a, b := feedBoth(t, sw, ch, re, im)
		swVals = append(swVals, a)
		chVals = append(chVals, b)
	}
	// Pin a few root weights; mark every third value.
	for i := 0; i < 10; i++ {
		sw.Pin(swVals[i*7])
		chVals[i*7].pins++
	}
	sw.BeginMark()
	ch.beginMark()
	for i := 0; i < len(swVals); i += 3 {
		sw.Mark(swVals[i])
		chVals[i].marked = true
	}
	ds, dc := sw.Sweep(), ch.sweep()
	if ds != dc {
		t.Fatalf("Sweep dropped %d (table) vs %d (reference)", ds, dc)
	}
	if sw.Count() != ch.count {
		t.Fatalf("post-sweep counts differ: %d vs %d", sw.Count(), ch.count)
	}
	// Survivors must still intern to themselves; new traffic must stay
	// identical after the rebuild (recycled slots included).
	for i := 0; i < len(swVals); i += 3 {
		if got := sw.Lookup(swVals[i].Re(), swVals[i].Im()); got != swVals[i] {
			t.Fatalf("marked survivor %d not found after swiss sweep", i)
		}
	}
	for i := 0; i < 2000; i++ {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		feedBoth(t, sw, ch, re, im)
	}
}

// TestSwissCellGrowth forces the cell directory through several
// rehashes and verifies no value is lost or duplicated: every
// previously interned representative is still found by a fresh lookup
// of its exact coordinates, and the live count matches.
func TestSwissCellGrowth(t *testing.T) {
	tb := NewTable()
	const n = 20000 // well past the 4096-slot initial directory
	vals := make([]*Value, 0, n)
	for i := 0; i < n; i++ {
		// Distinct cells: spacing 10·cell guarantees no sharing (i+1
		// keeps x away from 0, which would snap to the interned Zero).
		x := float64(i+1) * 10 * tb.cell
		vals = append(vals, tb.Lookup(x, -x))
	}
	if got := tb.Count(); got != n+2 { // +Zero +One
		t.Fatalf("Count() = %d, want %d", got, n+2)
	}
	for i, v := range vals {
		if got := tb.Lookup(v.Re(), v.Im()); got != v {
			t.Fatalf("value %d lost across cell-directory growth", i)
		}
	}
}

// TestSwissNeighborGuarantee: the 4·tol cell geometry must keep the
// "home cell plus at most the boundary-adjacent cell per axis"
// single-probe guarantee: a value interned just
// under a cell boundary is found when probed from the far side.
func TestSwissNeighborGuarantee(t *testing.T) {
	tb := NewTable()
	cell := tb.cell
	base := 123 * cell // a cell boundary
	v := tb.Lookup(base-tb.tol/4, 0)
	if got := tb.Lookup(base+tb.tol/4, 0); got != v {
		t.Fatalf("cross-boundary probe missed: %v vs %v", got, v)
	}
	w := tb.Lookup(0, base+cell-tb.tol/4)
	if got := tb.Lookup(0, base+cell+tb.tol/4); got != w {
		t.Fatalf("imaginary-axis cross-boundary probe missed")
	}
	// Diagonal: both components near a boundary.
	d := tb.Lookup(base-tb.tol/4, base-tb.tol/4)
	if got := tb.Lookup(base+tb.tol/4, base+tb.tol/4); got != d {
		t.Fatalf("diagonal cross-boundary probe missed")
	}
}

// TestSwissPinSurvivesSweep: a pinned root weight survives an unmarked
// sweep of the cell directory and its storage is not recycled.
func TestSwissPinSurvivesSweep(t *testing.T) {
	tb := NewTable()
	v := tb.Lookup(0.123456, -0.654321)
	tb.Pin(v)
	tb.BeginMark()
	if tb.Sweep() != 0 {
		t.Fatalf("pinned value swept")
	}
	if got := tb.Lookup(0.123456, -0.654321); got != v {
		t.Fatalf("pinned value lost identity after sweep")
	}
	tb.Unpin(v)
	tb.BeginMark()
	if tb.Sweep() != 1 {
		t.Fatalf("unpinned value not swept")
	}
}
