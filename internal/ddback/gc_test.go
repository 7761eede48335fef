package ddback

import (
	"math/rand"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/noise"
	"ddsim/internal/qbench"
)

// TestPeakNodesFitRegister: a DD-loss circuit on a small register
// keeps its unique table near the package's register-sized start
// threshold (16 384 nodes at 6 qubits; the bound allows one doubling
// plus the nodes of one gate) instead of growing toward the
// 250 000-node threshold of wide registers. With that fixed start this
// run peaked at 170 737 vector nodes.
func TestPeakNodesFitRegister(t *testing.T) {
	c := qbench.VQEUCCSD(6, 10).Circuit
	b := build(t, c)
	defer b.Release()
	plan, err := noise.PaperDefaults().Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 200; run++ {
		b.Reset()
		for i := range c.Ops {
			if c.Ops[i].Kind != circuit.KindGate {
				continue
			}
			b.ApplyOp(i)
			if on := plan.At(i); on != nil {
				on.ApplyPost(b, rng)
			}
		}
	}
	const bound = 40000
	if peak := b.Package().PeakVNodes(); peak > bound {
		t.Errorf("peak vector nodes = %d, want <= %d", peak, bound)
	}
}
