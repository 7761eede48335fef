package noise_test

import (
	"testing"

	"ddsim/internal/noise"
	"ddsim/internal/qbench"
)

// TestCompileAllocs pins Compile to a fixed number of allocations per
// job, independent of the circuit's size: the plan, one slab for the
// channels and two for the per-op lists (4 when written). Formatting a
// string cache key per channel cost 4 156 allocations here.
func TestCompileAllocs(t *testing.T) {
	c := qbench.QFT(20).Circuit
	m := noise.PaperDefaults()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.Compile(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Errorf("Compile(qft_20, PaperDefaults) = %v allocations, want <= 32", allocs)
	}
}
