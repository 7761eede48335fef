package dd

import (
	"io/fs"
	"math/cmplx"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGCStartThresholds: the start thresholds follow the register
// width, 2^(n+8) nodes clamped to [8192, 250000], and 1.6 times that
// many weights.
func TestGCStartThresholds(t *testing.T) {
	for _, tc := range []struct{ n, nodes int }{
		{1, 8192}, {5, 8192}, {6, 16384}, {8, 65536}, {9, 131072}, {10, 250000}, {MaxQubits, 250000},
	} {
		p := NewPackage(tc.n)
		if p.gcThreshold != tc.nodes || p.wGCThreshold != tc.nodes*8/5 {
			t.Errorf("n=%d: thresholds %d/%d, want %d/%d",
				tc.n, p.gcThreshold, p.wGCThreshold, tc.nodes, tc.nodes*8/5)
		}
		p.Release()
	}
}

// TestSmallRegisterPinnedLiveSetDoubles: a 2-qubit package whose
// pinned live set outgrows its 8192-node start threshold doubles the
// threshold after the first useless sweep instead of sweeping again on
// every check, and the pinned diagrams survive.
func TestSmallRegisterPinnedLiveSetDoubles(t *testing.T) {
	p := NewPackage(2)
	defer p.Release()
	start := p.gcThreshold
	rng := rand.New(rand.NewSource(3))
	var pinned []VEdge
	var amps [][]complex128
	for p.VNodeCount() < start*3/2 {
		a := make([]complex128, 4)
		for i := range a {
			a[i] = complex(rng.Float64()+0.1, rng.Float64())
		}
		e := p.FromVector(a)
		p.Ref(e)
		pinned = append(pinned, e)
		amps = append(amps, a)
	}
	if !p.MaybeGC() {
		t.Fatal("no collection with the live set over the start threshold")
	}
	if p.gcThreshold != 2*start {
		t.Errorf("node threshold %d after a useless sweep, want %d", p.gcThreshold, 2*start)
	}
	for i := 0; i < 1000; i++ {
		p.MaybeGC()
	}
	if runs := p.GCRuns(); runs > 2 {
		t.Errorf("%d collections for a live set below twice the start threshold, want at most 2", runs)
	}
	if p.NeedsGC() {
		t.Errorf("still over threshold: %d nodes / %d, %d weights / %d",
			p.VNodeCount()+p.MNodeCount(), p.gcThreshold, p.W.Count(), p.wGCThreshold)
	}
	for k, e := range pinned {
		for i, want := range amps[k] {
			if got := p.Amplitude(e, uint64(i)); cmplx.Abs(got-want) > 1e-9 {
				t.Fatalf("pinned state %d amplitude %d = %v, want %v", k, i, got, want)
			}
		}
		p.Unref(e)
	}
}

// TestSetGCThresholdsTestOnly: SetGCThresholds is a seam for tests of
// the collector. Production code gets its thresholds from the register
// width, so no non-test file outside this package calls it.
func TestSetGCThresholdsTestOnly(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			path == filepath.Join(root, "internal", "dd", "gc.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.Contains(string(src), "SetGCThresholds(") {
			t.Errorf("%s calls SetGCThresholds outside a test", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
