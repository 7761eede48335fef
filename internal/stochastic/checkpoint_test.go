package stochastic

import (
	"math"
	"runtime"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/noise"
	"ddsim/internal/sim"
	"ddsim/internal/sparsemat"
	"ddsim/internal/statevec"
	"ddsim/internal/telemetry"
)

// bvLike builds a Bernstein–Vazirani-shaped circuit: a long
// deterministic gate prefix followed by measurements only, the
// workload class where prefix checkpointing saves almost everything.
func bvLike(n int) *circuit.Circuit {
	c := circuit.New("bv_like", n)
	anc := n - 1
	c.X(anc).H(anc)
	for q := 0; q < n-1; q++ {
		c.H(q)
	}
	for q := 0; q < n-1; q += 2 {
		c.CX(q, anc)
	}
	for q := 0; q < n-1; q++ {
		c.H(q)
	}
	for q := 0; q < n-1; q++ {
		c.Measure(q, q)
	}
	return c
}

// dynamicCircuit interleaves measurements, conditionals and resets
// with long deterministic gate runs — the multi-level checkpoint
// workload.
func dynamicCircuit() *circuit.Circuit {
	c := circuit.New("dynamic", 4)
	c.H(0).CX(0, 1)
	c.Measure(0, 0) // site 0
	for i := 0; i < 12; i++ {
		c.H(2).CX(2, 3).H(2)
	}
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "x", Target: 3,
		Cond: &circuit.Condition{Bits: []int{0}, Value: 1}}) // conditioned on the first outcome
	c.Measure(2, 1) // site 1
	for i := 0; i < 8; i++ {
		c.H(1).CX(1, 3)
	}
	c.Reset(3) // site 2
	c.H(3).CX(3, 0)
	c.Measure(1, 2).Measure(3, 3) // sites 3, 4
	return c
}

// TestAnalyzeCheckpoint pins the prefix analyzer's split decisions:
// where the first probabilistic event can fire for noisy vs noise-free
// models, measurement-led circuits and fully deterministic circuits.
func TestAnalyzeCheckpoint(t *testing.T) {
	bv := bvLike(7)
	gates := bv.GateCount()
	firstMeasure := 0
	for i := range bv.Ops {
		if bv.Ops[i].Kind == circuit.KindMeasure {
			firstMeasure = i
			break
		}
	}

	noisy := noise.PaperDefaults()
	t.Run("noise-free", func(t *testing.T) {
		p := analyzeCheckpoint(bv, nil)
		if p.split != firstMeasure || p.deferred != -1 {
			t.Fatalf("split=%d deferred=%d, want split=%d deferred=-1", p.split, p.deferred, firstMeasure)
		}
		if p.prefixGates != gates {
			t.Errorf("prefixGates=%d, want %d", p.prefixGates, gates)
		}
		if len(p.sites) != 6 {
			t.Errorf("sites=%v, want the 6 measurements", p.sites)
		}
		if !p.worthwhile() {
			t.Error("a full-gate prefix must be worthwhile")
		}
	})
	t.Run("noisy", func(t *testing.T) {
		nplan, err := noisy.Compile(bv)
		if err != nil {
			t.Fatal(err)
		}
		p := analyzeCheckpoint(bv, nplan)
		if p.split != 1 || p.deferred != 0 || p.prefixGates != 1 {
			t.Fatalf("split=%d deferred=%d prefixGates=%d, want 1/0/1", p.split, p.deferred, p.prefixGates)
		}
		if len(p.sites) != 0 {
			t.Errorf("noisy plans must not have multi-level sites, got %v", p.sites)
		}
	})
	t.Run("measurement-first", func(t *testing.T) {
		c := circuit.New("m_first", 2)
		c.Measure(0, 0).H(1)
		p := analyzeCheckpoint(c, nil)
		if p.split != 0 || p.prefixGates != 0 {
			t.Fatalf("split=%d prefixGates=%d, want 0/0", p.split, p.prefixGates)
		}
		if !p.worthwhile() {
			t.Error("a gate after the first site makes segment caching worthwhile")
		}
	})
	t.Run("fully-deterministic", func(t *testing.T) {
		p := analyzeCheckpoint(circuit.GHZ(5), nil)
		if p.split != len(circuit.GHZ(5).Ops) || len(p.sites) != 0 {
			t.Fatalf("split=%d sites=%v, want whole circuit and no sites", p.split, p.sites)
		}
		if p.prefixGates != circuit.GHZ(5).GateCount() {
			t.Errorf("prefixGates=%d", p.prefixGates)
		}
	})
}

// TestCheckpointedMatchesPlainSameSeed is the differential suite: for
// every backend with fork support, every workload class and several
// worker counts, checkpointed execution must be bit-identical to the
// plain replay with the same seed. Run under -race this also exercises
// the checkpoint runner's engine integration.
func TestCheckpointedMatchesPlainSameSeed(t *testing.T) {
	backends := []struct {
		name    string
		factory sim.Factory
	}{
		{"dd", ddback.Factory()},
		{"statevec", statevec.Factory()},
	}
	workloads := []struct {
		name  string
		circ  *circuit.Circuit
		model noise.Model
	}{
		{"bv_perfect", bvLike(7), noise.Model{}},
		{"bv_noisy", bvLike(7), noise.PaperDefaults().Scale(20)},
		{"ghz_noisy_measured", circuit.GHZ(4).MeasureAll(), noise.Model{Depolarizing: 0.02, Damping: 0.03, PhaseFlip: 0.02}},
		{"dynamic_perfect", dynamicCircuit(), noise.Model{}},
	}
	for _, b := range backends {
		for _, w := range workloads {
			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				opts := Options{
					Runs: 300, Seed: 11, Shots: 2, Workers: workers, ChunkSize: 16,
					TrackStates: []uint64{0, 9},
				}
				opts.Checkpointing = CheckpointOff
				plain, err := Run(w.circ, b.factory, w.model, opts)
				if err != nil {
					t.Fatalf("%s/%s plain: %v", b.name, w.name, err)
				}
				if plain.Checkpointed {
					t.Fatalf("%s/%s: Checkpointed set with checkpointing off", b.name, w.name)
				}
				opts.Checkpointing = CheckpointOn
				forked, err := Run(w.circ, b.factory, w.model, opts)
				if err != nil {
					t.Fatalf("%s/%s forked: %v", b.name, w.name, err)
				}
				if !forked.Checkpointed {
					t.Fatalf("%s/%s: Checkpointed not set with checkpointing on", b.name, w.name)
				}
				assertResultsIdentical(t, b.name+"/"+w.name, plain, forked)
			}
		}
	}
}

// TestCheckpointAdaptiveEquivalence: under adaptive stopping the
// checkpointed run must stop at the same Theorem-1 target, produce
// bit-identical estimates, and land within the guaranteed radius of
// the exact value.
func TestCheckpointAdaptiveEquivalence(t *testing.T) {
	c := circuit.GHZ(4).MeasureAll()
	m := noise.Model{Depolarizing: 0.01, Damping: 0.02, PhaseFlip: 0.01}
	opts := Options{
		Runs: 100000, Seed: 5, ChunkSize: 32, Workers: 4,
		TrackStates:    []uint64{0, 15},
		TargetAccuracy: 0.08, TargetConfidence: 0.95,
	}
	opts.Checkpointing = CheckpointOff
	plain, err := Run(c, ddback.Factory(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpointing = CheckpointAuto
	forked, err := Run(c, ddback.Factory(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if forked.Runs >= opts.Runs {
		t.Fatalf("adaptive stopping did not engage: %d runs", forked.Runs)
	}
	if plain.TargetRuns != forked.TargetRuns {
		t.Fatalf("adaptive targets differ: %d vs %d", plain.TargetRuns, forked.TargetRuns)
	}
	assertResultsIdentical(t, "adaptive", plain, forked)
	// Distributional sanity: the noise is weak, so the GHZ poles must
	// still be within the Theorem-1 radius of their ideal weight 0.5.
	for i, p := range forked.TrackedProbs {
		if math.Abs(p-0.5) > forked.ConfidenceRadius+0.05 {
			t.Errorf("tracked[%d] = %v implausibly far from 0.5 (radius %v)", i, p, forked.ConfidenceRadius)
		}
	}
}

// TestMultiLevelSegmentCheckpoints: a dynamic circuit whose random
// sites are separated by long deterministic runs must take segment
// checkpoints and skip more gates than the shared prefix alone can
// account for — while staying bit-identical to the plain replay.
func TestMultiLevelSegmentCheckpoints(t *testing.T) {
	c := dynamicCircuit()
	plan := analyzeCheckpoint(c, nil)
	if len(plan.sites) < 3 || plan.tailGates == 0 {
		t.Fatalf("bad workload for this test: plan %+v", plan)
	}
	opts := Options{Runs: 200, Seed: 3, Workers: 1, ChunkSize: 32}

	opts.Checkpointing = CheckpointOff
	plain, err := Run(c, ddback.Factory(), noise.Model{}, opts)
	if err != nil {
		t.Fatal(err)
	}

	segBefore := telemetry.CheckpointsTaken.With("segment").Value()
	skipBefore := telemetry.CheckpointGatesSkipped.Value()
	opts.Checkpointing = CheckpointOn
	forked, err := Run(c, ddback.Factory(), noise.Model{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	segTaken := telemetry.CheckpointsTaken.With("segment").Value() - segBefore
	skipped := telemetry.CheckpointGatesSkipped.Value() - skipBefore

	assertResultsIdentical(t, "dynamic", plain, forked)
	if segTaken == 0 {
		t.Error("no segment checkpoints were taken")
	}
	if want := int64(opts.Runs * plan.prefixGates); skipped <= want {
		t.Errorf("skipped %d gate applications, want > %d (prefix alone): segments not reused", skipped, want)
	}
}

// TestCheckpointOnUnsupportedBackend: the sparse baseline has no fork
// support, so CheckpointOn must fail the job while CheckpointAuto
// silently replays.
func TestCheckpointOnUnsupportedBackend(t *testing.T) {
	c := circuit.GHZ(3).MeasureAll()
	opts := Options{Runs: 20, Seed: 1}
	opts.Checkpointing = CheckpointOn
	if _, err := Run(c, sparsemat.Factory(), noise.Model{}, opts); err == nil {
		t.Fatal("CheckpointOn on the sparse backend must fail")
	}
	opts.Checkpointing = CheckpointAuto
	res, err := Run(c, sparsemat.Factory(), noise.Model{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpointed {
		t.Error("sparse backend cannot have checkpointed")
	}
}

// TestCheckpointingValidation: unknown modes are rejected before any
// work is dispatched.
func TestCheckpointingValidation(t *testing.T) {
	opts := Options{Runs: 10, Seed: 1}
	opts.Checkpointing = "sometimes"
	if _, err := Run(circuit.GHZ(3), ddback.Factory(), noise.Model{}, opts); err == nil {
		t.Fatal("invalid checkpointing mode must be rejected")
	}
}
