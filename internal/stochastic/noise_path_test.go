package stochastic

import (
	"math/rand"
	"testing"

	"ddsim/internal/circuit"
	"ddsim/internal/ddback"
	"ddsim/internal/fastrand"
	"ddsim/internal/noise"
	"ddsim/internal/statevec"
	"ddsim/internal/telemetry"
)

// TestUniformNoiseChannelTelemetry: a paper-noise job reports every
// channel its compiled plan visits. GHZ gates are unconditional, so
// each trajectory samples one depolarising, one damping and one
// phase-flip channel per touched qubit of every gate, checkpointed or
// not (the forked trajectory replays the first gate's deferred noise).
func TestUniformNoiseChannelTelemetry(t *testing.T) {
	c := circuit.GHZ(5).MeasureAll()
	touched := 0
	for i := range c.Ops {
		if c.Ops[i].Kind == circuit.KindGate {
			touched += len(c.Ops[i].Qubits())
		}
	}
	value := func(label int) int64 {
		return telemetry.NoiseChannelApplications.With(noise.Labels[label]).Value()
	}
	const runs = 150
	for _, ckpt := range []string{CheckpointOff, CheckpointOn} {
		var before noise.ChannelCounts
		for l := range before {
			before[l] = value(l)
		}
		res, err := Run(c, ddback.Factory(), noise.PaperDefaults(),
			Options{Runs: runs, Seed: 4, Workers: 2, ChunkSize: 16, Checkpointing: ckpt})
		if err != nil {
			t.Fatal(err)
		}
		if res.Runs != runs {
			t.Fatalf("ckpt=%s: %d runs, want %d", ckpt, res.Runs, runs)
		}
		for l := range before {
			want := int64(0)
			switch l {
			case noise.LabelDepolarizing, noise.LabelDamping, noise.LabelPhaseFlip:
				want = int64(runs * touched)
			}
			if got := value(l) - before[l]; got != want {
				t.Errorf("ckpt=%s: %s channels +%d, want +%d", ckpt, noise.Labels[l], got, want)
			}
		}
	}
}

// TestPlannedTrajectoryAllocs: once the plan is compiled, a noisy
// trajectory allocates nothing in the driver or the channels. The
// state-vector backend itself does not allocate per gate, so any
// allocation here comes from the trajectory loop.
func TestPlannedTrajectoryAllocs(t *testing.T) {
	c := circuit.QFT(8)
	model := noise.Model{Depolarizing: 0.05, Damping: 0.05, PhaseFlip: 0.05}
	plan, err := model.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := statevec.Factory()(c)
	if err != nil {
		t.Fatal(err)
	}
	src := fastrand.New(0)
	rng := rand.New(src)
	clbits := make([]uint64, 1)
	var counts noise.ChannelCounts
	seed := int64(0)
	allocs := testing.AllocsPerRun(50, func() {
		seed++
		src.Seed(seed)
		runOne(b, c, plan, rng, clbits, &counts)
	})
	if allocs != 0 {
		t.Errorf("planned trajectory = %v allocations per run, want 0", allocs)
	}
}
