package stochastic

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ddsim/internal/circuit"
	"ddsim/internal/sim"
	"ddsim/internal/statevec"
)

// claimJob is partialJob on a rotated register, whose tracked
// probabilities are not sums of exact binary fractions (so the order of
// additions shows in the last bits), with fidelity tracking and the
// default chunk size, so small run counts give jobs of fewer chunks
// than workers.
func claimJob(runs int) Job {
	job := partialJob(runs)
	c := circuit.New("claims", 4)
	for q := 0; q < 4; q++ {
		c.RY(q, 0.3+0.4*float64(q))
	}
	for q := 0; q+1 < 4; q++ {
		c.CX(q, q+1)
	}
	c.Measure(3, 0)
	c.RY(0, 1.1)
	job.Circuit = c
	job.Opts.TrackStates = []uint64{0, 5}
	job.Opts.ChunkSize = 0
	job.Opts.TrackFidelity = true
	return job
}

// slowBackend is a statevec backend that takes longer per trajectory,
// so the worker holding it tends to commit its claims after later ones.
type slowBackend struct{ *statevec.Backend }

func (b slowBackend) SampleBasis(rng *rand.Rand) uint64 {
	time.Sleep(50 * time.Microsecond)
	return b.Backend.SampleBasis(rng)
}

// slowFirstFactory compiles statevec backends, the first one slow.
func slowFirstFactory() sim.Factory {
	var n atomic.Int32
	return func(c *circuit.Circuit) (sim.Backend, error) {
		b, err := statevec.New(c)
		if err != nil || n.Add(1) > 1 {
			return b, err
		}
		return slowBackend{b}, nil
	}
}

// TestClaimsKeepChunkReduction: claims smaller than a chunk, split
// across workers and committed out of order, reduce exactly as one
// worker running the whole job. The statevec backend carries no state
// between trajectories, so any difference would come from the
// reduction itself.
func TestClaimsKeepChunkReduction(t *testing.T) {
	f := statevec.Factory()
	for _, runs := range []int{1, 5, 47, 63, 64, 65, 100, 127, 200} {
		job := claimJob(runs)
		job.Opts.Workers = 1
		want, err := Run(job.Circuit, f, job.Model, job.Opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8} {
			job.Opts.Workers = w
			got, err := Run(job.Circuit, slowFirstFactory(), job.Model, job.Opts)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsIdentical(t, fmt.Sprintf("runs=%d workers=%d", runs, w), want, got)
		}
	}
}

// TestSmallJobsMatchChunkSeam: a local RunBatch whose claims split
// chunks still matches the per-chunk RunChunks + ReduceChunks path the
// cluster uses.
func TestSmallJobsMatchChunkSeam(t *testing.T) {
	f := statevec.Factory()
	for _, runs := range []int{5, 47, 100} {
		job := claimJob(runs)
		job.Opts.Workers = 3
		local, err := Run(job.Circuit, f, job.Model, job.Opts)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanChunks(job)
		if err != nil {
			t.Fatal(err)
		}
		var sums []ChunkSum
		for c := 0; c < plan.NumChunks; c++ {
			part, err := RunChunks(context.Background(), f, job, c, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			sums = append(sums, part...)
		}
		merged, err := ReduceChunks(job, sums, 3)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, fmt.Sprintf("runs=%d", runs), local, merged)
	}
}

// TestSmallJobUsesEveryWorker: a 47-run job fits in one 64-run chunk,
// yet both workers of a 2-worker pool claim part of it and compile a
// backend. Each compile waits (bounded) for the other, so the count
// does not depend on how fast the first claim finishes.
func TestSmallJobUsesEveryWorker(t *testing.T) {
	var compiles atomic.Int32
	both := make(chan struct{})
	factory := func(c *circuit.Circuit) (sim.Backend, error) {
		if compiles.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(2 * time.Second):
		}
		return statevec.New(c)
	}
	job := claimJob(47)
	job.Opts.Workers = 2
	res, err := Run(job.Circuit, factory, job.Model, job.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 47 {
		t.Errorf("runs = %d, want 47", res.Runs)
	}
	if n := compiles.Load(); n != 2 {
		t.Errorf("%d backend compiles, want 2 (one per worker)", n)
	}
}

// TestReductionBoundsPerRunValues: runs arriving out of order are held
// only while their chunk is incomplete, and the folded sums equal a
// sequential fold in run order.
func TestReductionBoundsPerRunValues(t *testing.T) {
	const size, target, stride = 4, 10, 2
	vals := make([]float64, target*stride)
	for i := range vals {
		vals[i] = 1 / float64(3+i)
	}
	var want reduction
	want.init(3, size, stride, target)
	seq := newAccumulator()
	seq.runs = target
	seq.vals = append(seq.vals, vals...)
	want.add(seq, 0)
	seq.release()

	var r reduction
	r.init(3, size, stride, target)
	// Claims of 3 runs, committed last to first.
	for first := 9; first >= 0; first -= 3 {
		a := newAccumulator()
		a.runs = min(3, target-first)
		a.vals = append(a.vals, vals[first*stride:(first+a.runs)*stride]...)
		r.add(a, first)
		a.release()
		if len(r.partial) > 2 {
			t.Fatalf("after claim at %d: %d chunks hold per-run values, want <= 2", first, len(r.partial))
		}
	}
	if len(r.partial) != 0 {
		t.Errorf("%d chunks still hold per-run values after every run arrived", len(r.partial))
	}
	got, exp := r.sum(), want.sum()
	for i := range exp {
		if got[i] != exp[i] {
			t.Errorf("sum[%d] = %v, want %v (bit-exact)", i, got[i], exp[i])
		}
	}
}
