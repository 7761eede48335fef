package stochastic

// Trajectory checkpointing (the tentpole of the paper's performance
// story): stochastic trajectories of the same noisy circuit are
// identical up to the point where the first probabilistic event can
// fire, so the deterministic prefix is simulated exactly once per
// worker and every trajectory forks from the checkpoint instead of
// replaying it. When later random sites (measurements, resets) are
// separated by long deterministic gate runs, the runner additionally
// caches multi-level checkpoints keyed by the outcome history, so
// trajectories that took the same branch skip those runs too.
//
// Bit-exactness: the prefix consumes no RNG draws (deterministic ops
// never touch the trajectory RNG), so a forked trajectory sees exactly
// the same random stream as a replayed one, and the restored state is
// the product of the identical operation sequence. Same-seed results
// are therefore bit-identical with checkpointing on or off; the
// differential tests in checkpoint_test.go enforce this.

import (
	"math/rand"

	"ddsim/internal/circuit"
	"ddsim/internal/noise"
	"ddsim/internal/sim"
	"ddsim/internal/telemetry"
)

// Checkpointing modes accepted by Options.Checkpointing.
const (
	// CheckpointAuto (the default) forks trajectories from checkpoints
	// whenever the backend implements sim.Forker and the prefix
	// analyzer finds gate applications to save.
	CheckpointAuto = "auto"
	// CheckpointOn requires checkpointing: jobs on backends that do
	// not implement sim.Forker fail instead of silently replaying.
	CheckpointOn = "on"
	// CheckpointOff replays every gate of every trajectory (the
	// pre-checkpointing behaviour; useful as a differential baseline).
	CheckpointOff = "off"
)

// Per-worker bounds on the multi-level segment cache. Outcome
// histories are packed into a uint64, so circuits with more random
// sites fall back to the single prefix checkpoint; the entry and byte
// caps keep the retained states (pinned DD nodes, amplitude copies)
// bounded no matter how many branches a job explores.
const (
	maxSegHistBits      = 64
	maxSegEntries       = 64
	maxSegRetainedBytes = 256 << 20
)

// ckptPlan is the prefix analysis of one (circuit, noise-model) job:
// where the first probabilistic event can fire, what the checkpoint
// saves, and where the remaining random sites sit.
type ckptPlan struct {
	// split is the first op index not covered by the prefix
	// checkpoint: ops [0, split) are identical for every trajectory.
	split int
	// deferred is the op index whose post-gate noise must be injected
	// first on resume, or -1. When the first executed gate carries
	// only post-gate channels, its unitary is still deterministic and
	// is folded into the checkpoint; only its noise roll is replayed.
	deferred int
	// prefixGates is the number of gate applications the checkpoint
	// saves per forked trajectory.
	prefixGates int
	// sites lists the op indices of the remaining random sites
	// (measurements and resets at or after split). Populated only for
	// noise-free jobs: with per-gate noise every gate is a random
	// site and no deterministic segments exist between them.
	sites []int
	// tailGates counts gate ops after the first random site — the
	// material multi-level segment caching can save.
	tailGates int
}

// worthwhile reports whether checkpointing can save any gate
// applications for this plan (the CheckpointAuto enable condition).
func (p *ckptPlan) worthwhile() bool {
	return p.prefixGates > 0 || (len(p.sites) > 0 && p.tailGates > 0)
}

// analyzeCheckpoint splits a compiled job at the first op where its
// noise plan can act. Conditions are evaluated against the all-zero
// classical register, which is exact inside the prefix: classical bits
// only change at measurements, and every measurement is a random site
// that ends the prefix. Pre-gate (idle) channels fire before their
// gate's unitary, so such a gate cannot be folded into the checkpoint;
// a gate with only post-gate channels is folded in with its noise roll
// deferred. A nil or empty plan (a noise-free model, or one whose
// channels all vanished on this circuit) also records the random
// sites after the prefix for multi-level caching.
func analyzeCheckpoint(c *circuit.Circuit, nplan *noise.Plan) ckptPlan {
	plan := ckptPlan{split: len(c.Ops), deferred: -1}
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Cond != nil && !condHolds(op.Cond, 0) {
			continue // deterministically skipped inside the prefix
		}
		switch op.Kind {
		case circuit.KindGate:
			on := nplan.At(i)
			if on != nil && len(on.Pre) > 0 {
				plan.split = i
				return plan
			}
			plan.prefixGates++
			if on != nil {
				// The unitary is deterministic; only the noise roll
				// after it is not. Checkpoint past the unitary.
				plan.split = i + 1
				plan.deferred = i
				return plan
			}
		case circuit.KindMeasure, circuit.KindReset:
			plan.split = i
			if nplan.Empty() {
				for j := i; j < len(c.Ops); j++ {
					switch c.Ops[j].Kind {
					case circuit.KindMeasure, circuit.KindReset:
						plan.sites = append(plan.sites, j)
					case circuit.KindGate:
						plan.tailGates++
					}
				}
			}
			return plan
		}
	}
	return plan
}

// segKey identifies a multi-level checkpoint: the state after the
// deterministic segment that follows the site-th random site, given
// the packed outcome history of all sites resolved so far. Two
// trajectories with equal histories are in bit-identical states there
// (collapses depend only on outcomes, conditions only on classical
// bits, and deterministic runs consume no randomness).
type segKey struct {
	site int
	hist uint64
}

// segState is one cached multi-level checkpoint and the number of gate
// applications a restore saves.
type segState struct {
	state sim.State
	gates int
}

// ckptStats accumulates the checkpointing effect of one claim;
// the engine flushes it into the process telemetry per claim.
type ckptStats struct {
	applied int // gate applications executed
	skipped int // gate applications avoided via restores
	forks   int // restores served (trajectory starts + segment reuses)
}

// ckptRunner executes trajectories of one job on one worker's backend
// by forking from checkpoints. It is single-goroutine, like the
// backend it drives.
type ckptRunner struct {
	backend   sim.Backend
	forker    sim.Forker
	sizer     sim.StateSizer // nil when the backend cannot report cost
	circ      *circuit.Circuit
	noisePlan *noise.Plan // the job's compiled noise, or nil
	plan      ckptPlan

	base sim.State           // the shared deterministic-prefix checkpoint
	segs map[segKey]segState // multi-level cache; nil when disabled

	retainedNodes int64
	retainedBytes int64
}

// newCkptRunner simulates the deterministic prefix once on the
// worker's backend, captures the checkpoint, and prepares the
// multi-level cache when the plan has later random sites. It returns
// the runner and the number of gate applications the construction
// executed (the engine feeds that into the gate telemetry).
func newCkptRunner(backend sim.Backend, forker sim.Forker, c *circuit.Circuit, nplan *noise.Plan, plan ckptPlan) (*ckptRunner, int) {
	r := &ckptRunner{
		backend:   backend,
		forker:    forker,
		circ:      c,
		noisePlan: nplan,
		plan:      plan,
	}
	r.sizer, _ = backend.(sim.StateSizer)
	backend.Reset()
	applied := 0
	for i := 0; i < plan.split; i++ {
		op := &c.Ops[i]
		if op.Kind != circuit.KindGate {
			continue
		}
		if op.Cond != nil && !condHolds(op.Cond, 0) {
			continue
		}
		backend.ApplyOp(i)
		applied++
	}
	r.base = forker.Snapshot()
	r.noteRetained(r.base)
	telemetry.CheckpointsTaken.With("prefix").Inc()
	if len(plan.sites) > 0 && len(plan.sites) <= maxSegHistBits {
		r.segs = make(map[segKey]segState)
	}
	return r, applied
}

// noteRetained accounts a newly pinned checkpoint against the
// retention telemetry. DD node counts are per-snapshot, so sub-
// diagrams shared between checkpoints are counted once per pin — an
// upper bound on what the pins actually keep alive.
func (r *ckptRunner) noteRetained(s sim.State) {
	if r.sizer == nil {
		return
	}
	nodes, bytes := r.sizer.StateCost(s)
	r.retainedNodes += nodes
	r.retainedBytes += bytes
	telemetry.CheckpointNodesRetained.SetMax(r.retainedNodes)
	telemetry.CheckpointBytesRetained.SetMax(r.retainedBytes)
}

// run executes one trajectory by forking from the prefix checkpoint.
// rng and clbits have the same contract as runOne; the trajectory
// consumes the identical random stream.
func (r *ckptRunner) run(rng *rand.Rand, clbits []uint64, st *ckptStats, counts *noise.ChannelCounts) {
	r.forker.Restore(r.base)
	clbits[0] = 0
	st.forks++
	st.skipped += r.plan.prefixGates
	if d := r.plan.deferred; d >= 0 {
		on := r.noisePlan.At(d) // non-nil: analyzeCheckpoint defers only gates with channels
		on.ApplyPost(r.backend, rng)
		counts.Add(&on.Counts)
	}
	if r.segs == nil {
		st.applied += runRange(r.backend, r.circ, r.noisePlan, rng, clbits, r.plan.split, len(r.circ.Ops), counts)
		return
	}
	r.runSegmented(rng, clbits, st)
}

// runSegmented walks the tail of a noise-free trajectory site by site:
// resolve the random site (measurement or reset), then serve the
// deterministic segment up to the next site from the outcome-history
// cache when possible. The tail contains no noise by construction
// (the plan only records sites for noise-free jobs), so segments are
// pure gate runs.
func (r *ckptRunner) runSegmented(rng *rand.Rand, clbits []uint64, st *ckptStats) {
	ops := r.circ.Ops
	hist := uint64(0)
	i := r.plan.split
	for site := 0; site < len(r.plan.sites); site++ {
		op := &ops[i] // i == r.plan.sites[site]
		if op.Cond == nil || condHolds(op.Cond, clbits[0]) {
			if execSiteOp(r.backend, op, rng, clbits) == 1 {
				hist |= 1 << uint(site)
			}
		}
		i++
		end := len(ops)
		if site+1 < len(r.plan.sites) {
			end = r.plan.sites[site+1]
		}
		i = r.runSegment(i, end, site+1, hist, clbits, st)
	}
}

// runSegment advances through the deterministic ops [i, end): restored
// from the segment cache when this (site, outcome-history) branch was
// executed before, computed — and cached, within the retention caps —
// otherwise. Returns end.
func (r *ckptRunner) runSegment(i, end, site int, hist uint64, clbits []uint64, st *ckptStats) int {
	if end <= i {
		return end
	}
	key := segKey{site: site, hist: hist}
	if cs, ok := r.segs[key]; ok {
		r.forker.Restore(cs.state)
		st.skipped += cs.gates
		st.forks++
		return end
	}
	gates := 0
	for ; i < end; i++ {
		op := &r.circ.Ops[i]
		if op.Kind != circuit.KindGate {
			continue
		}
		if op.Cond != nil && !condHolds(op.Cond, clbits[0]) {
			continue
		}
		r.backend.ApplyOp(i)
		gates++
	}
	st.applied += gates
	if gates > 0 && len(r.segs) < maxSegEntries && r.retainedBytes < maxSegRetainedBytes {
		state := r.forker.Snapshot()
		r.segs[key] = segState{state: state, gates: gates}
		r.noteRetained(state)
		telemetry.CheckpointsTaken.With("segment").Inc()
	}
	return end
}
