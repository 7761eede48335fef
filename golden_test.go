package ddsim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"slices"
	"testing"

	"ddsim"
	"ddsim/internal/circuit"
	"ddsim/internal/ddensity"
	"ddsim/internal/density"
	"ddsim/internal/noise"
	"ddsim/internal/qbench"
)

// The golden digests pin same-seed results bit for bit. Each stochastic
// case runs at Workers = 1 — the only schedule the docs promise repeats
// bit for bit — and every case hashes every float64 bit pattern and
// count of its result with SHA-256. A kernel change that is meant to be
// invisible (a new table layout, a different allocator) must leave
// every digest unchanged; a change that moves sampled trajectories or
// interned weights shows up here first.
//
// The constants were recorded on linux/amd64. Other architectures may
// fuse multiply-adds and so move the last bits of a float64, which is
// why the test runs on amd64 only.

// goldenNoise is the GHZ-4 noise model, with rates high enough that
// every channel fires within 400 runs.
var goldenNoise = ddsim.NoiseModel{Depolarizing: 0.01, Damping: 0.02, PhaseFlip: 0.01}

type goldenCase struct {
	name  string
	c     *ddsim.Circuit
	model ddsim.NoiseModel
	opts  ddsim.Options
	want  string
}

func goldenCases() []goldenCase {
	ghz4 := circuit.GHZ(4).MeasureAll()
	ghzOpts := func(ck string) ddsim.Options {
		return ddsim.Options{
			Runs: 400, Seed: 7, Shots: 2, ChunkSize: 16, Workers: 1,
			TrackStates: []uint64{0, 7, 15}, TrackFidelity: true,
			Checkpointing: ck,
		}
	}
	benchOpts := func(n, runs int) ddsim.Options {
		return ddsim.Options{
			Runs: runs, Seed: 11, Shots: 1, Workers: 1,
			TrackStates: trackedStates(n), TrackFidelity: true,
		}
	}
	extended := noise.PaperDefaults()
	extended.Crosstalk = &noise.Crosstalk{Strength: 0.01, ZZBias: 0.5}
	extended.Idle = &noise.IdleNoise{Damping: 0.001, Dephasing: 0.0005}

	// Checkpointing must not move a bit, so both GHZ-4 cases share one
	// digest.
	const ghz4Digest = "fa7664af3a9f554217ed7d52c9eef20e3e296ec18c036d8e93f9e09c0abfc45a"
	exactOpts := func(backend string) ddsim.Options {
		return ddsim.Options{
			Mode: ddsim.ModeExact, ExactBackend: backend,
			TrackStates: []uint64{0, 5, 15},
		}
	}
	exactDamping := noise.PaperDefaults()
	exactDamping.DampingAsEvent = false
	dyn := dynamicCircuit()
	qft := qbench.QFT(10)
	vqe := qbench.VQEUCCSD(6, 2)
	ising := qbench.Ising(6, 2)
	// The dense case runs long enough to trigger DD garbage collection
	// (three sweeps at the time of recording), so node and weight
	// recycling is pinned too.
	return []goldenCase{
		{"ghz4/ckpt=off", ghz4, goldenNoise, ghzOpts(ddsim.CheckpointOff), ghz4Digest},
		{"ghz4/ckpt=on", ghz4, goldenNoise, ghzOpts(ddsim.CheckpointOn), ghz4Digest},
		{"structured/" + qft.Name, qft.Circuit, noise.PaperDefaults(), benchOpts(10, 400),
			"b1e5f953eb6b3818d15407771cfca84ce734b76eb8ff67956b6731f9edd6ab28"},
		{"dense/" + vqe.Name, vqe.Circuit, noise.PaperDefaults(), benchOpts(6, 300),
			"63763ba8618ba0401e055a50d5cb6930a27080a9189c1c27b23d1b4b953c4cfd"},
		{"extended/" + ising.Name, ising.Circuit, extended, benchOpts(6, 300),
			"5c72905a312b41835a3f96c6e19e8f6d5bbba4cc5a893b46a6ea10a70ec9b7f7"},
		{"dynamic/paper", dyn, noise.PaperDefaults(), benchOpts(4, 400),
			"58244d997f4bc2bd30f324dfcdc1571686d7a8bcc371f22ff93aad73510031f7"},
		{"exact/density/paper", dyn, noise.PaperDefaults(), exactOpts(ddsim.ExactDensity),
			"7f4f0ae4c1ea5efc54fe14f23211bc3a5604d1fdbc0a490f9d2703f14ebfe3a6"},
		{"exact/density/exact-damping", dyn, exactDamping, exactOpts(ddsim.ExactDensity),
			"c38ab5da0825c607836228a969775f178070bf6e66b7aa21781f99886cf42b1b"},
		{"exact/ddensity/paper", dyn, noise.PaperDefaults(), exactOpts(ddsim.ExactDDensity),
			"9859d831dd14b00dbc23c7d0a96f51db3cb39a0a3451192f184677903a6b2874"},
		{"exact/ddensity/exact-damping", dyn, exactDamping, exactOpts(ddsim.ExactDDensity),
			"9f416cd4be6a4d3633b89e6f379bdf78c674b66a04a14fba7095430fdedaf39b"},
	}
}

// dynamicCircuit is a 4-qubit circuit with a mid-circuit measurement, a
// reset and classically conditioned gates, one of which is skipped on
// every trajectory that measured 0.
func dynamicCircuit() *ddsim.Circuit {
	c := circuit.New("dynamic", 4)
	c.H(0).CX(0, 1).RY(2, 0.7).Measure(0, 0).Reset(0)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "x", Target: 2,
		Cond: &circuit.Condition{Bits: []int{0}, Value: 1}})
	c.H(0).CX(2, 3).Measure(2, 2)
	c.Append(circuit.Op{Kind: circuit.KindGate, Name: "h", Target: 3,
		Cond: &circuit.Condition{Bits: []int{0, 2}, Value: 3}})
	c.CX(1, 3).Measure(1, 1).Measure(3, 3)
	return c
}

// goldenDDensity is the digest of the exact density-matrix DD engine on
// GHZ-8 under the paper's noise: every P(i), the purity and the trace.
const goldenDDensity = "626a38c03eaadc8b126e971688279ca4aa121eaa67036d831765ab2682daf102"

func TestGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded on amd64; other architectures may fuse multiply-adds")
	}
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			res, err := ddsim.Simulate(gc.c, ddsim.BackendDD, gc.model, gc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(res); got != gc.want {
				t.Errorf("digest %s, want %s", got, gc.want)
			}
		})
	}
	// The state-vector engine has no weight interning, so this case pins
	// the trajectory RNG stream apart from DD arithmetic.
	t.Run("statevec/ghz4", func(t *testing.T) {
		opts := ddsim.Options{
			Runs: 400, Seed: 7, Shots: 2, ChunkSize: 16, Workers: 1,
			TrackStates: []uint64{0, 7, 15}, TrackFidelity: true,
		}
		res, err := ddsim.Simulate(circuit.GHZ(4).MeasureAll(), ddsim.BackendStatevector, goldenNoise, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(res); got != goldenStatevec {
			t.Errorf("digest %s, want %s", got, goldenStatevec)
		}
	})
	t.Run("ddensity/ghz8", func(t *testing.T) {
		s, err := ddensity.RunCircuit(circuit.GHZ(8), noise.PaperDefaults())
		if err != nil {
			t.Fatal(err)
		}
		d := newDigest()
		for i := uint64(0); i < 1<<8; i++ {
			d.f64(s.Probability(i))
		}
		d.f64(s.Purity())
		d.f64(s.Trace())
		if got := d.sum(); got != goldenDDensity {
			t.Errorf("digest %s, want %s", got, goldenDDensity)
		}
	})
	// The dense exact reference fuses each qubit's post-gate channels
	// into one superoperator; this pins that fusion bit for bit.
	t.Run("density/vqe_uccsd_6", func(t *testing.T) {
		s, err := density.RunCircuit(qbench.VQEUCCSD(6, 2).Circuit, noise.PaperDefaults())
		if err != nil {
			t.Fatal(err)
		}
		d := newDigest()
		for _, p := range s.Probabilities() {
			d.f64(p)
		}
		d.f64(s.Purity())
		if got := d.sum(); got != goldenDensity {
			t.Errorf("digest %s, want %s", got, goldenDensity)
		}
	})
}

// goldenStatevec is the digest of GHZ-4 under goldenNoise on
// BackendStatevector, with the GHZ-4 DD cases' options.
const goldenStatevec = "3aecceaac9836b6fb35a94c9323eef847f44231e6625d5df4e0534411c3275d6"

// goldenDensity is the digest of the dense density-matrix reference on
// VQE-UCCSD-6 under the paper's noise: every P(i) and the purity.
const goldenDensity = "1b4f41e86c651e81e54313e331f85c6d9fad3f76be096b811c9aca59231a37e1"

// resultDigest hashes everything a stochastic result estimates: run
// counts, both histograms in sorted key order, the tracked
// probabilities, the fidelity and the confidence radius. An exact
// result hashes what the density-matrix engine reports instead.
func resultDigest(r *ddsim.Result) string {
	if r.Exact {
		return exactDigest(r)
	}
	d := newDigest()
	d.u64(uint64(r.Runs))
	d.u64(uint64(r.TargetRuns))
	d.counts(r.Counts)
	d.counts(r.ClassicalCounts)
	d.u64(uint64(len(r.TrackedProbs)))
	for _, p := range r.TrackedProbs {
		d.f64(p)
	}
	d.f64(r.MeanFidelity)
	d.f64(r.ConfidenceRadius)
	return d.sum()
}

// exactDigest hashes an exact-mode result: every P(i), the classical
// outcome distribution in sorted key order, the tracked probabilities,
// the purity, the peak branch count and the final DD size.
func exactDigest(r *ddsim.Result) string {
	d := newDigest()
	d.u64(uint64(len(r.Probabilities)))
	for _, p := range r.Probabilities {
		d.f64(p)
	}
	keys := make([]uint64, 0, len(r.ClassicalProbs))
	for k := range r.ClassicalProbs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	d.u64(uint64(len(keys)))
	for _, k := range keys {
		d.u64(k)
		d.f64(r.ClassicalProbs[k])
	}
	for _, p := range r.TrackedProbs {
		d.f64(p)
	}
	d.f64(r.Purity)
	d.u64(uint64(r.Branches))
	d.u64(uint64(r.DDNodes))
	return d.sum()
}

type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d digest) counts(m map[uint64]int) {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	d.u64(uint64(len(keys)))
	for _, k := range keys {
		d.u64(k)
		d.u64(uint64(m[k]))
	}
}

func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
