package main

import (
	"runtime/metrics"

	"ddsim/internal/noise"
	"ddsim/internal/telemetry"
)

// The end-to-end metrics every workload reports with --trace 0.
// ok_frac is 1 − fail_frac: the share of attempted jobs that completed
// and passed their output check (the failed and attempted counts of the
// result line carry fail_frac itself).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"job_s_p50", "s"},
	{"job_s_p90", "s"},
	{"traj_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
}

// layerMetric is one per-layer metric of the traced run, with the
// arrow to the end-to-end metric and workload it should move. Counts
// and times are per job of the traced pass unless the unit says
// otherwise; a workload reports 0 for a layer it does not reach.
type layerMetric struct {
	name, unit, better string
	moves              string
}

var layerMetrics = []layerMetric{
	{"qasm.parse_s", "s/job", "lower", "job_s_p50 on structured"},
	{"stochastic.prepare_s", "s/job", "lower", "job_s_p50, traj_per_s on structured"},
	{"stochastic.self_s", "s/job", "lower", "job_s_p50, traj_per_s on structured"},
	{"stochastic.worker_idle_s", "s/job", "lower", "job_s_p50, traj_per_s on structured; job_s_p90 on dense"},
	{"stochastic.gates_applied", "count/job", "lower", "job_s_p50, traj_per_s on structured"},
	{"stochastic.gates_skipped", "count/job", "higher", "job_s_p50, traj_per_s on structured"},
	{"stochastic.forks", "count/job", "higher", "job_s_p50, traj_per_s on structured"},
	{"stochastic.unrepeatable_frac", "ratio", "lower", "none: share of jobs whose two same-seed runs gave different estimates (0 when the engine is bit-identical across schedules)"},
	{"ddback.new_n", "count/job", "lower", "job_s_p50 on structured; no change on dense"},
	{"ddback.new_s", "s/job", "lower", "job_s_p50 on structured; no change on dense"},
	{"ddback.gate_n", "count/job", "lower", "traj_per_s on dense"},
	{"ddback.gate_s", "s/job", "lower", "traj_per_s on dense"},
	{"ddback.noise_n", "count/job", "lower", "traj_per_s on dense; job_s_p50 on sweep"},
	{"ddback.noise_s", "s/job", "lower", "traj_per_s on dense; job_s_p50 on sweep"},
	{"ddback.measure_n", "count/job", "lower", "traj_per_s on structured"},
	{"ddback.measure_s", "s/job", "lower", "traj_per_s on structured"},
	{"ddback.sample_n", "count/job", "lower", "traj_per_s on structured"},
	{"ddback.sample_s", "s/job", "lower", "traj_per_s on structured"},
	{"ddback.fork_n", "count/job", "lower", "traj_per_s on structured"},
	{"ddback.fork_s", "s/job", "lower", "traj_per_s on structured"},
	{"dd.unique_lookups", "count/job", "lower", "traj_per_s, peak_rss_mb on dense"},
	{"dd.unique_hit_ratio", "ratio", "higher", "traj_per_s, peak_rss_mb on dense"},
	{"dd.compute_lookups", "count/job", "lower", "traj_per_s, peak_rss_mb on dense"},
	{"dd.compute_hit_ratio", "ratio", "higher", "traj_per_s, peak_rss_mb on dense"},
	{"dd.compute_conflicts", "count/job", "lower", "traj_per_s, peak_rss_mb on dense"},
	{"dd.nodes_created", "count/job", "lower", "traj_per_s, peak_rss_mb on dense"},
	{"dd.peak_nodes", "nodes", "lower", "traj_per_s, peak_rss_mb on dense"},
	{"dd.gc_runs", "count/job", "lower", "traj_per_s, peak_rss_mb on dense"},
	{"cnum.weights", "weights", "lower", "traj_per_s, peak_rss_mb on dense"},
	{"cnum.hit_ratio", "ratio", "higher", "traj_per_s, peak_rss_mb on dense"},
	{"noise.channels_n", "count/job", "lower", "job_s_p50 on sweep"},
	{"noise.depolarizing_n", "count/job", "lower", "job_s_p50 on sweep"},
	{"noise.damping_n", "count/job", "lower", "job_s_p50 on sweep"},
	{"noise.phaseflip_n", "count/job", "lower", "job_s_p50 on sweep"},
	{"noise.twirled_n", "count/job", "lower", "job_s_p50 on sweep"},
	{"noise.idle_n", "count/job", "lower", "job_s_p50 on sweep"},
	{"noise.crosstalk_n", "count/job", "lower", "job_s_p50 on sweep"},
	{"exact.job_s", "s/job", "lower", "job_s_p50 on sweep"},
	{"exact.peak_dd_nodes", "nodes", "lower", "job_s_p50 on sweep"},
	{"statevec.job_s", "s/job", "lower", "none: the dense jobs on statevec, a reference for the DD per-gate tax"},
	{"go.gc_cpu_s", "s/job", "lower", "peak_rss_mb, traj_per_s on dense"},
	{"go.gc_cycles", "count/job", "lower", "peak_rss_mb, traj_per_s on dense"},
	{"go.alloc_bytes", "bytes/job", "lower", "peak_rss_mb, traj_per_s on dense"},
	{"go.alloc_objects", "count/job", "lower", "peak_rss_mb, traj_per_s on dense"},
	{"ddsimd.submit_s_p50", "s", "lower", "job_s_p90, jobs_per_s on service; no change in-process"},
	{"ddsimd.queue_wait_s", "s/job", "lower", "job_s_p90, jobs_per_s on service; no change in-process"},
	{"ddsimd.simulate_s", "s/job", "lower", "job_s_p90, jobs_per_s on service; no change in-process"},
	{"ddsimd.persist_s", "s/job", "lower", "job_s_p90, jobs_per_s on service; no change in-process"},
	{"ddsimd.e2e_s", "s/job", "lower", "job_s_p90, jobs_per_s on service; no change in-process"},
	{"rescache.hit_ratio", "ratio", "higher", "job_s_p90, jobs_per_s on service; no change in-process"},
	{"rescache.dedup_joins", "count/job", "higher", "job_s_p90, jobs_per_s on service; no change in-process"},
	{"jobstore.wal_appends", "count/job", "lower", "job_s_p90, jobs_per_s on service; no change in-process"},
	{"ddsimd.rejected_n", "count/job", "lower", "job_s_p90, jobs_per_s on service; no change in-process"},
	{"trace.overhead_frac", "ratio", "lower", "none: traced job_s_p50 over untraced job_s_p50, minus 1"},
}

// counters is a snapshot of the process-wide counters the traced pass
// reads as deltas: the engine's telemetry and the Go runtime's.
type counters struct {
	gates, skipped, forks int64
	chans                 [noise.LabelCount]int64
	gcCPU                 float64
	gcCycles, allocBytes  uint64
	allocObjects          uint64
}

func readCounters() counters {
	c := counters{
		gates:   telemetry.GateApplications.Value(),
		skipped: telemetry.CheckpointGatesSkipped.Value(),
		forks:   telemetry.CheckpointForks.Value(),
	}
	for i, l := range noise.Labels {
		c.chans[i] = telemetry.NoiseChannelApplications.With(l).Value()
	}
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[0].Value.Float64()
	}
	for i, dst := range []*uint64{&c.gcCycles, &c.allocBytes, &c.allocObjects} {
		if s[i+1].Value.Kind() == metrics.KindUint64 {
			*dst = s[i+1].Value.Uint64()
		}
	}
	return c
}

// traceLayers turns the traces of the traced pass and the counter
// deltas around it into per-layer metrics.
func traceLayers(m map[string]float64, traces []*jobTrace, before, after counters) {
	jobs := float64(len(traces))
	if jobs == 0 {
		return
	}
	var (
		parse, prepare, self, idle float64
		newN                       int
		newS                       int64
		n, t                       [nKinds]int64
		uLook, uHit, cLook, cHit   int64
		conflicts, created, gcRuns int64
		peak                       int64
		weights                    int
		cnumHit                    float64
		released                   int
	)
	for _, jt := range traces {
		parse += seconds(jt.parse)
		dur := jt.span.end - jt.span.start
		self += seconds(dur - jt.backend.covered())
		if len(jt.factories) > 0 {
			first := jt.factories[0].start
			for _, f := range jt.factories {
				first = min(first, f.start)
				newS += f.end - f.start
			}
			prepare += seconds(first - jt.span.start)
		}
		newN += len(jt.factories)
		busy := int64(0)
		for _, r := range jt.insts {
			busy += r.last - r.born
			for k := range n {
				n[k] += r.n[k]
				t[k] += r.t[k]
			}
			if !r.released {
				continue
			}
			released++
			ts := r.tables
			uLook += ts.UniqueLookups
			uHit += ts.UniqueHits
			cLook += ts.ComputeLookups
			cHit += ts.ComputeHits
			conflicts += ts.ComputeConflicts
			created += ts.NodesCreated
			gcRuns += ts.GCRuns
			peak = max(peak, ts.PeakNodes)
			weights = max(weights, r.weights)
			cnumHit += r.cnumHit
		}
		idle += seconds(max(0, int64(jt.workers)*dur-busy))
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["qasm.parse_s"] = parse / jobs
	m["stochastic.prepare_s"] = prepare / jobs
	m["stochastic.self_s"] = self / jobs
	m["stochastic.worker_idle_s"] = idle / jobs
	m["stochastic.gates_applied"] = float64(after.gates-before.gates) / jobs
	m["stochastic.gates_skipped"] = float64(after.skipped-before.skipped) / jobs
	m["stochastic.forks"] = float64(after.forks-before.forks) / jobs
	m["ddback.new_n"] = float64(newN) / jobs
	m["ddback.new_s"] = seconds(newS) / jobs
	for k, name := range [...]string{kGate: "gate", kNoise: "noise", kMeasure: "measure", kSample: "sample", kFork: "fork"} {
		m["ddback."+name+"_n"] = float64(n[k]) / jobs
		m["ddback."+name+"_s"] = seconds(t[k]) / jobs
	}
	m["dd.unique_lookups"] = float64(uLook) / jobs
	m["dd.unique_hit_ratio"] = ratio(uHit, uLook)
	m["dd.compute_lookups"] = float64(cLook) / jobs
	m["dd.compute_hit_ratio"] = ratio(cHit, cLook)
	m["dd.compute_conflicts"] = float64(conflicts) / jobs
	m["dd.nodes_created"] = float64(created) / jobs
	m["dd.peak_nodes"] = float64(peak)
	m["dd.gc_runs"] = float64(gcRuns) / jobs
	m["cnum.weights"] = float64(weights)
	if released > 0 {
		m["cnum.hit_ratio"] = cnumHit / float64(released)
	}
	total := int64(0)
	for i, l := range noise.Labels {
		d := after.chans[i] - before.chans[i]
		total += d
		m["noise."+l+"_n"] = float64(d) / jobs
	}
	m["noise.channels_n"] = float64(total) / jobs
	m["go.gc_cpu_s"] = (after.gcCPU - before.gcCPU) / jobs
	m["go.gc_cycles"] = float64(after.gcCycles-before.gcCycles) / jobs
	m["go.alloc_bytes"] = float64(after.allocBytes-before.allocBytes) / jobs
	m["go.alloc_objects"] = float64(after.allocObjects-before.allocObjects) / jobs
}
