package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ddsim"
)

// daemon is a ddsimd child process with its own data directory.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	dir  string
	done chan struct{} // closed when the child has exited
}

// startDaemon boots ddsimd with -data-dir persistence on a free
// loopback port and waits until /healthz answers. The child is killed
// if this process dies first.
func startDaemon(ctx context.Context, cfg config) (*daemon, error) {
	if cfg.ddsimd == "" {
		return nil, errors.New("service workload needs --ddsimd")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "ddsimd-")
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(cfg.ddsimd, "-addr", addr, "-data-dir", dir)
	cmd.Stderr = io.Discard
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start ddsimd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, dir: dir, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped child carries no information
		close(d.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			d.stop()
			return nil, errors.New("ddsimd exited before answering /healthz")
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("ddsimd did not answer /healthz within 20s")
		}
	}
}

// stop terminates the child (SIGTERM, then SIGKILL after 5 s), waits
// for it to exit and removes its data directory.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	os.RemoveAll(d.dir)
}

// metrics scrapes /metrics into series → value.
func (d *daemon) metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// service is the ddsimd workload: a seeded stream of small jobs, a
// share of which repeat an earlier submission.
type service struct {
	pool []*entry
	seed int64
}

// repeatShare of submissions resubmit one of the last few jobs, which
// the service answers from its result cache or by joining the
// identical job still in flight.
const repeatShare = 0.25

// svcJob is one submission of the stream.
type svcJob struct {
	e      *entry
	runs   int
	body   []byte
	repeat bool
}

func newService(ctx context.Context, cfg config) (*service, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &service{seed: cfg.seed}
	for _, f := range serviceFamilies() {
		for _, n := range drawSizes(rng, f, cfg.tiny) {
			c := f.build(n)
			src, err := ddsim.WriteQASM(c)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.Name, err)
			}
			ref, err := makeReference(ctx, c, ddsim.PaperNoise())
			if err != nil {
				return nil, err
			}
			s.pool = append(s.pool, &entry{name: c.Name, qasm: src, qubits: n, ref: ref})
		}
	}
	return s, nil
}

// job returns submission k of the stream: a function of the seed and k
// alone, whichever client sends it.
func (s *service) job(k int) svcJob {
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(k)))
	if k > 0 && rng.Float64() < repeatShare {
		j := s.job(k - 1 - rng.Intn(min(k, 4)))
		j.repeat = true
		return j
	}
	e := s.pool[rng.Intn(len(s.pool))]
	return submission(e, 50+rng.Intn(451), int64(k+1)<<20)
}

// submission renders the POST /jobs body of one job on e.
func submission(e *entry, runs int, seed int64) svcJob {
	body, _ := json.Marshal(map[string]any{
		"circuit": map[string]string{"qasm": e.qasm},
		"backend": ddsim.BackendDD,
		"noise":   ddsim.PaperNoise(),
		"options": ddsim.Options{Runs: runs, Seed: seed, TrackStates: []uint64{e.ref.track}},
	})
	return svcJob{e: e, runs: runs, body: body}
}

// jobView is the part of ddsimd's job view the benchmark reads.
type jobView struct {
	ID      string          `json:"id"`
	Status  string          `json:"status"`
	Cached  bool            `json:"cached"`
	Error   string          `json:"error"`
	Results []*ddsim.Result `json:"results"`
}

// client is one closed-loop caller with one keep-alive connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, base: base}
}

// svcOutcome is what a run keeps of one submission.
type svcOutcome struct {
	outcome
	submit float64 // seconds for POST /jobs alone
}

// do submits one job and follows its event stream to the terminal
// event.
func (c *client) do(ctx context.Context, j svcJob) svcOutcome {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	start := nanotime()
	var o svcOutcome
	view, err := c.submit(ctx, j, &o)
	o.latency = seconds(nanotime() - start)
	if err == nil && view.Status != "done" {
		err = fmt.Errorf("job %s ended %s: %s", view.ID, view.Status, view.Error)
	}
	if err == nil && len(view.Results) != 1 {
		err = fmt.Errorf("job %s: %d results", view.ID, len(view.Results))
	}
	if err == nil {
		o.results = view.Results
		err = checkTracked(view.Results[0], j.e.ref, j.runs)
		if !view.Cached {
			o.traj = view.Results[0].Runs
		}
	}
	o.err = err
	return o
}

func (c *client) submit(ctx context.Context, j svcJob, o *svcOutcome) (jobView, error) {
	var view jobView
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/jobs", bytes.NewReader(j.body))
	if err != nil {
		return view, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := nanotime()
	resp, err := c.http.Do(req)
	if err != nil {
		return view, err
	}
	var ack struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	o.submit = seconds(nanotime() - t0)
	if resp.StatusCode != http.StatusAccepted {
		return view, fmt.Errorf("POST /jobs: %s", resp.Status)
	}
	if err != nil {
		return view, fmt.Errorf("POST /jobs: %w", err)
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+ack.ID+"/events", nil)
	if err != nil {
		return view, err
	}
	resp, err = c.http.Do(req)
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return view, fmt.Errorf("events of %s: %w", ack.ID, err)
		}
		line = strings.TrimRight(line, "\r\n")
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
		} else if data, ok := strings.CutPrefix(line, "data: "); ok && event == "result" {
			err := json.Unmarshal([]byte(data), &view)
			_, _ = io.Copy(io.Discard, resp.Body) // the stream ends after the result
			return view, err
		}
	}
}

// drive runs the closed loop: two clients submit jobs 0, 1, 2, … of
// the stream, each waiting for its job's terminal event before taking
// the next, until secs have passed and at least minJobs completed —
// or, with limit ≥ 0, exactly jobs [0, limit).
func (s *service) drive(ctx context.Context, base string, secs float64, minJobs, limit int) ([]svcOutcome, error) {
	var mu sync.Mutex
	var outs []svcOutcome
	next, completed := 0, 0
	start := nanotime()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if limit >= 0 {
			if next >= limit {
				return 0, false
			}
		} else if seconds(nanotime()-start) >= secs && completed >= minJobs {
			return 0, false
		}
		next++
		outs = append(outs, svcOutcome{})
		return next - 1, true
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base)
			defer c.http.CloseIdleConnections()
			for ctx.Err() == nil {
				k, ok := take()
				if !ok {
					return
				}
				o := c.do(ctx, s.job(k))
				mu.Lock()
				outs[k] = o
				completed++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, ctx.Err()
}

// boot starts a daemon and runs one warm-up job through submission,
// simulation, the store and the event stream, on run seeds [0, 50) that
// no timed job uses. It ends with sync(2): a run creates and deletes
// thousands of job files, and without the flush the next run's fsyncs
// pay for the last one's (measured on a shared 2-vCPU host: ten
// consecutive runs drifted from 240 to 171 jobs/s without it; with it,
// two sets of ten kept jobs_per_s within an IQR of 6% of the median).
func (s *service) boot(ctx context.Context, cfg config) (*daemon, error) {
	d, err := startDaemon(ctx, cfg)
	if err != nil {
		return nil, err
	}
	c := newClient(d.base)
	defer c.http.CloseIdleConnections()
	if o := c.do(ctx, submission(s.pool[0], 50, 0)); o.err != nil {
		d.stop()
		return nil, fmt.Errorf("warm-up: %w", o.err)
	}
	syscall.Sync()
	return d, nil
}

// runService runs the service workload.
func runService(ctx context.Context, cfg config) (*report, error) {
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	s, setup, err := setUp(ctx, cfg.setupReps, func(ctx context.Context) (*service, error) {
		if d != nil {
			d.stop()
			d = nil
		}
		s, err := newService(ctx, cfg)
		if err != nil {
			return nil, err
		}
		d, err = s.boot(ctx, cfg)
		return s, err
	})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if !cfg.trace {
		rss := sampleRSS(strconv.Itoa(d.cmd.Process.Pid))
		win := startWindow()
		outs, err := s.drive(ctx, d.base, cfg.seconds, cfg.minJobs, -1)
		wall, f := win.elapsed()
		rssMB := rss.median()
		if err != nil {
			return nil, err
		}
		rep.tallyService(s, outs)
		rep.endToEnd(setup, plain(outs), wall, f, rssMB)
		return rep, nil
	}

	// Traced run: an untraced pass, then the same submissions against a
	// fresh daemon (empty cache and store), reading its /metrics around.
	win := startWindow()
	outsA, err := s.drive(ctx, d.base, cfg.seconds/2, cfg.minJobs/2, -1)
	_, fA := win.elapsed()
	if err != nil {
		return nil, err
	}
	d.stop()
	if d, err = s.boot(ctx, cfg); err != nil {
		return nil, err
	}
	before, err := d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	win = startWindow()
	outsB, err := s.drive(ctx, d.base, 0, 0, len(outsA))
	_, fB := win.elapsed()
	if err != nil {
		return nil, err
	}
	after, err := d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	rep.tallyService(s, outsA)
	rep.tallyService(s, outsB)
	jobs := make([]job, len(outsA))
	for k := range jobs {
		jobs[k] = job{e: s.job(k).e}
	}
	rep.layers["stochastic.unrepeatable_frac"] = compareRuns(rep, "service", jobs, plain(outsA), plain(outsB))
	serviceLayers(rep.layers, outsB, before, after)
	rep.layers["trace.overhead_frac"] = p50(plain(outsB))*fB/(p50(plain(outsA))*fA) - 1
	return rep, nil
}

func plain(outs []svcOutcome) []outcome {
	out := make([]outcome, len(outs))
	for i, o := range outs {
		out[i] = o.outcome
	}
	return out
}

// tallyService counts submissions and runs the pooled check over the
// fresh (non-repeat) jobs of each pool entry.
func (r *report) tallyService(s *service, outs []svcOutcome) {
	pool := map[*entry]*pooled{}
	for k, o := range outs {
		r.attempted++
		j := s.job(k)
		if o.err != nil {
			r.failed++
			r.note(fmt.Sprintf("service job %d (%s): %v", k, j.e.name, o.err))
			continue
		}
		if j.repeat {
			continue
		}
		p := pool[j.e]
		if p == nil {
			p = &pooled{ref: j.e.ref}
			pool[j.e] = p
		}
		p.add(o.results[0])
	}
	for e, p := range pool {
		if err := p.check(); err != nil {
			r.fail(fmt.Sprintf("service pooled %s: %v", e.name, err))
		}
	}
}

// serviceLayers derives the service's per-layer metrics: the client's
// submit latency and the daemon's phase histograms and counters, as
// deltas over the traced pass.
func serviceLayers(m map[string]float64, outs []svcOutcome, before, after map[string]float64) {
	jobs := float64(len(outs))
	if jobs == 0 {
		return
	}
	submits := make([]float64, len(outs))
	for i, o := range outs {
		submits[i] = o.submit
	}
	m["ddsimd.submit_s_p50"], _ = percentile(submits, 0.5)
	delta := func(series string) float64 { return after[series] - before[series] }
	histMean := func(name string) float64 {
		if n := delta(name + "_count"); n > 0 {
			return delta(name+"_sum") / n
		}
		return 0
	}
	m["ddsimd.queue_wait_s"] = histMean("ddsim_queue_wait_seconds")
	m["ddsimd.simulate_s"] = histMean("ddsim_simulate_seconds")
	m["ddsimd.persist_s"] = histMean("ddsim_persist_seconds")
	m["ddsimd.e2e_s"] = histMean("ddsim_e2e_seconds")
	hits, misses, joins := delta("ddsim_rescache_hits_total"), delta("ddsim_rescache_misses_total"), delta("ddsim_rescache_dedup_joins_total")
	if lookups := hits + misses + joins; lookups > 0 {
		m["rescache.hit_ratio"] = hits / lookups
	}
	m["rescache.dedup_joins"] = joins / jobs
	m["jobstore.wal_appends"] = delta("ddsim_jobstore_wal_appends_total") / jobs
	rejected := 0.0
	for series := range after {
		if strings.HasPrefix(series, "ddsim_jobs_rejected_total") {
			rejected += delta(series)
		}
	}
	m["ddsimd.rejected_n"] = rejected / jobs
}
