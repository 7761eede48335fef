package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// percentile returns the nearest-rank p-quantile of xs (0 < p ≤ 1):
// the smallest sample with at least a share p of all samples at or
// below it. beyond is the number of samples ranked above it, so a
// percentile is only reported as such when beyond is at least ten.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s) - rank
}

// median is the middle sample (the mean of the two middle ones for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// unionClock measures the length of the union of spans reported as
// they start and end, from any number of goroutines: the time during
// which at least one span was open. Overlapping spans (two workers
// inside the backend at once) are counted once. It keeps three words,
// so it stays bounded however many spans pass through it.
type unionClock struct {
	mu    sync.Mutex
	open  int
	since int64 // when open last went from 0 to 1
	total int64
}

func (u *unionClock) enter(now int64) {
	u.mu.Lock()
	if u.open == 0 {
		u.since = now
	}
	u.open++
	u.mu.Unlock()
}

func (u *unionClock) exit(now int64) {
	u.mu.Lock()
	u.open--
	if u.open == 0 {
		u.total += now - u.since
	}
	u.mu.Unlock()
}

// covered returns the union length of the spans closed so far.
func (u *unionClock) covered() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.total
}

// stolen returns the hypervisor steal time accumulated by all CPUs of
// the machine, in seconds (the eighth field of /proc/stat's cpu line,
// in USER_HZ = 100 ticks), or 0 where it is not reported.
func stolen() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// window times a stretch of a run on the benchmark's clock: wall time
// less the time the hypervisor ran other guests on this machine's
// CPUs, averaged over the CPUs. On a shared host steal time comes and
// goes with the neighbours' load; without this correction it moves
// every timing of a run by up to a third. On a dedicated machine steal
// is 0 and the clock is the wall clock.
type window struct {
	start int64
	steal float64
}

func startWindow() window { return window{nanotime(), stolen()} }

// elapsed returns the window's wall time and its steal-free share of it.
func (w window) elapsed() (wall, factor float64) {
	wall = seconds(nanotime() - w.start)
	lost := (stolen() - w.steal) / float64(runtime.NumCPU())
	if wall <= 0 || lost <= 0 || lost >= wall {
		return wall, 1
	}
	return wall, (wall - lost) / wall
}
