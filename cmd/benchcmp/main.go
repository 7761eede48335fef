// Command benchcmp compares two benchtab -json reports — a checked-in
// baseline and a freshly generated current run — and exits non-zero
// when the current run regresses past the slack thresholds. It is the
// comparison half of the bench ratchet (scripts/check_bench.sh): wall
// time is gated on the summed runtime of the cells that completed in
// BOTH reports, and allocation footprint on the summed allocs/op of
// those cells (a signal robust to noisy runners — allocation counts
// do not change when the machine is merely busy). Reports recorded
// with a different Go toolchain or GOMAXPROCS are still compared, under
// a warning line that names both values.
//
// Usage:
//
//	benchcmp -baseline BENCH_baseline.json -current BENCH_pr.json \
//	         -time-slack 0.10 -alloc-slack 0.10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// report mirrors the subset of benchtab's jsonReport the comparison
// needs; unknown fields are ignored so the formats can grow.
type report struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Runs       int     `json:"runs"`
	Tables     []table `json:"tables"`
}

type table struct {
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Rows    []row    `json:"rows"`
}

type row struct {
	Name  string `json:"name"`
	N     int    `json:"n"`
	Cells []cell `json:"cells"`
}

type cell struct {
	Status      string  `json:"status"`
	Seconds     float64 `json:"seconds"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Tables) == 0 {
		return nil, fmt.Errorf("%s: no tables in report", path)
	}
	return &r, nil
}

// key identifies one cell across reports: table title, row identity
// and column name.
type key struct {
	table  string
	name   string
	n      int
	column string
}

// index flattens a report into its ok cells.
func index(r *report) map[key]cell {
	out := make(map[key]cell)
	for _, t := range r.Tables {
		for _, rw := range t.Rows {
			for i, c := range rw.Cells {
				if i >= len(t.Columns) || c.Status != "ok" {
					continue
				}
				out[key{table: t.Title, name: rw.Name, n: rw.N, column: t.Columns[i]}] = c
			}
		}
	}
	return out
}

func pct(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (cur - base) / base
}

func main() {
	var (
		basePath   = flag.String("baseline", "BENCH_baseline.json", "checked-in baseline report")
		curPath    = flag.String("current", "BENCH_pr.json", "freshly generated report")
		timeSlack  = flag.Float64("time-slack", 0.10, "tolerated relative wall-time regression (0.10 = 10%)")
		allocSlack = flag.Float64("alloc-slack", 0.10, "tolerated relative allocs/op regression")
	)
	flag.Parse()
	os.Exit(run(*basePath, *curPath, *timeSlack, *allocSlack, os.Stdout, os.Stderr))
}

// run is main minus flag parsing and os.Exit, returning the exit
// code: 0 pass, 1 regression past slack, 2 unusable inputs.
func run(basePath, curPath string, timeSlack, allocSlack float64, stdout, stderr io.Writer) int {
	base, err := load(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 2
	}
	cur, err := load(curPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 2
	}

	if base.GoVersion != cur.GoVersion || base.GOMAXPROCS != cur.GOMAXPROCS {
		fmt.Fprintf(stderr, "benchcmp: WARNING: unlike runs compared: go_version %q (baseline) vs %q (current), gomaxprocs %d vs %d\n",
			base.GoVersion, cur.GoVersion, base.GOMAXPROCS, cur.GOMAXPROCS)
	}

	baseCells := index(base)
	curCells := index(cur)

	// Aggregate over the cells ok in both reports, per table and in
	// total. Cells only one side completed (budget-boundary flapping,
	// new workloads) are counted and reported but not gated on.
	type agg struct {
		cells                 int
		baseSec, curSec       float64
		baseAllocs, curAllocs int64
		allocCells            int
		worstKey              string
		worstPct              float64
	}
	perTable := make(map[string]*agg)
	var order []string
	total := &agg{}
	for k, bc := range baseCells {
		cc, ok := curCells[k]
		if !ok {
			continue
		}
		ta := perTable[k.table]
		if ta == nil {
			ta = &agg{}
			perTable[k.table] = ta
			order = append(order, k.table)
		}
		for _, a := range []*agg{ta, total} {
			a.cells++
			a.baseSec += bc.Seconds
			a.curSec += cc.Seconds
			if bc.AllocsPerOp > 0 {
				a.allocCells++
				a.baseAllocs += bc.AllocsPerOp
				a.curAllocs += cc.AllocsPerOp
			}
		}
		if d := pct(cc.Seconds, bc.Seconds); d > ta.worstPct {
			ta.worstPct = d
			ta.worstKey = fmt.Sprintf("%s n=%d %s", k.name, k.n, k.column)
		}
	}
	if total.cells == 0 {
		fmt.Fprintln(stderr, "benchcmp: no cell completed in both reports — nothing to compare")
		return 2
	}

	// Deterministic table order (map iteration above is not).
	for _, t := range base.Tables {
		if perTable[t.Title] != nil {
			for i, seen := range order {
				if seen == t.Title {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
			order = append(order, t.Title)
		}
	}

	fmt.Fprintf(stdout, "bench comparison: %s vs baseline %s (%d shared ok cells)\n", curPath, basePath, total.cells)
	for _, title := range order {
		a := perTable[title]
		fmt.Fprintf(stdout, "  %-60s %8.2fs vs %8.2fs (%+.1f%%)", title, a.curSec, a.baseSec, pct(a.curSec, a.baseSec))
		if a.allocCells > 0 {
			fmt.Fprintf(stdout, "  allocs/op %d vs %d (%+.1f%%)", a.curAllocs, a.baseAllocs, pct(float64(a.curAllocs), float64(a.baseAllocs)))
		}
		fmt.Fprintln(stdout)
		if a.worstPct > 100*timeSlack && a.worstKey != "" {
			fmt.Fprintf(stdout, "    slowest-moving cell: %s (%+.1f%%)\n", a.worstKey, a.worstPct)
		}
	}

	fail := false
	timePct := pct(total.curSec, total.baseSec)
	if total.curSec > total.baseSec*(1+timeSlack) {
		fmt.Fprintf(stderr, "bench check FAILED: total wall time %.2fs is %+.1f%% vs the %.2fs baseline (slack %.0f%%)\n",
			total.curSec, timePct, total.baseSec, 100*timeSlack)
		fail = true
	}
	if total.allocCells > 0 && float64(total.curAllocs) > float64(total.baseAllocs)*(1+allocSlack) {
		fmt.Fprintf(stderr, "bench check FAILED: total allocs/op %d is %+.1f%% vs the %d baseline (slack %.0f%%)\n",
			total.curAllocs, pct(float64(total.curAllocs), float64(total.baseAllocs)), total.baseAllocs, 100*allocSlack)
		fail = true
	}
	if fail {
		fmt.Fprintln(stderr, "(optimise, or — if the regression is intended and reviewed — refresh with scripts/check_bench.sh --update)")
		return 1
	}
	fmt.Fprintf(stdout, "bench check OK: total %.2fs vs %.2fs baseline (%+.1f%%, slack %.0f%%)",
		total.curSec, total.baseSec, timePct, 100*timeSlack)
	if total.allocCells > 0 {
		fmt.Fprintf(stdout, "; allocs/op %d vs %d (%+.1f%%)",
			total.curAllocs, total.baseAllocs, pct(float64(total.curAllocs), float64(total.baseAllocs)))
	}
	fmt.Fprintln(stdout)
	return 0
}
