package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// synthetic is a minimal benchtab-shaped report over four cells: two
// rows of two columns.
func synthetic(cells []cell) report {
	return report{
		Runs: 10,
		Tables: []table{{
			Title:   "Table T — synthetic",
			Columns: []string{"proposed(dd)", "statevec"},
			Rows: []row{
				{Name: "w_8", N: 8, Cells: cells[:2]},
				{Name: "w_16", N: 16, Cells: cells[2:]},
			},
		}},
	}
}

// mkReport writes synthetic(cells) and returns its path.
func mkReport(t *testing.T, name string, cells []cell) string {
	t.Helper()
	return writeReport(t, name, synthetic(cells))
}

func writeReport(t *testing.T, name string, r report) string {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCmp(t *testing.T, base, cur string, timeSlack, allocSlack float64) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(base, cur, timeSlack, allocSlack, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestOKWithinSlack(t *testing.T) {
	base := mkReport(t, "base.json", []cell{
		{Status: "ok", Seconds: 1.0, AllocsPerOp: 100},
		{Status: "ok", Seconds: 2.0, AllocsPerOp: 200},
		{Status: "ok", Seconds: 3.0, AllocsPerOp: 300},
		{Status: "timeout"},
	})
	cur := mkReport(t, "cur.json", []cell{
		{Status: "ok", Seconds: 1.05, AllocsPerOp: 100},
		{Status: "ok", Seconds: 2.0, AllocsPerOp: 190},
		{Status: "ok", Seconds: 2.9, AllocsPerOp: 310},
		{Status: "ok", Seconds: 9.9}, // only ok on one side: reported, not gated
	})
	code, out, errOut := runCmp(t, base, cur, 0.10, 0.10)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "bench check OK") || !strings.Contains(out, "3 shared ok cells") {
		t.Fatalf("unexpected output: %s", out)
	}
	if !strings.Contains(out, "allocs/op") {
		t.Fatalf("alloc aggregate missing from output: %s", out)
	}
}

func TestTimeRegressionFails(t *testing.T) {
	base := mkReport(t, "base.json", []cell{
		{Status: "ok", Seconds: 1.0}, {Status: "ok", Seconds: 1.0},
		{Status: "ok", Seconds: 1.0}, {Status: "ok", Seconds: 1.0},
	})
	cur := mkReport(t, "cur.json", []cell{
		{Status: "ok", Seconds: 1.0}, {Status: "ok", Seconds: 1.0},
		{Status: "ok", Seconds: 2.0}, {Status: "ok", Seconds: 1.0},
	})
	code, out, errOut := runCmp(t, base, cur, 0.10, 0.10)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout: %s", code, out)
	}
	if !strings.Contains(errOut, "bench check FAILED: total wall time") {
		t.Fatalf("unexpected stderr: %s", errOut)
	}
	if !strings.Contains(out, "slowest-moving cell: w_16 n=16 proposed(dd)") {
		t.Fatalf("worst cell not named: %s", out)
	}
}

func TestAllocRegressionFailsEvenWhenTimeImproves(t *testing.T) {
	base := mkReport(t, "base.json", []cell{
		{Status: "ok", Seconds: 2.0, AllocsPerOp: 100},
		{Status: "ok", Seconds: 2.0, AllocsPerOp: 100},
		{Status: "ok", Seconds: 2.0, AllocsPerOp: 100},
		{Status: "ok", Seconds: 2.0, AllocsPerOp: 100},
	})
	cur := mkReport(t, "cur.json", []cell{
		{Status: "ok", Seconds: 1.0, AllocsPerOp: 200},
		{Status: "ok", Seconds: 1.0, AllocsPerOp: 100},
		{Status: "ok", Seconds: 1.0, AllocsPerOp: 100},
		{Status: "ok", Seconds: 1.0, AllocsPerOp: 100},
	})
	code, _, errOut := runCmp(t, base, cur, 0.10, 0.10)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "bench check FAILED: total allocs/op") {
		t.Fatalf("unexpected stderr: %s", errOut)
	}
}

// A baseline without alloc data (recorded by an older benchtab) must
// not trip the allocation gate — only the wall-time one applies.
func TestMissingBaselineAllocsSkipsAllocGate(t *testing.T) {
	base := mkReport(t, "base.json", []cell{
		{Status: "ok", Seconds: 1.0}, {Status: "ok", Seconds: 1.0},
		{Status: "ok", Seconds: 1.0}, {Status: "ok", Seconds: 1.0},
	})
	cur := mkReport(t, "cur.json", []cell{
		{Status: "ok", Seconds: 1.0, AllocsPerOp: 500},
		{Status: "ok", Seconds: 1.0, AllocsPerOp: 500},
		{Status: "ok", Seconds: 1.0, AllocsPerOp: 500},
		{Status: "ok", Seconds: 1.0, AllocsPerOp: 500},
	})
	code, out, errOut := runCmp(t, base, cur, 0.10, 0.10)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if strings.Contains(out, "allocs/op") {
		t.Fatalf("alloc aggregate should be absent without baseline data: %s", out)
	}
}

func TestNoSharedCells(t *testing.T) {
	base := mkReport(t, "base.json", []cell{
		{Status: "ok", Seconds: 1.0}, {Status: "timeout"},
		{Status: "timeout"}, {Status: "timeout"},
	})
	cur := mkReport(t, "cur.json", []cell{
		{Status: "timeout"}, {Status: "ok", Seconds: 1.0},
		{Status: "ok", Seconds: 1.0}, {Status: "ok", Seconds: 1.0},
	})
	code, _, errOut := runCmp(t, base, cur, 0.10, 0.10)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "nothing to compare") {
		t.Fatalf("unexpected stderr: %s", errOut)
	}
}

func TestLoadErrors(t *testing.T) {
	good := mkReport(t, "good.json", []cell{
		{Status: "ok", Seconds: 1.0}, {Status: "ok", Seconds: 1.0},
		{Status: "ok", Seconds: 1.0}, {Status: "ok", Seconds: 1.0},
	})
	if code, _, _ := runCmp(t, filepath.Join(t.TempDir(), "absent.json"), good, 0.1, 0.1); code != 2 {
		t.Fatalf("missing baseline: exit %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCmp(t, good, bad, 0.1, 0.1); code != 2 {
		t.Fatalf("corrupt current: exit %d, want 2", code)
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"runs":1,"tables":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCmp(t, good, empty, 0.1, 0.1); code != 2 {
		t.Fatalf("tableless current: exit %d, want 2", code)
	}
}

// Reports from different toolchains or core counts are still compared
// with the same gate, under one warning line naming both values.
func TestUnlikeRunsWarn(t *testing.T) {
	r := synthetic([]cell{
		{Status: "ok", Seconds: 1.0}, {Status: "ok", Seconds: 1.0},
		{Status: "ok", Seconds: 1.0}, {Status: "ok", Seconds: 1.0},
	})
	r.GoVersion, r.GOMAXPROCS = "go1.24.0", 1
	base := writeReport(t, "base.json", r)
	same := writeReport(t, "same.json", r)
	r.GoVersion, r.GOMAXPROCS = "go1.22.5", 2
	cur := writeReport(t, "cur.json", r)

	code, out, errOut := runCmp(t, base, cur, 0.10, 0.10)
	if code != 0 || !strings.Contains(out, "bench check OK") {
		t.Fatalf("exit %d, stdout: %s, stderr: %s", code, out, errOut)
	}
	want := `benchcmp: WARNING: unlike runs compared: go_version "go1.24.0" (baseline) vs "go1.22.5" (current), gomaxprocs 1 vs 2` + "\n"
	if errOut != want {
		t.Fatalf("stderr %q, want %q", errOut, want)
	}
	if _, _, errOut := runCmp(t, base, same, 0.10, 0.10); strings.Contains(errOut, "WARNING") {
		t.Fatalf("like-for-like comparison warned: %s", errOut)
	}
}
