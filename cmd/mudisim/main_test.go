package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleSimulation(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-devices", "4", "-tasks", "5"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"mean SLO violation", "makespan (s)", "learner: ", "latency MAPE", "per-service SLO violation"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSON(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-devices", "4", "-tasks", "4", "-json"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\"policy\"") {
		t.Fatalf("json output:\n%s", b.String())
	}
}

// TestRunRepeatsDeterministic drives the replica fan-out twice with
// different worker counts: the per-replica tables must be identical.
func TestRunRepeatsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("six simulations in -short")
	}
	render := func(parallel string) string {
		var b strings.Builder
		err := run([]string{"-devices", "4", "-tasks", "4", "-repeats", "3", "-parallel", parallel}, &b)
		if err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	seq := render("1")
	par := render("4")
	// The table header names the worker count; compare everything after it.
	trim := func(s string) string {
		if i := strings.Index(s, "\n"); i >= 0 {
			return s[i:]
		}
		return s
	}
	if trim(seq) != trim(par) {
		t.Errorf("replica tables differ across -parallel:\nseq:\n%s\npar:\n%s", seq, par)
	}
}

// TestRunWithFaults exercises the -faults flag end to end: the fault
// rows appear in the table, and a disabled run does not print them.
func TestRunWithFaults(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-devices", "2", "-tasks", "3", "-seed", "7",
		"-faults", "mtbf=120,mttr=30,meas=0.2,spin=0.2,retries=3,seed=5"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"device failures / recoveries", "failovers", "failed spin-ups", "measurement retries"} {
		if !strings.Contains(out, want) {
			t.Errorf("faulted output missing %q:\n%s", want, out)
		}
	}
	var plain strings.Builder
	if err := run([]string{"-devices", "2", "-tasks", "3", "-seed", "7"}, &plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "device failures") {
		t.Error("unfaulted run printed fault rows")
	}
}

func TestParseFaults(t *testing.T) {
	if cfg, err := parseFaults(""); err != nil || cfg != nil {
		t.Fatalf("empty spec: %v %v", cfg, err)
	}
	cfg, err := parseFaults("default")
	if err != nil || cfg == nil || !cfg.Enabled() {
		t.Fatalf("default preset: %+v, %v", cfg, err)
	}
	cfg, err = parseFaults("mtbf=300,pciex=2.5,pcie-mtbf=100,pcie-mttr=10")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DeviceMTBFSec != 300 || cfg.PCIeDegradeFactor != 2.5 || cfg.PCIeMTBFSec != 100 || cfg.PCIeMTTRSec != 10 {
		t.Fatalf("parsed %+v", cfg)
	}
	for _, bad := range []string{"nope", "mtbf", "mtbf=x", "unknown=1", "retries=x", "seed=x"} {
		if _, err := parseFaults(bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-burst", "nope"}, &b); err == nil {
		t.Fatal("bad burst accepted")
	}
	if err := run([]string{"-faults", "mtbf=-1"}, &b); err == nil {
		t.Fatal("invalid fault config accepted")
	}
	if err := run([]string{"-repeats", "2", "-json"}, &b); err == nil {
		t.Fatal("-json with -repeats accepted")
	}
	if err := run([]string{"-policy", "bogus", "-devices", "2", "-tasks", "2"}, &b); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestRunTraceRoundTrip is the CLI record→replay smoke test: a bursty
// faulted run recorded with -trace-out, replayed with -trace-in, must
// produce the same metrics tables, and re-recording the replay must
// reproduce the trace file byte for byte.
func TestRunTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recPath := filepath.Join(dir, "rec.trace")
	repPath := filepath.Join(dir, "rep.trace")
	faults := "mtbf=500,mttr=60"

	var recOut strings.Builder
	err := run([]string{"-devices", "3", "-tasks", "4", "-gap", "5",
		"-burst", "40:120:3", "-faults", faults, "-trace-out", recPath}, &recOut)
	if err != nil {
		t.Fatal(err)
	}
	recBytes, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}

	var repOut strings.Builder
	err = run([]string{"-trace-in", recPath, "-faults", faults, "-trace-out", repPath}, &repOut)
	if err != nil {
		t.Fatal(err)
	}
	repBytes, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recBytes, repBytes) {
		t.Fatal("re-recorded replay trace differs from the original recording")
	}

	// The tables after the title line (which names the mode) must match:
	// the replay reproduces every simulated metric.
	body := func(s string) string {
		if i := strings.Index(s, "\n"); i >= 0 {
			return s[i:]
		}
		return s
	}
	if body(recOut.String()) != body(repOut.String()) {
		t.Errorf("replay metrics diverged from recording:\n--- recorded ---\n%s\n--- replayed ---\n%s",
			recOut.String(), repOut.String())
	}
}

// TestRunScenario replays a library scenario by name.
func TestRunScenario(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-scenario", "steady-baseline"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `scenario "steady-baseline"`) {
		t.Errorf("title missing scenario name:\n%s", out)
	}
	if !strings.Contains(out, "completed / admitted") {
		t.Errorf("metrics table missing:\n%s", out)
	}
	if err := run([]string{"-scenario", "bogus"}, &b); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestRunTraceFlagErrors pins the replay-mode conflicts.
func TestRunTraceFlagErrors(t *testing.T) {
	dir := t.TempDir()
	recPath := filepath.Join(dir, "rec.trace")
	var b strings.Builder
	if err := run([]string{"-devices", "2", "-tasks", "2", "-trace-out", recPath}, &b); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-trace-in", recPath, "-tasks", "5"},
		{"-trace-in", recPath, "-gap", "3"},
		{"-trace-in", recPath, "-load", "2"},
		{"-trace-in", recPath, "-burst", "1:2:3"},
		{"-trace-in", recPath, "-scenario", "steady-baseline"},
		{"-trace-in", recPath, "-devices", "9"},
		{"-trace-in", filepath.Join(dir, "missing.trace")},
		{"-repeats", "2", "-scenario", "steady-baseline"},
	}
	for _, args := range cases {
		if err := run(args, &b); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
	// A bare integer is not a trace path; the error points at
	// -timelines, which records the per-window view.
	if err := run([]string{"-trace", "1"}, &b); err == nil || !strings.Contains(err.Error(), "-timelines") {
		t.Errorf("-trace 1: err = %v, want an error naming -timelines", err)
	}
}

// TestRunClasses drives the -classes flag end to end: the per-class
// table appears with shed load confined to shed-eligible classes, a
// classless run never prints it, and malformed class lists are
// rejected.
func TestRunClasses(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-devices", "6", "-tasks", "6", "-seed", "9",
		"-burst", "20:80:4",
		"-classes", "sheddable,standard,critical,critical,standard,background"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"per-class SLO", "critical", "sheddable", "device-windows"} {
		if !strings.Contains(out, want) {
			t.Errorf("classed output missing %q:\n%s", want, out)
		}
	}
	var plain strings.Builder
	if err := run([]string{"-devices", "6", "-tasks", "6", "-seed", "9", "-burst", "20:80:4"}, &plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "per-class SLO") {
		t.Error("classless run printed the per-class table")
	}
	for _, bad := range []string{"bogus", "critical,,standard", ","} {
		if err := run([]string{"-devices", "2", "-tasks", "2", "-classes", bad}, &b); err == nil {
			t.Errorf("bad -classes %q accepted", bad)
		}
	}
}
