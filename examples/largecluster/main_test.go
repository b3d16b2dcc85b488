package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke runs the four-policy comparison on a small fleet and
// checks every policy reports a finished line plus the relative table.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("four end-to-end simulations in -short")
	}
	var buf bytes.Buffer
	if err := run(&buf, 8, 10, 4, 0, []string{"mudi", "gslice", "gpulets", "muxflow"}, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"finished mudi", "finished gslice", "finished gpulets", "finished muxflow", "relative to Mudi"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunShardedSmoke drives the sharded engine the way the 10k-device
// invocation does — auto lane count, single policy.
func TestRunShardedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short")
	}
	var buf bytes.Buffer
	if err := run(&buf, 128, 40, 1, -1, []string{"mudi"}, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "finished mudi") {
		t.Errorf("output missing finished line:\n%s", buf.String())
	}
}

// TestRunProfileSmoke: -profile on the sharded engine prints the
// per-phase engine breakdown sourced from the self-profiling series.
func TestRunProfileSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short")
	}
	var buf bytes.Buffer
	if err := run(&buf, 64, 20, 1, -1, []string{"mudi"}, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"engine profile over", "drain", "apply", "mail", "helper lanes", "step wait"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "merge") {
		t.Errorf("profile output lists the merge phase, which the engine no longer has:\n%s", out)
	}
}
