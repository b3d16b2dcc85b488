package trace

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mudi/internal/atomicio"
	"mudi/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite the golden workload fixtures")

// checkGolden compares rendered output against a testdata fixture,
// rewriting it under -update. Pinning these under a fixed seed makes
// the legacy generator paths (random walk, Philly) refactor-safe: any
// behavioural drift shows up as a fixture diff, not a silent change to
// every downstream experiment.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := atomicio.WriteFile(path, func(w io.Writer) error {
			_, err := io.WriteString(w, got)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from golden (run with -update if intentional):\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestFluctuatingWalkGolden pins the mean-reverting random walk: level
// samples every 10 s (the walk's step interval) for the first 600 s
// under seed 1.
func TestFluctuatingWalkGolden(t *testing.T) {
	q := NewFluctuatingQPS(200, xrand.New(1))
	var b strings.Builder
	for ts := 0.0; ts <= 600; ts += 10 {
		fmt.Fprintf(&b, "t=%g qps=%.6f\n", ts, q.At(ts))
	}
	checkGolden(t, "fluctuating_walk.golden", b.String())
}

// TestPhillyTraceGolden pins the Philly-like arrival generator: the
// first 60 arrivals (time, task, iters) under seed 1 with the default
// experiment knobs.
func TestPhillyTraceGolden(t *testing.T) {
	arr, err := PhillyTrace(PhillyConfig{Count: 60, MeanGapSec: 20, ScaleIters: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, a := range arr {
		fmt.Fprintf(&b, "id=%d t=%.6f task=%s iters=%d gpus=%d\n",
			a.ID, a.At, a.Task.Name, a.Iters, a.GPUsReq)
	}
	checkGolden(t, "philly.golden", b.String())
}

// TestBurstyOverConstantGolden pins the burst-episode overlay against a
// flat inner trace — the exact Fig. 16 shape (3× between 100 s and
// 200 s, end exclusive).
func TestBurstyOverConstantGolden(t *testing.T) {
	q := NewBurstyQPS(ConstantQPS(100), NewBurstSchedule([]Burst{{Start: 100, End: 200, Factor: 3}}))
	var b strings.Builder
	for _, ts := range []float64{0, 50, 99.999, 100, 150, 199.999, 200, 300} {
		fmt.Fprintf(&b, "t=%g qps=%g\n", ts, q.At(ts))
	}
	checkGolden(t, "bursty_fig16.golden", b.String())
}
