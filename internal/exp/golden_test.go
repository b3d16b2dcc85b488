package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mudi/internal/report"
)

// -update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/exp -run 'Golden|EndToEndFigures|Optimality|Fig13Ablations|Fig3Fig4|AblationTuner' -update
//
// The Fig. 3, Fig. 4, Fig. 8, Fig. 13, §5.4 optimality and tuner-ablation
// goldens are checked inside the shape tests that already compute those
// tables, so pinning them costs no extra simulation.
var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares a rendered table with testdata/name, or rewrites
// the file under -update. The goldens are pinned at seed 1, so at any
// other -seed it compares nothing and the calling test runs on.
func checkGolden(t *testing.T, tab *report.Table, name string) {
	t.Helper()
	if *seed != 1 {
		t.Logf("%s not compared at seed %d", name, *seed)
		return
	}
	var b strings.Builder
	if err := tab.WriteASCII(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("table differs from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestFidelityGolden pins the rendered fidelity table: the request-level
// serving model's whole observable contract (P99, busy share, mean
// batch, violation rate per batch cap) at the small scale.
func TestFidelityGolden(t *testing.T) {
	tab, err := Fidelity(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab, "fidelity_small.golden")
}

// TestFig16Golden pins the rendered bursty-QPS case study: every
// sampled window's QPS, batch, GPU share, latency, budget, swapped
// memory and pause flag, plus the violation-rate and swap notes.
func TestFig16Golden(t *testing.T) {
	tab, err := Fig16(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tab, "fig16_small.golden")
}
