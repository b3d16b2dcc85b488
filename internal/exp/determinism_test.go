package exp

import (
	"bytes"
	"fmt"
	"testing"

	"mudi/internal/cluster"
	"mudi/internal/runner"
)

// renderTable gives a canonical byte representation of a report table
// for cross-parallelism comparison.
func renderTable(t *testing.T, tab *tableAlias) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRunAllParallelDeterminism is the engine's core guarantee: the
// four end-to-end policy simulations produce byte-identical Result
// summaries whether the cells run on one worker or eight.
func TestRunAllParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full comparison sets in -short")
	}
	summaries := func(parallel int) map[string]string {
		s, err := NewSuite(Config{Seed: 3, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		results, err := s.RunAll()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(results))
		for name, res := range results {
			out[name] = res.Summary()
		}
		return out
	}
	seq := summaries(1)
	par := summaries(8)
	if len(seq) != len(par) {
		t.Fatalf("cell count differs: %d vs %d", len(seq), len(par))
	}
	for name, want := range seq {
		got, ok := par[name]
		if !ok {
			t.Fatalf("parallel run missing cell %q", name)
		}
		if got != want {
			t.Errorf("cell %q: -parallel 8 summary differs from -parallel 1 (len %d vs %d)",
				name, len(got), len(want))
		}
	}
}

// TestLoadSweepParallelDeterminism exercises the Fig. 15-style
// policy × load cell fan-out: fresh per-cell policies must make the
// sweep's per-cell summaries independent of worker count.
func TestLoadSweepParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("eight simulations in -short")
	}
	sweep := func(parallel int) []string {
		s, err := NewSuite(Config{Seed: 5, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		devices, _, _, _ := s.Config.sizes()
		var cells []runner.Cell[*cluster.Result]
		for _, name := range []string{"mudi", "gslice"} {
			for _, load := range []float64{1, 2} {
				name, load := name, load
				cells = append(cells, runner.Cell[*cluster.Result]{
					Key: fmt.Sprintf("%s@%gx", name, load),
					Run: func() (*cluster.Result, error) {
						policy, err := s.freshPolicy(name)
						if err != nil {
							return nil, err
						}
						return s.Config.simulate(cluster.Options{
							Policy: policy, Oracle: s.Oracle,
							Devices: devices, Arrivals: s.Arrivals, LoadFactor: load,
						})
					},
				})
			}
		}
		ress, err := runner.Run(s.pool, cells)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(ress))
		for i, res := range ress {
			out[i] = res.Summary()
		}
		return out
	}
	seq := sweep(1)
	par := sweep(8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("sweep cell %d: parallel summary differs from sequential", i)
		}
	}
}

// TestTable2ParallelDeterminism checks a cell family whose randomness
// comes from derived per-cell noise streams (not the simulator): the
// fitting-error table must render identically at any worker count.
func TestTable2ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fitting comparison in -short")
	}
	render := func(parallel int) string {
		tab, err := Table2(Config{Seed: 7, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return renderTable(t, tab)
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("Table 2 renders differently at -parallel 8:\nsequential:\n%s\nparallel:\n%s", seq, par)
	}
}
