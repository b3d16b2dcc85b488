package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"mudi/internal/timeline"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric and
// workload definitions here in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end_to_end[%d] = %s %s %s, the code has %s %s %s",
				i, got.Name, got.Unit, got.Better, m.name, m.unit, m.better)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %s %s %s, the code has %s %s %s",
				i, got.Name, got.Unit, got.Better, m.name, m.unit, m.better)
		}
	}
}

// TestSmoke runs every workload small, untraced and traced, and checks
// that the run passes its own output checks and prints every metric.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				r, err := runWorkload(w, 1, 0, trace, small, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct {
					t.Fatalf("checks failed: %v", r.Problems)
				}
				if trace == 1 {
					var wrapped, plain string
					for _, rp := range r.Reps {
						if rp.Traced {
							wrapped = rp.SummarySHA256
						} else {
							plain = rp.SummarySHA256
						}
					}
					if wrapped == "" || wrapped != plain {
						t.Fatalf("wrapped Summary hash %q, unwrapped %q", wrapped, plain)
					}
				}
				var out bytes.Buffer
				printLines(&out, r)
				printed := map[string]string{}
				sc := bufio.NewScanner(&out)
				for sc.Scan() {
					f := strings.Fields(sc.Text())
					if len(f) != 4 || f[0] != w.name {
						t.Fatalf("malformed line %q", sc.Text())
					}
					printed[f[1]] = f[3]
				}
				for _, d := range defs(trace) {
					if unit, ok := printed[d.name]; !ok || unit != d.unit {
						t.Errorf("metric %s printed with unit %q, want %q", d.name, unit, d.unit)
					}
				}
				line, err := resultLine(r)
				if err != nil {
					t.Fatal(err)
				}
				var res struct {
					Correct   bool                 `json:"correct"`
					Attempted int                  `json:"attempted"`
					Failed    int                  `json:"failed"`
					Metrics   map[string]valueUnit `json:"metrics"`
				}
				if err := json.Unmarshal(line, &res); err != nil {
					t.Fatalf("result line %s: %v", line, err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs(trace)) {
					t.Errorf("result line %s", line)
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(vs, n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
	} {
		q1, q3 := quartiles(tc.vs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.vs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestTail(t *testing.T) {
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	if v, p := tail(vs); v != 990 || p != 99 {
		t.Errorf("tail of 1..1000 = %v at p%v, want 990 at p99", v, p)
	}
	if v, p := tail(vs[:100]); v != 90 || p != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, p)
	}
	if v, p := tail(vs[:10]); v != 5 || p != 50 {
		t.Errorf("tail of 1..10 = %v at p%v, want 5 at p50", v, p)
	}
}

// TestSeriesTotal checks the read-back of a series' sum and count
// against what was recorded, including after the raw level evicted.
func TestSeriesTotal(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 64, 1000, 5003} {
		st := timeline.New(timeline.Defaults())
		sr := st.Series(timeline.EngineDrainMs, "")
		var want float64
		for i := 0; i < n; i++ {
			v := float64(i%13) + 0.5
			sr.Add(float64(i), v)
			want += v
		}
		sum, count, err := seriesTotal(st.Snapshot(true)[0])
		if err != nil {
			t.Fatal(err)
		}
		if count != int64(n) || math.Abs(sum-want) > 1e-9*want {
			t.Errorf("n=%d: total %v over %d samples, want %v over %d", n, sum, count, want, n)
		}
	}
}
