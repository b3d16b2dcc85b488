// Command benchmark measures the Mudi simulator on fixed workloads.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-o out.json]
//
// With -workload it runs that workload for -seconds: untraced
// repetitions with -trace 0, which give the end-to-end metrics, or
// alternating untraced and traced repetitions with -trace 1, which give
// the per-layer metrics. It prints every metric as
// "<workload> <metric> <value> <unit>" and, as its last line, one JSON
// object with the keys correct, attempted, failed and metrics. Without
// -workload it runs every workload both ways and prints the metric
// lines. -o writes every repetition's raw values, the medians and
// quartiles, and the host's description as JSON. The exit code is 1
// when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: every workload, untraced and traced)")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 35, "measuring time per workload and trace mode")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (with -workload)")
	outPath := fs.String("o", "", "write raw repetitions, medians, quartiles and host details to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	ws, traces := workloads, []int{0, 1}
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		ws, traces = []workload{w}, []int{*trace}
	}
	var runs []*run
	for _, w := range ws {
		for _, t := range traces {
			r, err := runWorkload(w, *seed, *seconds, t, full, minReps(t))
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			printLines(stdout, r)
			runs = append(runs, r)
		}
	}
	if *outPath != "" {
		if err := writeReport(*outPath, *seed, *seconds, runs); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *name != "" {
		line, err := resultLine(runs[0])
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	code := 0
	for _, r := range runs {
		for _, p := range r.Problems {
			fmt.Fprintf(stderr, "benchmark: check failed: %s\n", p)
			code = 1
		}
	}
	return code
}

// minReps is the fewest repetitions a run makes, however long they
// take: three for a median, or one untraced and one traced.
func minReps(trace int) int {
	if trace == 1 {
		return 2
	}
	return 3
}

func defs(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

func printLines(w io.Writer, r *run) {
	for _, d := range defs(r.Trace) {
		v := r.Metrics[d.name].Value
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line JSON result of a single-workload run.
func resultLine(r *run) ([]byte, error) {
	ms := make(map[string]valueUnit, len(r.Metrics))
	for _, d := range defs(r.Trace) {
		ms[d.name] = valueUnit{Value: r.Metrics[d.name].Value, Unit: d.unit}
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

type provenance struct {
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	Seed        uint64  `json:"seed"`
	TestbedSeed uint64  `json:"testbed_seed"`
	Seconds     float64 `json:"seconds"`
}

func writeReport(path string, seed uint64, seconds float64, runs []*run) error {
	data, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Runs       []*run     `json:"runs"`
	}{
		Provenance: provenance{
			NumCPU:      runtime.NumCPU(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			GoVersion:   runtime.Version(),
			GOOS:        runtime.GOOS,
			GOARCH:      runtime.GOARCH,
			Seed:        seed,
			TestbedSeed: testbedSeed,
			Seconds:     seconds,
		},
		Runs: runs,
	}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}
