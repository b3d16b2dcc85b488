// Command mudibench regenerates the paper's tables and figures against
// the simulator and prints them as ASCII tables (or CSV).
//
// Usage:
//
//	mudibench -exp all                 # every experiment at small scale
//	mudibench -exp fig8,fig9 -scale physical
//	mudibench -exp tab2 -csv
//	mudibench -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"mudi"
	"mudi/internal/atomicio"
	"mudi/internal/pprofutil"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mudibench: %v\n", err)
		os.Exit(1)
	}
}

// run executes the tool against the given arguments, writing tables to
// stdout; factored out of main for testability. The error return is
// named so the deferred profile writer can surface its failure when
// the run itself succeeded.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("mudibench", flag.ContinueOnError)
	var (
		expFlag      = fs.String("exp", "all", "comma-separated experiment names, or 'all'")
		scaleFlag    = fs.String("scale", "small", "experiment scale: small, physical, simulated")
		csvFlag      = fs.Bool("csv", false, "emit CSV instead of ASCII tables")
		seedFlag     = fs.Uint64("seed", 1, "random seed for the testbed and traces")
		outFlag      = fs.String("o", "", "also write one CSV file per experiment into this directory")
		listFlag     = fs.Bool("list", false, "list experiment names and exit")
		parallelFlag = fs.Int("parallel", runtime.NumCPU(), "worker count for independent experiment cells (results identical for any value)")
		cpuprofFlag  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofFlag  = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := pprofutil.Start(*cpuprofFlag, *memprofFlag)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	if *listFlag {
		for _, name := range mudi.ExperimentNames() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}

	var scale mudi.ExperimentScale
	switch *scaleFlag {
	case "small":
		scale = mudi.ScaleSmall
	case "physical":
		scale = mudi.ScalePhysical
	case "simulated":
		scale = mudi.ScaleSimulated
	default:
		return fmt.Errorf("unknown scale %q (small|physical|simulated)", *scaleFlag)
	}

	var names []string
	if *expFlag != "all" {
		for _, n := range strings.Split(*expFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	if *outFlag != "" {
		if err := os.MkdirAll(*outFlag, 0o755); err != nil {
			return err
		}
	}
	idx := 0
	ecfg := mudi.ExperimentConfig{Seed: *seedFlag, Scale: scale, Parallel: *parallelFlag}
	return mudi.StreamExperiments(names, ecfg, func(tab *mudi.Table) error {
		if *outFlag != "" {
			name := "all"
			if idx < len(names) && len(names) > 0 {
				name = names[idx]
			} else {
				name = mudi.ExperimentNames()[idx]
			}
			idx++
			// Atomic write: a crashed or interrupted run never leaves a
			// truncated CSV behind for downstream plotting scripts.
			if err := atomicio.WriteFile(filepath.Join(*outFlag, name+".csv"), tab.WriteCSV); err != nil {
				return err
			}
		}
		if *csvFlag {
			if err := tab.WriteCSV(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
			return nil
		}
		return tab.WriteASCII(stdout)
	})
}
