// Command mudisim runs one end-to-end cluster simulation and prints
// the resulting SLO, training-efficiency, and utilization metrics.
//
// Usage:
//
//	mudisim -policy mudi -devices 12 -tasks 50
//	mudisim -policy gslice -load 3
//	mudisim -policy mudi -burst 100:200:3 -trace 1
//	mudisim -classes critical,standard,sheddable -burst 60:180:4
//	mudisim -repeats 8 -parallel 4     # 8 seed-derived replicas, 4 workers
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"mudi"
	"mudi/internal/atomicio"
	"mudi/internal/pprofutil"
	"mudi/internal/report"
	"mudi/internal/runner"
	"mudi/internal/stats"
	"mudi/internal/xrand"
	"mudi/telemetryhttp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mudisim: %v\n", err)
		os.Exit(1)
	}
}

// run executes the tool against the given arguments, writing output to
// stdout; factored out of main for testability. The error return is
// named so the deferred profile writer can surface its failure when
// the run itself succeeded.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("mudisim", flag.ContinueOnError)
	var (
		policyFlag   = fs.String("policy", "mudi", "policy: mudi, gslice, gpulets, muxflow, random, optimal")
		devicesFlag  = fs.Int("devices", 12, "number of GPUs")
		tasksFlag    = fs.Int("tasks", 30, "number of training-task arrivals")
		gapFlag      = fs.Float64("gap", 8, "mean arrival gap in seconds")
		loadFlag     = fs.Float64("load", 1, "QPS load multiplier")
		seedFlag     = fs.Uint64("seed", 1, "random seed")
		queueFlag    = fs.String("queue", "fcfs", "queue policy: fcfs, sjf, fair, priority")
		classesFlag  = fs.String("classes", "", "comma-separated SLO class names (critical, standard, sheddable, batch, background) assigned round-robin over the service catalog; enables class-aware routing and admission control")
		burstFlag    = fs.String("burst", "", "QPS burst as start:end:factor (e.g. 100:200:3)")
		traceFlag    = fs.String("trace", "", "1-based device index for the per-window device trace, or a file path: the run's causal spans are written there as Chrome trace-event JSON (open in Perfetto or chrome://tracing)")
		moreFlag     = fs.Int("maxtrain", 1, "max training tasks per GPU (3 = Mudi-more)")
		shardsFlag   = fs.Int("shards", 0, "event-engine shard lanes: 0 or negative = auto (min(GOMAXPROCS, devices/64)), N = that many lanes; summaries are identical for every lane count")
		admitFlag    = fs.Float64("admit-factor", 0, "burst admission cap as a multiple of nominal QPS (0 = default 1.5); windows above the cap shed sheddable/background excess")
		jsonFlag     = fs.Bool("json", false, "emit the result as JSON instead of tables")
		repeatsFlag  = fs.Int("repeats", 1, "replica count: run the simulation N times with seeds derived from -seed and report mean/std")
		parallelFlag = fs.Int("parallel", runtime.NumCPU(), "worker count for replica fan-out (results identical for any value)")
		eventsFlag   = fs.Bool("events", false, "stream the run's structured event log as NDJSON (one JSON object per line) before the tables")
		metricsFlag  = fs.Bool("metrics", false, "stream the run's metrics snapshot as NDJSON before the tables")
		eventsOut    = fs.String("events-out", "", "write the structured event log as NDJSON to this file (atomic: temp file in the destination directory, then rename)")
		metricsOut   = fs.String("metrics-out", "", "write the metrics snapshot as NDJSON to this file (atomic)")
		tlFlag       = fs.Bool("timelines", false, "record multi-resolution timeline series (per-service QPS/P99/violation, class roll-ups, fleet signals, engine self-profile) and stream them as NDJSON before the tables")
		tlOut        = fs.String("timelines-out", "", "write the timeline series as NDJSON to this file (atomic); implies -timelines recording")
		httpFlag     = fs.String("http", "", "serve live telemetry on this address while the run is in flight: /metrics (Prometheus text), /slo (attribution JSON), /healthz, /debug/vars, /debug/pprof/")
		faultsFlag   = fs.String("faults", "", "deterministic fault injection: \"default\" or comma-separated key=value pairs (mtbf, mttr, meas, retries, spin, pciex, pcie-mtbf, pcie-mttr, seed), e.g. \"mtbf=300,mttr=45,meas=0.1\"")
		traceInFlag  = fs.String("trace-in", "", "replay a recorded trace-v2 workload from this file (-tasks/-gap/-load/-burst do not apply; -devices must match the trace header if given)")
		traceOutFlag = fs.String("trace-out", "", "record this run's workload (QPS steps + task arrivals) as a trace-v2 file, replayable with -trace-in")
		scenarioFlag = fs.String("scenario", "", "replay a named scenario from the library: "+strings.Join(mudi.ScenarioNames(), ", "))
		cpuprofFlag  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofFlag  = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	stopProf, err := pprofutil.Start(*cpuprofFlag, *memprofFlag)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	// -trace is dual-use: a bare integer keeps the legacy per-window
	// device trace; anything else is a Chrome trace-event output path.
	traceDevIdx := 0
	tracePath := ""
	if *traceFlag != "" {
		if n, aerr := strconv.Atoi(*traceFlag); aerr == nil {
			traceDevIdx = n
		} else {
			tracePath = *traceFlag
		}
	}

	var bursts []mudi.Burst
	if *burstFlag != "" {
		parts := strings.Split(*burstFlag, ":")
		if len(parts) != 3 {
			return fmt.Errorf("bad -burst %q, want start:end:factor", *burstFlag)
		}
		var vals [3]float64
		for i, p := range parts {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return fmt.Errorf("bad -burst %q: %v", *burstFlag, err)
			}
			vals[i] = v
		}
		bursts = []mudi.Burst{{Start: vals[0], End: vals[1], Factor: vals[2]}}
	}

	faultCfg, err := parseFaults(*faultsFlag)
	if err != nil {
		return err
	}

	var classMix []mudi.SLOClass
	if *classesFlag != "" {
		for _, name := range strings.Split(*classesFlag, ",") {
			c, cerr := mudi.ParseSLOClass(strings.TrimSpace(name))
			if cerr != nil {
				return fmt.Errorf("bad -classes: %w", cerr)
			}
			if c == mudi.SLOUnset {
				return fmt.Errorf("bad -classes %q: empty class name", *classesFlag)
			}
			classMix = append(classMix, c)
		}
	}

	// Replay source: a recorded trace-v2 file or a named scenario. The
	// workload carries its own device count, QPS streams, and arrivals,
	// so the generator knobs don't apply.
	var workload *mudi.WorkloadTrace
	switch {
	case *traceInFlag != "" && *scenarioFlag != "":
		return fmt.Errorf("-trace-in and -scenario are mutually exclusive")
	case *traceInFlag != "":
		f, oerr := os.Open(*traceInFlag)
		if oerr != nil {
			return oerr
		}
		workload, err = mudi.ReadWorkload(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *traceInFlag, err)
		}
	case *scenarioFlag != "":
		workload, err = mudi.BuildScenario(*scenarioFlag, *seedFlag)
		if err != nil {
			return err
		}
	}
	if workload != nil {
		for _, name := range []string{"tasks", "gap", "load", "burst"} {
			if explicit[name] {
				return fmt.Errorf("-%s does not apply when replaying a workload (-trace-in/-scenario): the trace defines the arrivals and QPS", name)
			}
		}
	}

	// Live telemetry: the instruments are shared with the simulation
	// and served while it runs. The address note goes to stderr so the
	// NDJSON/table output on stdout stays clean.
	var tel *mudi.Telemetry
	if *httpFlag != "" {
		tel = mudi.NewTelemetry()
		ln, lerr := net.Listen("tcp", *httpFlag)
		if lerr != nil {
			return lerr
		}
		srv := &http.Server{Handler: telemetryhttp.Handler(tel)}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "mudisim: serving telemetry on http://%s\n", ln.Addr())
	}

	simulate := func(seed uint64) (*mudi.Result, error) {
		sys, err := mudi.NewSystem(mudi.SystemConfig{Seed: seed, MaxTrainPerGPU: *moreFlag})
		if err != nil {
			return nil, err
		}
		opts := mudi.SimOptions{
			Queue:          mudi.QueuePolicyID(*queueFlag),
			ClassMix:       classMix,
			TraceDeviceIdx: traceDevIdx,
			Shards:         *shardsFlag,
			AdmitFactor:    *admitFlag,
			Observe:        *eventsFlag || *metricsFlag || *eventsOut != "" || *metricsOut != "",
			Trace:          tracePath != "",
			Timelines:      *tlFlag || *tlOut != "",
			Telemetry:      tel,
			Faults:         faultCfg,
			RecordWorkload: *traceOutFlag != "",
		}
		if workload != nil {
			opts.Workload = workload
			// The trace header fixes the device count; an explicit
			// -devices is passed through so a mismatch surfaces as the
			// Validate error rather than being silently ignored.
			if explicit["devices"] {
				opts.Devices = *devicesFlag
			}
		} else {
			opts.Devices = *devicesFlag
			opts.Tasks = *tasksFlag
			opts.MeanGapSec = *gapFlag
			opts.IterScale = 0.002
			opts.LoadFactor = *loadFlag
			opts.Bursts = bursts
		}
		if *policyFlag != "mudi" {
			p, err := sys.BaselinePolicy(mudi.BaselineID(*policyFlag))
			if err != nil {
				return nil, err
			}
			opts.Policy = p
		}
		return sys.Simulate(opts)
	}

	if *repeatsFlag > 1 {
		if *jsonFlag || *eventsFlag || *metricsFlag || *eventsOut != "" || *metricsOut != "" || *tlFlag || *tlOut != "" || tracePath != "" || *httpFlag != "" || *traceInFlag != "" || *traceOutFlag != "" || *scenarioFlag != "" {
			return fmt.Errorf("-json/-events/-metrics/-events-out/-metrics-out/-timelines/-timelines-out/-trace <path>/-http/-trace-in/-trace-out/-scenario support a single run; drop them or use -repeats 1")
		}
		return runRepeats(*repeatsFlag, *parallelFlag, *seedFlag, *policyFlag, simulate, stdout)
	}

	res, err := simulate(*seedFlag)
	if err != nil {
		return err
	}
	if *traceOutFlag != "" {
		if err := atomicio.WriteFile(*traceOutFlag, func(w io.Writer) error {
			return mudi.WriteWorkload(w, res.Workload)
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mudisim: recorded workload (%d QPS steps, %d tasks) to %s (replay with -trace-in)\n",
			len(res.Workload.QPS), len(res.Workload.Tasks), *traceOutFlag)
	}
	if *eventsFlag {
		if err := mudi.WriteEventsNDJSON(stdout, res.Events); err != nil {
			return err
		}
	}
	if *metricsFlag {
		if err := mudi.WriteMetricsNDJSON(stdout, res.Metrics); err != nil {
			return err
		}
	}
	if *eventsOut != "" {
		if err := atomicio.WriteFile(*eventsOut, func(w io.Writer) error {
			return mudi.WriteEventsNDJSON(w, res.Events)
		}); err != nil {
			return err
		}
	}
	if *metricsOut != "" {
		if err := atomicio.WriteFile(*metricsOut, func(w io.Writer) error {
			return mudi.WriteMetricsNDJSON(w, res.Metrics)
		}); err != nil {
			return err
		}
	}
	if *tlFlag {
		if err := mudi.WriteTimelines(stdout, res.Timelines); err != nil {
			return err
		}
	}
	if *tlOut != "" {
		if err := mudi.WriteTimelinesFile(*tlOut, res.Timelines); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mudisim: wrote %d timeline series to %s\n", len(res.Timelines), *tlOut)
	}
	if tracePath != "" {
		if err := atomicio.WriteFile(tracePath, func(w io.Writer) error {
			return mudi.WriteChromeTrace(w, res.Spans)
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mudisim: wrote %d spans to %s (open in ui.perfetto.dev)\n", len(res.Spans), tracePath)
	}
	if *jsonFlag {
		return res.WriteJSON(stdout, 64)
	}

	devCount, taskCount := *devicesFlag, *tasksFlag
	title := fmt.Sprintf("mudisim: %s on %d GPUs, %d tasks, load %gx", res.Policy, devCount, taskCount, *loadFlag)
	if workload != nil {
		devCount, taskCount = workload.Header.Devices, len(workload.Tasks)
		title = fmt.Sprintf("mudisim: %s replaying %d-task workload on %d GPUs", res.Policy, taskCount, devCount)
		if *scenarioFlag != "" {
			title = fmt.Sprintf("mudisim: %s on scenario %q (%d tasks, %d GPUs)", res.Policy, *scenarioFlag, taskCount, devCount)
		}
	}
	tab := report.NewTable(title, "metric", "value")
	tab.AddRow("completed / admitted", fmt.Sprintf("%d / %d", res.Completed, res.Admitted))
	tab.AddRow("mean SLO violation", report.Pct(res.MeanSLOViolation()))
	tab.AddRow("mean CT (s)", res.MeanCT())
	tab.AddRow("mean waiting (s)", res.MeanWaiting())
	tab.AddRow("makespan (s)", res.Makespan)
	tab.AddRow("SM utilization", report.Pct(res.SMUtil.TimeAverage(0, res.Makespan)))
	tab.AddRow("memory utilization", report.Pct(res.MemUtil.TimeAverage(0, res.Makespan)))
	if _, smVals := res.SMUtil.Downsample(0, res.Makespan, 48); len(smVals) > 0 {
		tab.AddRow("SM util over time", report.Sparkline(smVals))
	}
	if _, memVals := res.MemUtil.Downsample(0, res.Makespan, 48); len(memVals) > 0 {
		tab.AddRow("mem util over time", report.Sparkline(memVals))
	}
	tab.AddRow("swap events", res.SwapEvents)
	tab.AddRow("reconfigurations", res.Reconfigs)
	tab.AddRow("paused episodes", res.PausedEpisodes)
	if faultCfg != nil {
		tab.AddRow("device failures / recoveries", fmt.Sprintf("%d / %d", res.DeviceFailures, res.DeviceRecoveries))
		tab.AddRow("failovers", res.Failovers)
		tab.AddRow("failed spin-ups", res.FailedSpinUps)
		tab.AddRow("measurement retries", res.MeasureRetries)
	}
	if err := tab.WriteASCII(stdout); err != nil {
		return err
	}

	svcTab := report.NewTable("per-service SLO violation", "service", "violation", "mean P99 (ms)")
	var names []string
	for name := range res.SLOViolation {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		svcTab.AddRow(name, report.Pct(res.SLOViolation[name]), res.MeanP99[name])
	}
	if err := svcTab.WriteASCII(stdout); err != nil {
		return err
	}

	if len(res.ClassViolation) > 0 || len(res.ShedRequests) > 0 {
		clsTab := report.NewTable("per-class SLO (class-aware routing + admission control)",
			"class", "violation", "shed requests")
		for _, c := range mudi.SLOClasses() {
			key := c.String()
			_, hasViol := res.ClassViolation[key]
			_, hasShed := res.ShedRequests[key]
			if !hasViol && !hasShed {
				continue
			}
			clsTab.AddRow(key, report.Pct(res.ClassViolation[key]),
				fmt.Sprintf("%.0f", res.ShedRequests[key]))
		}
		clsTab.AddNote("admission control shed load in %d device-windows", res.ShedWindows)
		if err := clsTab.WriteASCII(stdout); err != nil {
			return err
		}
	}

	if res.SLOReport != nil && res.SLOReport.Total > 0 {
		at := report.NewTable("SLO-violation attribution", "service", "violations", "violated (min)", "causes", "top co-located task")
		for _, svc := range res.SLOReport.Services {
			var causes []string
			for name := range svc.Causes {
				causes = append(causes, name)
			}
			sort.Strings(causes)
			parts := make([]string, 0, len(causes))
			for _, c := range causes {
				parts = append(parts, fmt.Sprintf("%s:%d", c, svc.Causes[c]))
			}
			offender := "-"
			if svc.TopOffender != "" {
				offender = fmt.Sprintf("%s (%d)", svc.TopOffender, svc.TopOffenderHits)
			}
			at.AddRow(svc.Service, svc.Violations, fmt.Sprintf("%.1f", svc.ViolatedMinutes), strings.Join(parts, " "), offender)
		}
		if err := at.WriteASCII(stdout); err != nil {
			return err
		}
	}

	if traceDevIdx > 0 && len(res.Trace) > 0 {
		tr := report.NewTable("device trace (sampled)", "t (s)", "QPS", "batch", "GPU%", "P99", "budget", "swapped MB")
		for i, pt := range res.Trace {
			if i%10 != 0 {
				continue
			}
			tr.AddRow(pt.Time, pt.QPS, pt.Batch, fmt.Sprintf("%.0f%%", pt.Delta*100), pt.LatencyMs, pt.BudgetMs, pt.SwappedMB)
		}
		if err := tr.WriteASCII(stdout); err != nil {
			return err
		}
	}
	return nil
}

// runRepeats fans n independent replicas across the worker pool. Each
// replica's seed derives from (seed, replica index), so the set of
// results is the same regardless of worker count or completion order.
func runRepeats(n, parallel int, seed uint64, policy string, simulate func(uint64) (*mudi.Result, error), stdout io.Writer) error {
	pool := runner.New(parallel)
	cells := make([]runner.Cell[*mudi.Result], n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = runner.Cell[*mudi.Result]{
			Key: fmt.Sprintf("replica-%d", i),
			Run: func() (*mudi.Result, error) { return simulate(xrand.DeriveSeed(seed, uint64(i))) },
		}
	}
	ress, err := runner.Run(pool, cells)
	if err != nil {
		return err
	}
	tab := report.NewTable(fmt.Sprintf("mudisim: %s, %d replicas (seeds derived from %d), %d workers", policy, n, seed, pool.Workers()),
		"replica", "SLO violation", "mean CT (s)", "mean wait (s)", "makespan (s)", "completed")
	var viols, cts, waits, spans []float64
	for i, res := range ress {
		viols = append(viols, res.MeanSLOViolation())
		cts = append(cts, res.MeanCT())
		waits = append(waits, res.MeanWaiting())
		spans = append(spans, res.Makespan)
		tab.AddRow(i, report.Pct(res.MeanSLOViolation()), res.MeanCT(), res.MeanWaiting(), res.Makespan, res.Completed)
	}
	tab.AddNote("mean ± std: violation %s ± %s, CT %.1f ± %.1f s, wait %.1f ± %.1f s, makespan %.1f ± %.1f s",
		report.Pct(stats.Mean(viols)), report.Pct(stats.StdDev(viols)),
		stats.Mean(cts), stats.StdDev(cts),
		stats.Mean(waits), stats.StdDev(waits),
		stats.Mean(spans), stats.StdDev(spans))
	return tab.WriteASCII(stdout)
}

// parseFaults builds a fault-injection config from the -faults flag.
// The empty string disables injection; "default" enables a moderate
// all-class preset; otherwise the value is comma-separated key=value
// pairs.
func parseFaults(spec string) (*mudi.FaultConfig, error) {
	if spec == "" {
		return nil, nil
	}
	if spec == "default" {
		return &mudi.FaultConfig{
			DeviceMTBFSec:     600,
			DeviceMTTRSec:     60,
			MeasureErrRate:    0.05,
			SpinUpFailRate:    0.05,
			PCIeDegradeFactor: 2,
		}, nil
	}
	cfg := &mudi.FaultConfig{}
	for _, pair := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad -faults entry %q, want key=value", pair)
		}
		if key == "retries" {
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("bad -faults %s=%q: %v", key, val, err)
			}
			cfg.MeasureRetries = n
			continue
		}
		if key == "seed" {
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -faults %s=%q: %v", key, val, err)
			}
			cfg.Seed = n
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -faults %s=%q: %v", key, val, err)
		}
		switch key {
		case "mtbf":
			cfg.DeviceMTBFSec = v
		case "mttr":
			cfg.DeviceMTTRSec = v
		case "meas":
			cfg.MeasureErrRate = v
		case "spin":
			cfg.SpinUpFailRate = v
		case "pciex":
			cfg.PCIeDegradeFactor = v
		case "pcie-mtbf":
			cfg.PCIeMTBFSec = v
		case "pcie-mttr":
			cfg.PCIeMTTRSec = v
		default:
			return nil, fmt.Errorf("unknown -faults key %q (known: mtbf, mttr, meas, retries, spin, pciex, pcie-mtbf, pcie-mttr, seed)", key)
		}
	}
	return cfg, nil
}
