// Package mudi is a Go reproduction of "Multiplexing Dynamic Deep
// Learning Workloads with SLO-awareness in GPU Clusters" (EuroSys '25):
// an SLO-aware system that spatially multiplexes DL inference services
// with training tasks on shared GPUs.
//
// The package exposes the paper's full pipeline:
//
//   - a workload catalog (the paper's Tab. 1 inference services and
//     Tab. 3 training tasks, with Fig. 7 network-architecture vectors);
//   - a synthetic GPU testbed (the stand-in for the authors' 12×A100
//     cluster) producing piecewise-linear latency curves with
//     architecture-dependent interference;
//   - the offline profiling → interference-modeling → online-prediction
//     chain (§4);
//   - the Mudi policy — slope-based cluster-wide co-location plus
//     GP-LCB adaptive batching and Eq. 4 resource scaling (§5);
//   - the baseline systems (GSLICE, gpulets, MuxFlow, Random, Optimal);
//   - a cluster co-simulator and an evaluation harness regenerating
//     every table and figure of §7.
//
// Quick start:
//
//	sys, err := mudi.NewSystem(mudi.SystemConfig{Seed: 1})
//	// handle err
//	res, err := sys.Simulate(mudi.SimOptions{Devices: 12, Tasks: 50})
//	// handle err
//	fmt.Println(res.MeanSLOViolation(), res.MeanCT())
package mudi

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"

	"mudi/internal/baselines"
	"mudi/internal/cluster"
	"mudi/internal/core"
	"mudi/internal/exp"
	"mudi/internal/extract"
	"mudi/internal/faults"
	"mudi/internal/model"
	"mudi/internal/obs"
	"mudi/internal/perf"
	"mudi/internal/report"
	"mudi/internal/sched"
	"mudi/internal/span"
	"mudi/internal/timeline"
	"mudi/internal/trace"
)

// Re-exported domain types. The implementation lives under internal/;
// these aliases are the supported public surface.
type (
	// InferenceService describes one latency-critical service (Tab. 1).
	InferenceService = model.InferenceService
	// TrainingTask describes one batch training workload (Tab. 3).
	TrainingTask = model.TrainingTask
	// Arch is a network-architecture layer-count vector (Fig. 7).
	Arch = model.Arch
	// TaskArrival is one training-task submission.
	TaskArrival = trace.TaskArrival
	// Result carries one simulation run's metrics.
	Result = cluster.Result
	// Policy is a cluster-wide multiplexing policy (Mudi or baseline).
	Policy = core.Policy
	// DeviceView is a policy's snapshot of one device.
	DeviceView = core.DeviceView
	// Decision is a device configuration choice.
	Decision = core.Decision
	// Table is a rendered experiment table (ASCII/CSV).
	Table = report.Table
	// Burst is one QPS burst episode.
	Burst = trace.Burst
	// LearnerStats is a snapshot of Mudi's online learner.
	LearnerStats = core.LearnerStats
)

// Services returns the Tab. 1 inference catalog.
func Services() []InferenceService { return model.Services() }

// Tasks returns the Tab. 3 training catalog.
func Tasks() []TrainingTask { return model.Tasks() }

// BatchSizes returns the Tuner's batching search space.
func BatchSizes() []int { return model.BatchSizes() }

// SystemConfig parameterizes NewSystem.
type SystemConfig struct {
	// Seed drives every random stream (testbed, profiling, traces).
	Seed uint64
	// MaxTrainPerGPU caps co-located training tasks per device
	// (1 = Mudi, up to 3 = Mudi-more). Default 1. It reaches only Mudi,
	// Random and Optimal: GSLICE, gpulets and MuxFlow always place one
	// task per GPU.
	MaxTrainPerGPU int
	// ExtraServices are appended to the catalog and registered with the
	// testbed (see examples/custommodel).
	ExtraServices []InferenceService
}

// System bundles the synthetic testbed with a fully trained Mudi
// policy: the state left after the paper's offline phase.
type System struct {
	cfg    SystemConfig
	oracle *perf.Oracle
	policy *core.Mudi
}

// NewSystem builds the testbed and runs the offline pipeline
// (profiling every service against the observed training tasks,
// fitting the piecewise curves, training the interference predictor).
// An ExtraServices entry without a finite, positive BaseQPS and SLOms
// is rejected as *OptionError with Field "ExtraServices" and its index
// as Value.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.MaxTrainPerGPU <= 0 {
		cfg.MaxTrainPerGPU = 1
	}
	oracle := perf.NewOracle(cfg.Seed)
	for i, svc := range cfg.ExtraServices {
		if !(svc.BaseQPS > 0 && finiteNonNeg(svc.BaseQPS) && svc.SLOms > 0 && finiteNonNeg(svc.SLOms)) {
			return nil, &OptionError{Field: "ExtraServices", Value: i, Reason: fmt.Sprintf("service %q: BaseQPS %v and SLOms %v must be finite and > 0", svc.Name, svc.BaseQPS, svc.SLOms)}
		}
		oracle.RegisterService(svc)
	}
	policy, err := core.Build(oracle, cfg.Seed, core.MudiConfig{MaxTrainPerGPU: cfg.MaxTrainPerGPU})
	if err != nil {
		return nil, fmt.Errorf("mudi: offline pipeline: %w", err)
	}
	return &System{cfg: cfg, oracle: oracle, policy: policy}, nil
}

// Policy returns the trained Mudi policy.
func (s *System) Policy() Policy { return s.policy }

// Learner returns the Mudi policy's online-learning record: the
// Interference Predictor's prequential (test-then-train) error, its
// refit and model-selection counts, and the co-locations learned and
// dropped. It accumulates over every Simulate that drives the system's
// Mudi policy.
func (s *System) Learner() LearnerStats { return s.policy.LearnerStats() }

// BaselinePolicy instantiates one of the paper's comparison systems by
// its typed ID (BaselineGSLICE, BaselineGpulets, BaselineMuxFlow,
// BaselineRandom, or BaselineOptimal). Unknown IDs unwrap to
// *OptionError with Field "Baseline" (the shared checkID shape).
func (s *System) BaselinePolicy(id BaselineID) (Policy, error) {
	known := make([]string, 0, len(Baselines()))
	for _, b := range Baselines() {
		known = append(known, string(b))
	}
	oe := checkID("Baseline", string(id), known)
	if oe == nil && id == "" {
		// There is no default baseline — an empty ID is as unknown as a
		// bogus one.
		oe = &OptionError{
			Field: "Baseline", Value: id,
			Reason: fmt.Sprintf("unknown Baseline (known: %v)", known),
		}
	}
	if oe != nil {
		return nil, oe
	}
	return baselines.New(string(id), s.oracle, s.cfg.Seed, s.cfg.MaxTrainPerGPU)
}

// SimOptions parameterizes one simulation run.
type SimOptions struct {
	// Policy to drive; nil selects the system's Mudi policy.
	Policy Policy
	// Devices is the GPU count; the service catalog deploys round-robin.
	Devices int
	// Tasks is the number of training arrivals to generate (ignored if
	// Arrivals is set).
	Tasks int
	// Arrivals replays an explicit submission trace. Every At must be
	// finite and >= 0.
	Arrivals []TaskArrival
	// MeanGapSec is the arrival-trace intensity (default 10 s).
	MeanGapSec float64
	// IterScale shrinks catalog task lengths (default 0.002 keeps runs
	// in simulated minutes).
	IterScale float64
	// LoadFactor multiplies every service's QPS (Fig. 15 sweeps).
	LoadFactor float64
	// Bursts overlays QPS burst episodes (Fig. 16).
	Bursts []Burst
	// Queue selects the scheduling order of the training queue;
	// zero value selects QueueFCFS.
	Queue QueuePolicyID
	// MIGSlices > 1 splits every GPU into that many MIG instances
	// (1–7), each an independent smaller device (§3).
	MIGSlices int
	// Observer, when non-nil, receives every simulation event as it is
	// emitted (see the Event taxonomy in observe.go). Observation is
	// passive: the observed run's Result.Summary() is identical to an
	// unobserved run's.
	Observer Observer
	// Observe, when true, collects the event log and metrics snapshot
	// into Result.Events / Result.Metrics even without an Observer.
	// Setting Observer implies Observe. The event log keeps the first
	// 65,536 events; Result.EventsDropped counts the rest (the Observer
	// sees them all).
	Observe bool
	// Trace, when true, records causal simulated-time spans for the
	// run's control-plane operations (retunes with bo_iter children,
	// rescales with shadow_spinup/shadow_swap children, migrations,
	// memory swaps, fault outages) and attributes every SLO violation
	// to its dominant cause. The roll-ups land in Result.Spans (the
	// first 131,072 spans; Result.SpansDropped counts the rest) and
	// Result.SLOReport. Tracing is passive: Result.Summary() is
	// identical with and without it. Spans and events are two views of
	// one control-plane record stream.
	Trace bool
	// Telemetry, when non-nil, supplies the run's live instruments —
	// metrics sink, control-plane record log with its violation
	// attributor, timeline store —
	// so they can be served over HTTP (Telemetry.Handler) while the
	// simulation is in flight. Implies Observe, Trace, and Timelines.
	Telemetry *Telemetry
	// Timelines, when true, records multi-resolution time-series for the
	// run — per-service, per-class, fleet, and engine self-profiling
	// signals (see timelines.go) — into Result.Timelines. Recording is
	// passive: Result.Summary() is identical with and without it.
	Timelines bool
	// Faults, when non-nil with at least one fault class enabled,
	// deterministically injects failures — device outages with
	// recovery, transient measurement errors, shadow spin-up failures,
	// degraded PCIe bandwidth — seeded from the system seed. Injected
	// failures surface as typed events (EventDeviceFailed,
	// EventDeviceRecovered, EventMeasureRetry, EventFailover) and as
	// fault counters on the Result. Nil, or a config with every fault
	// class off, leaves the simulation byte-identical to an unfaulted
	// run.
	Faults *FaultConfig
	// Workload, when non-nil, replays a trace-v2 workload (recorded by
	// RecordWorkload, generated by BuildScenario, or read from a file
	// with ReadWorkload): every device's QPS follows the trace's
	// recorded streams and the recorded task submissions are re-issued
	// verbatim. Devices and MIGSlices default to the trace header's
	// values and must match them when set. Workload conflicts with the
	// synthesis knobs — Arrivals, Tasks, MeanGapSec, IterScale,
	// LoadFactor, Bursts — because the trace already embeds their
	// effect; setting any of them alongside Workload is an
	// *OptionError. A replay under the recording run's system seed,
	// policy, and fault config reproduces Result.Summary() byte for
	// byte; under a different policy it answers "what would this
	// workload have seen".
	Workload *WorkloadTrace
	// RecordWorkload, when true, captures the workload the run actually
	// consumes — every effective QPS step and task submission — into
	// Result.Workload as a replayable trace-v2 document. Recording is
	// passive: Result.Summary() is identical with and without it.
	RecordWorkload bool
	// ClassMix assigns SLO classes to the service catalog in deploy
	// order, cycling when shorter than the catalog (including any
	// ExtraServices). A non-empty mix makes the run class-aware:
	// placement steers training off critical devices, batch formation
	// preempts by class, and admission control sheds
	// sheddable/background burst excess. Per-class roll-ups land in
	// Result.ClassViolation / Result.ShedRequests (and, with Trace set,
	// Result.SLOReport.Classes). Empty keeps the classless legacy path,
	// byte-identical to a build without classes.
	ClassMix []SLOClass
	// ServiceClasses overrides the class of individual services by
	// catalog name, applied after ClassMix. Unknown service names are an
	// *OptionError.
	ServiceClasses map[string]SLOClass
	// Shards is the event engine's lane count. 0 (the default) or a
	// negative value picks min(GOMAXPROCS, devices/64) lanes, at least
	// one. A positive value pins that many lanes (clamped to the device
	// count). The summary is byte-identical across every lane count and
	// worker count.
	Shards int
	// AdmitFactor scales the per-service burst admission cap: windows
	// whose demand exceeds AdmitFactor × nominal QPS shed the excess
	// (sheddable/background classes only). 0 selects the default, the
	// burst headroom the attribution layer assumes (span.BurstFactor,
	// 1.5). Must otherwise be finite and positive.
	AdmitFactor float64
}

// FaultConfig parameterizes deterministic fault injection; see
// internal/faults for field semantics. The zero value disables every
// fault class.
type FaultConfig = faults.Config

// Simulate runs one cluster simulation to completion. It is
// SimulateContext with a background context.
func (s *System) Simulate(opts SimOptions) (*Result, error) {
	return s.SimulateContext(context.Background(), opts)
}

// SimulateContext runs one cluster simulation under ctx: the run stops
// at the next control window once ctx is done and returns ctx.Err().
// Options are validated first; configuration errors unwrap to
// *OptionError.
func (s *System) SimulateContext(ctx context.Context, opts SimOptions) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Workload != nil {
		// Replay: the trace header fixes the cluster shape (Validate
		// already rejected conflicting explicit values).
		opts.Devices = opts.Workload.Header.Devices
		if opts.Workload.Header.MIGSlices > 1 {
			opts.MIGSlices = opts.Workload.Header.MIGSlices
		}
	}
	if opts.Devices <= 0 {
		opts.Devices = 12
	}
	policy := opts.Policy
	if policy == nil {
		policy = s.policy
	}
	arrivals := opts.Arrivals
	if opts.Workload != nil {
		var err error
		arrivals, err = opts.Workload.Arrivals()
		if err != nil {
			return nil, err
		}
	} else if arrivals == nil {
		if opts.Tasks <= 0 {
			opts.Tasks = 24
		}
		if opts.MeanGapSec <= 0 {
			opts.MeanGapSec = 10
		}
		if opts.IterScale <= 0 {
			opts.IterScale = 0.002
		}
		var err error
		arrivals, err = trace.PhillyTrace(trace.PhillyConfig{
			Count:      opts.Tasks,
			MeanGapSec: opts.MeanGapSec,
			ScaleIters: opts.IterScale,
			Seed:       s.cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
	}
	qid, oe := opts.queueID()
	if oe != nil {
		return nil, oe
	}
	queue, err := sched.PolicyByName(string(qid))
	if err != nil {
		return nil, err
	}
	services := append(model.Services(), s.cfg.ExtraServices...)
	if len(opts.ClassMix) > 0 {
		for i := range services {
			services[i].Class = opts.ClassMix[i%len(opts.ClassMix)]
		}
	}
	if len(opts.ServiceClasses) > 0 {
		byName := make(map[string]int, len(services))
		for i, svc := range services {
			byName[svc.Name] = i
		}
		// Sorted iteration so the first-unknown-name error is stable.
		names := make([]string, 0, len(opts.ServiceClasses))
		for name := range opts.ServiceClasses {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			i, ok := byName[name]
			if !ok {
				return nil, &OptionError{
					Field: "ServiceClasses", Value: name,
					Reason: "unknown service (known: catalog services plus ExtraServices)",
				}
			}
			services[i].Class = opts.ServiceClasses[name]
		}
	}
	var rec *trace.Recorder
	if opts.RecordWorkload {
		mig := opts.MIGSlices
		if mig <= 0 {
			mig = 1
		}
		rec = trace.NewRecorder(s.cfg.Seed, opts.Devices, mig)
	}
	// A Telemetry's instruments win, so the live HTTP surface reads the
	// same sink, log and timeline store the run writes.
	var (
		sink  *obs.Sink
		log   *span.Log
		store *timeline.Store
	)
	if t := opts.Telemetry; t != nil {
		sink, log, store = t.sink, t.log, t.tl
		log.Observer = opts.Observer
	} else {
		sink, log, store = cluster.Observers(opts.Observe || opts.Observer != nil, opts.Trace, opts.Timelines, opts.Observer)
	}
	sim, err := cluster.New(cluster.Options{
		Policy:      policy,
		Oracle:      s.oracle,
		Seed:        s.cfg.Seed,
		Devices:     opts.Devices,
		Services:    services,
		Arrivals:    arrivals,
		LoadFactor:  opts.LoadFactor,
		Bursts:      opts.Bursts,
		QueuePolicy: queue,
		MIGSlices:   opts.MIGSlices,
		Obs:         sink,
		Faults:      opts.Faults,
		Log:         log,
		Replay:      opts.Workload,
		Record:      rec,
		Timeline:    store,
		Shards:      opts.Shards,
		AdmitFactor: opts.AdmitFactor,
		Ctx:         ctx,
	})
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// MaxThroughput finds the highest QPS the system's policy can sustain
// for one service while a training task keeps ≥10% of the GPU (Fig. 14).
func (s *System) MaxThroughput(service, task string) (float64, error) {
	return cluster.MaxThroughput(s.policy, s.oracle, service, task, 0.02, s.cfg.Seed)
}

// PhillyArrivals generates a Microsoft-Philly-like training submission
// trace from the catalog mix.
func PhillyArrivals(count int, meanGapSec, iterScale float64, seed uint64) ([]TaskArrival, error) {
	return trace.PhillyTrace(trace.PhillyConfig{
		Count: count, MeanGapSec: meanGapSec, ScaleIters: iterScale, Seed: seed,
	})
}

// ---------------------------------------------------------------------------
// Experiment harness

// ExperimentScale selects experiment sizes for StreamExperiments.
type ExperimentScale = exp.Scale

// Experiment scales.
const (
	ScaleSmall     = exp.ScaleSmall
	ScalePhysical  = exp.ScalePhysical
	ScaleSimulated = exp.ScaleSimulated
)

// ExperimentNames lists the table/figure runners in presentation order.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// experiment is one table/figure runner: run builds it from the
// configuration, or onSuite from the trained end-to-end suite the
// figures share.
type experiment struct {
	name    string
	run     func(exp.Config) (*report.Table, error)
	onSuite func(*exp.Suite) (*report.Table, error)
}

// experiments is the runner registry, in presentation order.
var experiments = []experiment{
	{name: "background", run: exp.Background},
	{name: "tab2", run: exp.Table2},
	{name: "fig3", run: exp.Fig3},
	{name: "fig4", run: exp.Fig4},
	{name: "fig5", run: exp.Fig5},
	{name: "fig8", onSuite: exp.Fig8},
	{name: "fig9", onSuite: exp.Fig9},
	{name: "fig10", onSuite: exp.Fig10},
	{name: "fig11", run: exp.Fig11},
	{name: "fig12", run: exp.Fig12},
	{name: "fig13", onSuite: exp.Fig13},
	{name: "fig14", onSuite: exp.Fig14},
	{name: "fig15", onSuite: exp.Fig15},
	{name: "fig16", run: exp.Fig16},
	{name: "tab4", run: exp.Tab4},
	{name: "fig17", run: exp.Fig17},
	{name: "fig18", onSuite: exp.Fig18},
	{name: "optimality", run: exp.Optimality},
	{name: "ablation-tuner", run: exp.AblationTuner},
	{name: "queues", run: exp.QueuePolicies},
	{name: "fidelity", run: exp.Fidelity},
	{name: "scenarios", run: exp.Scenarios},
	{name: "classes", run: exp.Classes},
}

// ExperimentConfig parameterizes the experiment harness.
type ExperimentConfig struct {
	// Seed drives every random stream.
	Seed uint64
	// Scale selects experiment sizes (ScaleSmall/Physical/Simulated).
	Scale ExperimentScale
	// Parallel bounds how many independent experiment cells run
	// concurrently; 0 selects GOMAXPROCS. Results are bit-identical for
	// every value — cells own their policy instances and RNG streams,
	// and merge in cell-key order.
	Parallel int
	// Ctx, when non-nil, cancels in-flight experiment runs: no new
	// cells start after it is done and the run reports Ctx.Err().
	Ctx context.Context
	// Observer, when non-nil, receives every simulation event from
	// every experiment cell. Each cell observes through its own private
	// sink; only this function is shared, so it must be safe for
	// concurrent calls when Parallel != 1.
	Observer Observer
}

// StreamExperiments regenerates the named paper tables and figures
// (see ExperimentNames; nil runs everything) in order, handing each
// table to emit as it completes, so long sweeps surface results early.
// The end-to-end figures share one trained suite. An emit error stops
// the run and is returned.
func StreamExperiments(names []string, ecfg ExperimentConfig, emit func(*Table) error) error {
	if names == nil {
		names = ExperimentNames()
	}
	cfg := exp.Config{
		Seed:     ecfg.Seed,
		Scale:    ecfg.Scale,
		Parallel: ecfg.Parallel,
		Ctx:      ecfg.Ctx,
		Observer: ecfg.Observer,
	}
	var suite *exp.Suite
	for _, name := range names {
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == name })
		if i < 0 {
			return fmt.Errorf("mudi: unknown experiment %q (known: %v)", name, ExperimentNames())
		}
		e := experiments[i]
		var tab *Table
		var err error
		if e.run != nil {
			tab, err = e.run(cfg)
		} else {
			if suite == nil {
				suite, err = exp.NewSuite(cfg)
			}
			if err == nil {
				tab, err = e.onSuite(suite)
			}
		}
		if err != nil {
			return fmt.Errorf("mudi: experiment %s: %w", name, err)
		}
		if err := emit(tab); err != nil {
			return err
		}
	}
	return nil
}

// ArchFromGraphFile extracts a network-architecture vector from a
// static-graph model file (ONNX-style JSON node list) — the §4.2 path
// for TensorFlow/ONNX models. It returns the vector and the model name
// recorded in the file.
func ArchFromGraphFile(r io.Reader) (Arch, string, error) {
	return extract.FromGraphFile(r)
}

// ArchTracer records module invocations during one traced mini-batch —
// the §4.2 path for dynamic-graph (PyTorch-style) models.
type ArchTracer = extract.Tracer

// NewArchTracer returns an empty tracer; call OnModule for every module
// invocation of one mini-batch, then Arch for the vector.
func NewArchTracer() *ArchTracer { return extract.NewTracer() }

// SortedServiceNames returns the catalog service names sorted — a
// small convenience for stable iteration in user code.
func SortedServiceNames() []string {
	var names []string
	for _, svc := range model.Services() {
		names = append(names, svc.Name)
	}
	sort.Strings(names)
	return names
}
