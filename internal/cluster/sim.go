package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"mudi/internal/core"
	"mudi/internal/faults"
	"mudi/internal/gpu"
	"mudi/internal/memmgr"
	"mudi/internal/model"
	"mudi/internal/obs"
	"mudi/internal/perf"
	"mudi/internal/sched"
	"mudi/internal/shard"
	"mudi/internal/span"
	"mudi/internal/stats"
	"mudi/internal/timeline"
	"mudi/internal/trace"
	"mudi/internal/tuner"
	"mudi/internal/xrand"
)

// Options configures one simulation run.
type Options struct {
	Policy  core.Policy
	Oracle  *perf.Oracle
	Seed    uint64
	Devices int // total GPUs; services deploy round-robin

	Services []model.InferenceService // defaults to the Tab. 1 catalog
	Arrivals []trace.TaskArrival

	LoadFactor float64 // QPS multiplier (Fig. 15); default 1
	// MaxHorizonSec caps the simulation even if tasks remain; default
	// 10× the last arrival (safety against starvation bugs).
	MaxHorizonSec float64

	QueuePolicy sched.Policy // default FCFS (§6)

	// Shards is the event engine's lane count: devices are partitioned
	// into that many contiguous lanes (clamped to the device count),
	// which step their devices' windows in parallel at each window end.
	// Zero or negative picks the default, min(GOMAXPROCS, devices/64).
	// Every lane count produces a byte-identical Result.Summary().
	Shards int
	// AdmitFactor scales the admission-control cap for shed-eligible
	// classes: offered load above AdmitFactor × BaseQPS × LoadFactor is
	// dropped at the door. Defaults to span.BurstFactor (the burst
	// attribution threshold, historically the hard-coded coupling);
	// must be finite and positive.
	AdmitFactor float64

	// Bursts overlays QPS burst episodes on every service (Fig. 16).
	Bursts []trace.Burst
	// MIGSlices > 1 splits every physical GPU into that many MIG
	// instances, each a fully independent device with 1/N of the
	// memory (§3: "Mudi is fully compatible with MIG, treating each
	// MIG instance as a distinct, smaller GPU"). Valid values 1–7.
	MIGSlices int
	// Obs, when non-nil, receives the run's metrics; the simulation-end
	// snapshot lands in Result.Metrics. It requires Log: control-action
	// counters are counted from the records Log receives, so New
	// rejects Obs without Log. Observation is passive — it never
	// perturbs the simulated metrics (Result.Summary() is identical
	// with and without a sink).
	Obs *obs.Sink
	// Faults, when non-nil and enabled, injects deterministic failures
	// (device outages, transient measurement errors, shadow spin-up
	// failures, degraded PCIe) seeded from Seed. Nil or a disabled
	// config leaves the simulation bit-for-bit identical to a build
	// without the injector.
	Faults *faults.Config
	// Log, when non-nil, records one span.Record per control action
	// (retunes with their BO probes, rescales, migrations, memory
	// swaps, outages, failovers, SLO violations, load sheds); its event
	// and span views land in Result.Events and Result.Spans, and its
	// attributor's report in Result.SLOReport. Passive and
	// deterministic, same contract as Obs.
	Log *span.Log
	// Replay, when non-nil, drives every device's QPS from the trace's
	// recorded streams instead of synthesizing a fluctuating walk. The
	// header's Devices/MIGSlices must match this Options, and the
	// streams must follow the canonical device order (gpu0000,
	// gpu0000/mig1, ...). LoadFactor and Bursts are ignored in replay —
	// the recorded values already include them. Arrivals still come
	// from Options.Arrivals; pass Replay.Arrivals() to re-submit the
	// recorded task sequence.
	Replay *trace.Trace
	// Record, when non-nil, captures the workload this run actually
	// consumes — every QPS query and task submission — for later
	// replay. Recording is passive (wrapped traces return exactly what
	// the originals return); the assembled trace lands in
	// Result.Workload at finalize.
	Record *trace.Recorder
	// Timeline, when non-nil, receives multi-resolution time-series —
	// per-service QPS/admitted/shed/P99/violation/batch/GPU share/
	// swapped MB/paused devices, per-class roll-ups,
	// fleet utilization and pressure, and engine self-profiling — one
	// sample per control window. Passive and deterministic like Obs and
	// Trace: series appends happen in the barrier phase in global
	// device order. The end-of-run snapshot lands in Result.Timelines.
	Timeline *timeline.Store
	// Ctx, when non-nil, cancels the simulation between control
	// windows; Run then returns ctx.Err(). Nil means run to
	// completion.
	Ctx context.Context
}

func (o Options) defaults() (Options, error) {
	if o.Policy == nil {
		return o, errors.New("cluster: nil policy")
	}
	if o.Oracle == nil {
		return o, errors.New("cluster: nil oracle")
	}
	if o.Devices <= 0 {
		return o, fmt.Errorf("cluster: %d devices", o.Devices)
	}
	if o.Obs != nil && o.Log == nil {
		return o, errors.New("cluster: a metrics sink (Obs) needs a record log (Log)")
	}
	if len(o.Services) == 0 {
		o.Services = model.Services()
	}
	if o.LoadFactor <= 0 {
		o.LoadFactor = 1
	}
	if o.QueuePolicy == nil {
		o.QueuePolicy = sched.FCFS{}
	}
	if o.MIGSlices == 0 {
		o.MIGSlices = 1
	}
	if o.MIGSlices < 1 || o.MIGSlices > 7 {
		return o, fmt.Errorf("cluster: MIG slice count %d outside 1..7", o.MIGSlices)
	}
	if o.Shards <= 0 {
		o.Shards = shard.Default(o.Devices * o.MIGSlices)
	}
	if o.AdmitFactor == 0 {
		o.AdmitFactor = span.BurstFactor
	}
	if math.IsNaN(o.AdmitFactor) || math.IsInf(o.AdmitFactor, 0) || o.AdmitFactor <= 0 {
		return o, fmt.Errorf("cluster: admit factor %v must be finite and positive", o.AdmitFactor)
	}
	for i, a := range o.Arrivals {
		if math.IsNaN(a.At) || math.IsInf(a.At, 0) || a.At < 0 {
			return o, fmt.Errorf("cluster: arrival %d at %v must be finite and >= 0", i, a.At)
		}
	}
	if o.MaxHorizonSec <= 0 {
		last := 0.0
		for _, a := range o.Arrivals {
			if a.At > last {
				last = a.At
			}
		}
		o.MaxHorizonSec = last*10 + 14400
	}
	return o, nil
}

// Result aggregates one run's metrics.
type Result struct {
	Policy string

	// Per-service SLO accounting (Fig. 8): violated windows / windows.
	SLOViolation map[string]float64
	// Mean per-service P99 over the run.
	MeanP99 map[string]float64

	// Training efficiency (Fig. 9), seconds.
	CTs      []float64
	WaitingT []float64
	Makespan float64
	// Completed vs admitted (unfinished tasks at the horizon are not in
	// CTs; a healthy run completes everything).
	Completed int
	Admitted  int

	// Utilization time series (Fig. 10).
	SMUtil  *stats.TimeSeries
	MemUtil *stats.TimeSeries

	// Memory manager activity (Tab. 4 / Fig. 16).
	SwapEvents    int
	SwapFraction  map[string]float64 // per service on its device(s)
	AvgTransferMs float64

	// Overheads (Fig. 18b): wall-clock of placement decisions.
	PlacementOverheadMs []float64
	Reconfigs           int
	PausedEpisodes      int

	// Fault-injection accounting. All zero (and absent from Summary())
	// unless Options.Faults enables the injector.
	DeviceFailures   int // injected device outages
	DeviceRecoveries int // outages that healed within the horizon
	Failovers        int // service failovers (device death or lost shadow)
	FailedSpinUps    int // shadow instances that failed to spin up
	MeasureRetries   int // transient measurement errors retried

	// ConfigureErrors counts tuning episodes whose Policy.Configure
	// failed (e.g. a zero-QPS retune the tuner rejects) or returned a
	// feasible Δ above the whole device. The device keeps its previous
	// configuration. Zero, and absent from Summary(), in a
	// run where every episode succeeds.
	ConfigureErrors int

	// SLO-class accounting. All empty/zero (and absent from Summary())
	// unless some service declares a class — a classless run is
	// byte-identical to a build without classes.
	//
	// ShedRequests counts the requests admission control dropped, per
	// class wire name; ShedWindows counts device-windows that shed;
	// ClassViolation is SLOViolation re-aggregated per class (violated
	// windows / windows over every device in the class).
	ShedRequests   map[string]float64
	ShedWindows    int
	ClassViolation map[string]float64

	// Observability roll-up: the metrics snapshot of Options.Obs, and
	// Options.Log's event view, span view and SLO report with what each
	// cap left out. Derived views, deliberately excluded from Summary()
	// — enabling observation must not perturb the determinism contract.
	Metrics           *obs.Metrics
	Events            []obs.Event
	Spans             []span.Span
	SLOReport         *span.SLOReport
	EventsDropped     int // events past the event view's cap
	SpansDropped      int // spans past the span view's cap
	ViolationsDropped int // violations past SLOReport.Violations' cap

	// Workload is the recorded trace-v2 workload, populated only when
	// Options.Record is set. A derived view like Events/Spans, excluded
	// from Summary() — recording must not perturb the determinism
	// contract.
	Workload *trace.Trace

	// Timelines is the end-of-run snapshot of every timeline series,
	// populated only when Options.Timeline is set. A derived view
	// excluded from Summary(). The non-Profile() kinds are byte-
	// identical (timeline.Fingerprint) across lane and worker counts;
	// the engine self-profiling kinds are wall-clock and inherently
	// nondeterministic.
	Timelines []timeline.Timeline
}

// MeanSLOViolation averages the per-service violation rates. Keys are
// summed in sorted order so the result is bit-identical across runs
// (map iteration order would otherwise perturb the float sum).
func (r *Result) MeanSLOViolation() float64 {
	if len(r.SLOViolation) == 0 {
		return 0
	}
	names := make([]string, 0, len(r.SLOViolation))
	for name := range r.SLOViolation {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float64
	for _, name := range names {
		sum += r.SLOViolation[name]
	}
	return sum / float64(len(r.SLOViolation))
}

// MeanCT returns the mean completion time of finished tasks.
func (r *Result) MeanCT() float64 { return stats.Mean(r.CTs) }

// MeanWaiting returns the mean queueing delay.
func (r *Result) MeanWaiting() float64 { return stats.Mean(r.WaitingT) }

// Sim is one configured simulation.
type Sim struct {
	opts Options
	// sh is the window clock: lanes of devices stepped once per window
	// plus the control-plane events (see sharded.go).
	sh      *shard.Engine
	devices []*deviceState
	// meas maps a device ID to its measurer, which also carries the
	// device: placement resolves policy-chosen IDs through it.
	meas  map[string]*deviceMeasurer
	queue *sched.Queue
	jobs  map[int]*queueJob

	// inj is the deterministic fault injector; nil when Options.Faults
	// is unset or disabled, in which case every fault path collapses to
	// a single pointer check.
	inj *faults.Injector

	// obsv caches the cluster-level instruments (nil when observation
	// is disabled); per-device instruments live on deviceState. It is
	// set only with rec, which carries its control-action counts.
	obsv *simObs

	// rec is Options.Log and attr its attributor (nil when off); every
	// emission site guards on rec with one branch.
	rec  *span.Log
	attr *span.Attributor

	// tl is the timeline recording state (nil when Options.Timeline is
	// unset); every recording site guards on it with one branch.
	tl *tlState

	// classAware is set when any service declares an SLO class; it
	// gates every class code path so a classless run takes the exact
	// pre-class branches.
	classAware bool
	// classFW scores devices for class-steered placement (budget veto +
	// criticality preference); nil when classAware is false.
	classFW *sched.Framework

	// measMap is the policy-facing view of meas, built once at
	// construction (meas never changes afterward) so trySchedule does
	// not rebuild it per placement attempt.
	measMap map[string]core.Measurer
	// viewsBuf backs trySchedule's per-attempt device-view slice.
	// Policies only read the slice during SelectDevice (values they
	// retain are copied out), so the storage is reusable.
	viewsBuf []core.DeviceView
	// tierBuf/scoreBuf back the class-steered selection's per-tier view
	// slice and per-candidate score slice (class-aware runs only).
	tierBuf  []core.DeviceView
	scoreBuf []float64

	res *Result
}

// simObs is the cluster-level instrument cache.
type simObs struct {
	smUtil     *obs.Gauge
	memUtil    *obs.Gauge
	queueDepth *obs.Gauge
	windows    *obs.Counter
	// acts lists the cluster counters each control act bumps (see
	// count).
	acts [span.NumActs][]*obs.Counter
	// classes holds the class-labelled roll-up counters
	// (cluster_class_*_total{class="..."}), one set per SLO class the
	// catalog declares. Created only in class-aware runs; devices cache
	// their class's set on devObs so the hot path never touches the map.
	classes map[model.SLOClass]*classCounters
}

// classCounters is one SLO class's labelled Prometheus counter set.
type classCounters struct {
	windows    *obs.Counter
	violations *obs.Counter
	shed       *obs.Counter // shed requests (not shed events)
}

func newClassCounters(sink *obs.Sink, class string) *classCounters {
	return &classCounters{
		windows:    sink.Counter(obs.ClassLabeled("cluster_class_windows_total", class)),
		violations: sink.Counter(obs.ClassLabeled("cluster_class_slo_violations_total", class)),
		shed:       sink.Counter(obs.ClassLabeled("cluster_class_shed_requests_total", class)),
	}
}

// newSimObs resolves the cluster-level instruments. The fault acts'
// counters exist only when the injector is on, and the shed and class
// counters only in class-aware runs, so an unfaulted or classless
// run's snapshot is byte-identical to a build without those features.
func newSimObs(sink *obs.Sink, faulted, classAware bool, services []model.InferenceService) *simObs {
	o := &simObs{
		smUtil:     sink.Gauge("cluster_sm_util"),
		memUtil:    sink.Gauge("cluster_mem_util"),
		queueDepth: sink.Gauge("cluster_queue_depth"),
		windows:    sink.Counter("cluster_windows_total"),
	}
	counter := func(name string, acts ...span.Act) {
		c := sink.Counter(name)
		for _, a := range acts {
			o.acts[a] = append(o.acts[a], c)
		}
	}
	counter("cluster_placements_total", span.ActPlaced)
	counter("cluster_migrations_total", span.ActMigrated)
	counter("cluster_retunes_total", span.ActRetune)
	counter("cluster_batch_changes_total", span.ActBatch)
	counter("cluster_gpu_rescales_total", span.ActRescale)
	counter("cluster_shadow_swaps_total", span.ActRescale)
	counter("cluster_slo_violations_total", span.ActSLOViolation)
	if faulted {
		counter("cluster_failovers_total", span.ActSpinUpFailed, span.ActFailover)
		counter("cluster_device_failures_total", span.ActOutage)
		counter("cluster_device_recoveries_total", span.ActRecovered)
		counter("cluster_measure_retries_total", span.ActMeasureRetry)
	}
	if classAware {
		counter("cluster_load_sheds_total", span.ActLoadShed)
		o.classes = make(map[model.SLOClass]*classCounters)
		for _, c := range model.SLOClasses() {
			for _, svc := range services {
				if svc.Class == c {
					o.classes[c] = newClassCounters(sink, c.String())
					break
				}
			}
		}
	}
	return o
}

// count bumps the instruments control record r stands for on device
// d: the one place a control action reaches the metrics.
func (o *simObs) count(d *deviceState, r *span.Record) {
	if o == nil {
		return
	}
	for _, c := range o.acts[r.Act] {
		c.Inc()
	}
	dv := d.obsv
	switch r.Act {
	case span.ActBatch:
		dv.batch.Set(r.Value)
	case span.ActRescale:
		dv.delta.Set(r.Value)
	case span.ActSLOViolation:
		dv.violations.Inc()
		if dv.cls != nil {
			dv.cls.violations.Inc()
		}
	case span.ActLoadShed:
		if dv.cls != nil {
			dv.cls.shed.Add(r.Value * span.WindowSec)
		}
	case span.ActMemSwap:
		if r.Cause == "to-host" {
			dv.swapOutMB.Add(r.Value)
		} else {
			dv.swapInMB.Add(r.Value)
		}
	}
}

// New builds a simulation.
func New(opts Options) (*Sim, error) {
	opts, err := opts.defaults()
	if err != nil {
		return nil, err
	}
	// rng is only forked: every random draw comes from a per-device
	// stream keyed by device ID.
	rng := xrand.New(opts.Seed).ForkString("cluster")
	s := &Sim{
		opts:  opts,
		meas:  make(map[string]*deviceMeasurer),
		queue: sched.NewQueue(opts.QueuePolicy),
		jobs:  make(map[int]*queueJob),
		res: &Result{
			Policy:       opts.Policy.Name(),
			SLOViolation: make(map[string]float64),
			MeanP99:      make(map[string]float64),
			SwapFraction: make(map[string]float64),
			SMUtil:       stats.NewTimeSeries(),
			MemUtil:      stats.NewTimeSeries(),
		},
	}
	for _, svc := range opts.Services {
		if !svc.Class.Valid() {
			return nil, fmt.Errorf("cluster: service %q has invalid SLO class %d", svc.Name, uint8(svc.Class))
		}
		if svc.Class != model.ClassUnset {
			s.classAware = true
		}
	}
	if s.classAware {
		s.classFW = sched.NewFramework(sched.ClassBudgetPlugin{}, sched.ClassPriorityPlugin{})
	}
	if opts.Faults != nil {
		inj, err := faults.New(*opts.Faults, opts.Seed, opts.MaxHorizonSec)
		if err != nil {
			return nil, err
		}
		s.inj = inj // nil when the config is all-zero (disabled)
	}
	if opts.Obs != nil {
		s.obsv = newSimObs(opts.Obs, s.inj != nil, s.classAware, opts.Services)
		s.queue.SetObs(opts.Obs)
	}
	s.rec = opts.Log
	s.attr = opts.Log.Attributor()
	if opts.Timeline != nil {
		s.tl = newTLState(opts.Timeline, opts.Services, s.classAware)
	}
	// Replay: the trace's streams supply every device's QPS. The header
	// must describe this exact cluster shape, and the streams must be in
	// canonical device order — the order the Recorder writes them in.
	var replayStreams map[string]*trace.StepQPS
	if opts.Replay != nil {
		if err := opts.Replay.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: replay trace: %w", err)
		}
		h := opts.Replay.Header
		hm := h.MIGSlices
		if hm <= 0 {
			hm = 1
		}
		if h.Devices != opts.Devices || hm != opts.MIGSlices {
			return nil, fmt.Errorf("cluster: replay trace is for %d devices × %d MIG slices, run configured %d × %d",
				h.Devices, hm, opts.Devices, opts.MIGSlices)
		}
		replayStreams = opts.Replay.StreamMap()
	}
	// Deploy: one inference service per schedulable device (a whole GPU
	// or a MIG instance), round-robin over the catalog (the paper's
	// setting — every GPU serves inference and hosts training
	// opportunistically).
	schedulable := opts.Devices * opts.MIGSlices
	// Devices are partitioned into contiguous lanes that step in
	// parallel, up to GOMAXPROCS at once, whatever is observing the run:
	// device windows write only device-owned state, and observers read
	// it back at the barrier (see sharded.go).
	if s.sh, err = shard.New(schedulable, opts.Shards, runtime.GOMAXPROCS(0), span.WindowSec); err != nil {
		return nil, err
	}
	// Every device's trace shares one indexed burst schedule.
	var bursts *trace.BurstSchedule
	if len(opts.Bursts) > 0 {
		bursts = trace.NewBurstSchedule(opts.Bursts)
	}
	for i := 0; i < schedulable; i++ {
		info := opts.Services[i%len(opts.Services)]
		dev := gpu.FleetDevice(i, opts.MIGSlices)
		devID := dev.ID
		var q trace.QPSTrace
		if replayStreams != nil {
			st := opts.Replay.Header.Streams[i]
			if st.ID != devID {
				return nil, fmt.Errorf("cluster: replay stream %d is %q, want canonical device %q", i, st.ID, devID)
			}
			svc, ok := serviceByName(opts.Services, st.Service)
			if !ok {
				return nil, fmt.Errorf("cluster: replay stream %q names unknown service %q", st.ID, st.Service)
			}
			info = svc
			q = replayStreams[devID]
			// No qps rng fork in replay: ForkString never advances the
			// parent stream, so skipping it leaves rng bit-identical to
			// the recorded run's.
		} else {
			q = trace.NewFluctuatingQPS(info.BaseQPS, rng.ForkString("qps:"+devID))
			if opts.LoadFactor != 1 {
				q = trace.ScaledQPS{Inner: q, Factor: opts.LoadFactor}
			}
			if bursts != nil {
				q = trace.NewBurstyQPS(q, bursts)
			}
		}
		if opts.Record != nil {
			q = opts.Record.Wrap(devID, info.Name, q)
		}
		ds := &deviceState{
			dev:  dev,
			pool: memmgr.NewPool(dev.MemoryMB),
			svc: &serviceState{
				info:     info,
				qpsTrace: q,
				batch:    64,
				delta:    0.5,
			},
		}
		if opts.Obs != nil {
			ds.obsv = newDevObs(opts.Obs, devID, info.Name)
			ds.obsv.cls = s.obsv.classes[info.Class] // nil map / unclassed → nil
		}
		if s.inj != nil {
			// Host↔device transfers slow down inside injected PCIe
			// degradation windows (factor 1 outside them).
			ds.pool.SetTransferScale(s.inj.PCIeScale)
		}
		ds.gidx = i
		ds.winRNG = rng.ForkString("win:" + devID)
		// Catalog index of the resident service (replay may have swapped
		// info away from the round-robin default).
		for ci := range opts.Services {
			if opts.Services[ci].Name == info.Name {
				ds.svcIdx = ci
				break
			}
		}
		s.devices = append(s.devices, ds)
		s.meas[devID] = &deviceMeasurer{oracle: opts.Oracle, dev: ds, rng: rng.ForkString("meas:" + devID), sim: s}
	}
	s.measMap = make(map[string]core.Measurer, len(s.meas))
	for id, m := range s.meas {
		s.measMap[id] = m
	}
	return s, nil
}

// Run executes the simulation to completion (all admitted tasks done)
// or to the safety horizon, and returns the metrics.
func (s *Sim) Run() (*Result, error) {
	// Initial per-device configuration and memory placement.
	for _, d := range s.devices {
		d.svc.curQPS = d.svc.qpsTrace.At(0)
		if err := s.configure(0, d, "initial"); err != nil {
			return nil, err
		}
		if err := d.pool.Alloc(0, "svc", memmgr.PriorityInference, d.svc.info.MemoryMB(d.svc.batch)); err != nil {
			return nil, err
		}
		s.flushSwaps(d)
		d.svc.deployed = true
	}
	// Faults and arrivals are control-plane events: they mutate the
	// queue, the task set, and device residency, so they run with every
	// lane quiescent at the barrier. Outage windows are drawn per device
	// from seed-derived streams, so the fault schedule is a pure
	// function of (Seed, Faults). Events at one time fire in the order
	// listed here: faults by device, then arrivals in submission order,
	// all after the window's mail and before its barrier tick.
	var events []shard.Event
	if s.inj != nil {
		for _, d := range s.devices {
			for _, w := range s.inj.DeviceWindows(d.dev.ID, s.opts.MaxHorizonSec) {
				events = append(events,
					shard.Event{At: w.Start, Fn: func(now float64) { s.failDevice(now, d) }},
					shard.Event{At: w.End, Fn: func(now float64) { s.recoverDevice(now, d) }})
			}
		}
	}
	// A recorder captures the submission sequence as scheduled — the
	// recorded trace replays these exact arrivals.
	for _, a := range s.opts.Arrivals {
		if s.opts.Record != nil {
			s.opts.Record.Task(a)
		}
		events = append(events, shard.Event{At: a.At, Fn: func(now float64) { s.onArrival(now, a) }})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	// Engine self-profiling: wall-clock per barrier phase, mail volume,
	// lane imbalance, heap/GC. Purely observational — the profiler only
	// appends to timeline series the fingerprint excludes.
	if s.tl != nil {
		s.sh.SetProfiler(newTLProfiler(s.tl.store))
	}
	// Observers read the lanes' window records back once per window.
	if s.rec != nil {
		s.sh.SetFold(s.fold)
	}
	// Every window steps each device on its lane; the barrier tick then
	// runs the cluster sums, the cancellation check and the all-done
	// stop.
	s.sh.Run(s.opts.MaxHorizonSec, events,
		func(l *shard.Lane, i int, now float64) { s.deviceWindow(now, l, s.devices[i]) },
		s.barrierTick)
	if s.opts.Ctx != nil {
		if err := s.opts.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	s.finalize(s.sh.Now())
	return s.res, nil
}

// onArrival queues the task and attempts scheduling.
func (s *Sim) onArrival(now float64, a trace.TaskArrival) {
	user := a.Task.Name // one "user" per task family for fair sharing
	if a.Cohort != "" {
		// Cohort traces name the real submitter population; fair-share
		// queueing then balances across cohorts, not task families.
		user = a.Cohort
	}
	// Smaller size classes get higher priority under the priority
	// policy (a simple deadline-ish assignment; users would set this
	// in production). Cohort traces may override per population.
	prio := int(model.SizeXL - a.Task.Size)
	if a.Priority != 0 {
		prio = a.Priority
	}
	job := &sched.Job{
		ID:             a.ID,
		SubmitTime:     a.At,
		User:           user,
		Priority:       prio,
		EstDurationSec: a.Task.BaseIterMs * float64(a.Iters) / 1000,
	}
	qj := &queueJob{job: job, arrival: a}
	s.jobs[a.ID] = qj
	s.queue.Push(job)
	s.trySchedule(now)
}

// trySchedule drains the queue head-of-line while placements succeed.
func (s *Sim) trySchedule(now float64) {
	for s.queue.Len() > 0 {
		job := s.queue.Peek()
		qj := s.jobs[job.ID]
		views := s.viewsBuf[:0]
		for _, d := range s.devices {
			if d.down || qj.excluded[d.dev.ID] {
				continue
			}
			views = append(views, d.view())
		}
		if len(views) == 0 {
			// Everything excluded: forget the history and retry fresh
			// (failed devices stay off the table until they recover).
			qj.excluded = nil
			for _, d := range s.devices {
				if d.down {
					continue
				}
				views = append(views, d.view())
			}
		}
		if len(views) == 0 {
			// The whole cluster is down; recovery events reschedule.
			s.viewsBuf = views
			return
		}
		s.viewsBuf = views // keep the grown capacity for the next attempt
		start := time.Now()
		var devID string
		var ok bool
		if s.classAware {
			devID, ok = s.classSelect(qj, views)
		} else {
			devID, ok = s.opts.Policy.SelectDevice(qj.arrival.Task, views, s.measMap)
		}
		s.res.PlacementOverheadMs = append(s.res.PlacementOverheadMs, float64(time.Since(start).Microseconds())/1000)
		if !ok {
			return // head-of-line blocks until a completion frees capacity
		}
		m, known := s.meas[devID]
		if !known {
			return
		}
		s.queue.Pop()
		s.place(now, m.dev, qj)
	}
}

// classSelect is the class-aware placement path: the class framework
// scores every candidate (budget-exhausted devices are vetoed
// outright), then the configured policy picks within score tiers from
// the most preferred (least critical residents) down. The policy keeps
// full authority inside a tier — class steering only decides which
// devices it may consider first — so a classless fleet degenerates to
// one tier and the exact policy decision.
func (s *Sim) classSelect(qj *queueJob, views []core.DeviceView) (string, bool) {
	scores := s.scoreBuf[:0]
	kept := 0
	for i := range views {
		sc, ok := s.classFW.Score(&qj.arrival.Task, &views[i])
		if !ok {
			continue
		}
		views[kept] = views[i]
		scores = append(scores, sc)
		kept++
	}
	views = views[:kept]
	s.scoreBuf = scores
	for len(views) > 0 {
		best := scores[0]
		for _, sc := range scores[1:] {
			if sc > best {
				best = sc
			}
		}
		tier := s.tierBuf[:0]
		rest := 0
		for i, v := range views {
			if scores[i] == best {
				tier = append(tier, v)
			} else {
				views[rest] = v
				scores[rest] = scores[i]
				rest++
			}
		}
		views, scores = views[:rest], scores[:rest]
		s.tierBuf = tier
		if devID, ok := s.opts.Policy.SelectDevice(qj.arrival.Task, tier, s.measMap); ok {
			return devID, true
		}
	}
	return "", false
}

// serviceByName resolves a replay stream's service against the run's
// service set.
func serviceByName(services []model.InferenceService, name string) (model.InferenceService, bool) {
	for _, s := range services {
		if s.Name == name {
			return s, true
		}
	}
	return model.InferenceService{}, false
}

// place admits the task onto the device and retunes it.
func (s *Sim) place(now float64, d *deviceState, qj *queueJob) {
	t := &taskState{
		id:        qj.arrival.ID,
		task:      qj.arrival.Task,
		iters:     qj.arrival.Iters,
		itersDone: qj.progress,
		submitAt:  qj.arrival.At,
		startAt:   now,
		allocID:   fmt.Sprintf("train-%d", qj.arrival.ID),
	}
	d.training = append(d.training, t)
	s.res.Admitted++
	s.record(d, span.Record{Act: span.ActPlaced, Time: now, Task: t.task.Name, Value: float64(t.id)})
	// Memory: training allocations are swappable.
	if err := d.pool.Alloc(now, t.allocID, memmgr.PriorityTraining, t.task.MemoryMB()); err != nil {
		// Should not happen (training can be partially resident).
		t.paused = true
	}
	s.flushSwaps(d)

	// Online learning first: Mudi profiles the new co-location so the
	// immediate Configure below already uses the fitted curves.
	if learner, ok := s.opts.Policy.(core.OnlineLearner); ok {
		learner.ObserveColocation(d.view(), s.meas[d.dev.ID])
	}
	if err := s.configure(now, d, "placement"); err != nil {
		t.paused = true
	}
}

// evalHooker is implemented by policies (core.Mudi) that can report
// every tuner objective evaluation — the tracing layer's per-probe
// bo_iter feed.
type evalHooker interface {
	SetEvalHook(func(batch int, delta, trainIterMs float64, feasible bool))
}

// taskSig is the resident training-task signature used to annotate
// control-plane spans: unfinished resident names joined with "+", in
// residency order. Trace-path only (it allocates).
func taskSig(d *deviceState) string {
	var sig string
	for _, t := range d.training {
		if t.done {
			continue
		}
		if sig != "" {
			sig += "+"
		}
		sig += t.task.Name
	}
	return sig
}

// configure runs the policy's device-level tuning and applies the
// decision; cause labels the retune event for the observability
// stream. A failed episode — a Configure error, or a feasible decision
// whose Δ exceeds the whole device — leaves the device as it was and
// is counted in Result.ConfigureErrors, so callers that carry on with
// the old configuration may drop the returned error.
func (s *Sim) configure(now float64, d *deviceState, cause string) error {
	if s.rec != nil {
		// One retune interval per tuning episode; every tuner objective
		// evaluation during the episode becomes a bo_iter record (the
		// hook fires synchronously inside Configure, and Configure
		// calls are serialized, so clearing it afterwards is safe).
		s.record(d, span.Record{Act: span.ActRetune, Time: now, Task: taskSig(d), Batch: d.svc.batch, Delta: d.svc.delta, Cause: cause})
		if hooker, ok := s.opts.Policy.(evalHooker); ok {
			hooker.SetEvalHook(func(batch int, delta, trainIterMs float64, feasible bool) {
				r := span.Record{Act: span.ActBOIter, Time: now, End: now, Batch: batch, Delta: delta, Value: trainIterMs}
				if !feasible {
					r.Cause = "infeasible"
				}
				s.record(d, r)
			})
			defer hooker.SetEvalHook(nil)
		}
	}
	dec, err := s.opts.Policy.Configure(d.view(), s.meas[d.dev.ID])
	if err == nil && dec.Feasible && dec.Delta > 1 {
		// Eq. 4's share budget: the inference partition is at most the
		// whole device.
		err = fmt.Errorf("cluster: %s: decision Δ=%g exceeds the device", d.dev.ID, dec.Delta)
	}
	// The episode's outcome; a failed Configure leaves the device's
	// configuration as it was.
	end := span.Record{Act: span.ActRetuneEnd, Time: now, Batch: dec.Batch, Delta: dec.Delta, Value: float64(dec.BOIterations)}
	switch {
	case err != nil:
		end.Batch, end.Delta, end.Value, end.Cause = d.svc.batch, d.svc.delta, 0, "error"
	case !dec.Feasible:
		end.Cause = "infeasible"
	}
	s.record(d, end)
	if err != nil {
		s.res.ConfigureErrors++
		return err
	}
	s.apply(now, d, dec)
	return nil
}

// setBatch installs a decided batch size. Memory cap (§2.2.2: the
// batching size range depends on the GPU memory limit): the batch is
// halved until the service's pinned footprint fits the device —
// essential for MIG instances. Batch updates are on-the-fly; only
// memory demand changes.
func (s *Sim) setBatch(now float64, d *deviceState, batch int) {
	svc := d.svc
	for batch > 16 && svc.info.MemoryMB(batch) > d.pool.CapacityMB()*0.95 {
		batch /= 2
	}
	if batch <= 0 || batch == svc.batch {
		return
	}
	svc.batch = batch
	_ = d.pool.Resize(now, "svc", svc.info.MemoryMB(batch))
	s.flushSwaps(d)
	s.record(d, span.Record{Act: span.ActBatch, Time: now, Value: float64(batch)})
}

// record emits one control-plane record for device d; a no-op when
// recording is off. Call sites whose record costs something to build
// (a task signature, a formatted cause) guard on s.rec themselves.
func (s *Sim) record(d *deviceState, r span.Record) {
	if s.rec == nil {
		return
	}
	r.Device, r.Service = d.dev.ID, d.svc.info.Name
	s.obsv.count(d, &r)
	s.rec.Add(r)
}

// rescale moves the inference partition to newDelta behind the
// shadow-instance protocol (§5.4). Under fault injection a shadow can
// fail to spin up once the service is past its initial deployment; the
// old instance then keeps serving at the previous partition and the
// lost reconfiguration is recorded as a failover event. Without an
// injector this is exactly the pre-fault rescale path.
func (s *Sim) rescale(now float64, d *deviceState, newDelta float64) {
	svc := d.svc
	oldDelta := svc.delta
	act := span.ActRescale
	if s.inj != nil && svc.deployed && s.inj.SpinUpFails(d.dev.ID) {
		act = span.ActSpinUpFailed
		s.res.FailedSpinUps++
	} else {
		s.res.Reconfigs++
	}
	if s.rec != nil {
		// The shadow-instance protocol window (§5.4): a restart hides
		// spin-up behind the old instance, then cuts over at its end; a
		// batch-only episode reconfigures on the fly and the window
		// collapses to zero. A failed spin-up covers the attempted
		// window and never cuts over.
		spinUp, _ := tuner.ShadowReconfig(oldDelta, newDelta)
		r := span.Record{Act: act, Time: now, End: now + spinUp, Task: taskSig(d), Batch: svc.batch, Delta: newDelta - oldDelta, Value: newDelta}
		if act == span.ActSpinUpFailed {
			r.Cause = "shadow-spinup-failed"
		}
		s.record(d, r)
	}
	if act == span.ActRescale {
		svc.delta = newDelta
	}
}

// apply installs a decision on the device.
func (s *Sim) apply(now float64, d *deviceState, dec core.Decision) {
	svc := d.svc
	// Even an infeasible decision carries the least-bad batch for
	// serving.
	s.setBatch(now, d, dec.Batch)
	if !dec.Feasible {
		// Pause training; the service takes the device (§5.3.2).
		for _, t := range d.training {
			if !t.done && !t.paused {
				t.paused = true
				t.pausedAt = now
			}
		}
		if svc.delta != 1 {
			s.rescale(now, d, 1)
		}
		s.res.PausedEpisodes++
		return
	}
	// Cluster invariant (§7.4): while training is multiplexed, the
	// inference service leaves it at least 10% of the device; a policy
	// that wants the full device must declare infeasibility instead.
	if dec.Delta > 0.9 && d.residentCount() > 0 {
		dec.Delta = 0.9
	}
	if dec.Delta > 0 && absf(dec.Delta-svc.delta) > 1e-9 {
		s.rescale(now, d, dec.Delta)
	}
	for _, t := range d.training {
		if !t.done {
			t.paused = false
		}
	}
}

// complete finishes a task: record metrics, free resources, reschedule.
func (s *Sim) complete(now float64, d *deviceState, t *taskState) {
	s.res.Completed++
	s.res.CTs = append(s.res.CTs, t.finishAt-t.submitAt)
	s.res.WaitingT = append(s.res.WaitingT, t.startAt-t.submitAt)
	if t.finishAt > s.res.Makespan {
		s.res.Makespan = t.finishAt
	}
	// Usage accrues to the job's fair-share user: the cohort on cohort
	// traces, the task family otherwise (see onArrival).
	s.queue.RecordUsage(s.jobs[t.id].job.User, t.finishAt-t.startAt)
	s.release(now, d, t)
	// Retune for the remaining residents and pull the next queued task
	// ("a new co-location decision is made for pending training tasks
	// only after an existing training task has been completed", §5.2).
	_ = s.configure(now, d, "completion")
	s.trySchedule(now)
}

// release frees t's memory and share on d and drops it from the
// device's resident list.
func (s *Sim) release(now float64, d *deviceState, t *taskState) {
	_ = d.pool.Free(now, t.allocID)
	s.flushSwaps(d)
	keep := d.training[:0]
	for _, other := range d.training {
		if other != t {
			keep = append(keep, other)
		}
	}
	d.training = keep
}

// qpsChangeFrac is the Monitor's trigger: a device retunes when its
// QPS moves by this fraction since the last retune (§5.3.2).
// resumeRetrySec is how often a paused device re-attempts tuning;
// pauseEvictSec is how long a task may stay paused before it is
// checkpointed and requeued for placement elsewhere.
const (
	qpsChangeFrac  = 0.5
	resumeRetrySec = 10.0
	pauseEvictSec  = 120.0
	// memPressureFrac is the memory-utilization fraction above which a
	// device counts into the fleet_mem_pressure timeline series.
	memPressureFrac = 0.9
)

func (d *deviceState) hasPaused() bool {
	for _, t := range d.training {
		if !t.done && t.paused {
			return true
		}
	}
	return false
}

// requeue evicts a paused task back to the scheduling queue with its
// progress checkpointed.
func (s *Sim) requeue(now float64, d *deviceState, t *taskState) {
	if !s.evictTask(now, d, t, "pause-evict", false) {
		return
	}
	_ = s.configure(now, d, "migration")
	s.trySchedule(now)
}

// evictTask checkpoints t off d and pushes its job back to the
// scheduling queue. force bypasses the requeue cap and skips the
// device-exclusion mark — used on device failure, where the task
// cannot stay on dead hardware and should be free to return once the
// device recovers. Returns false when the cap stops a non-forced
// eviction.
func (s *Sim) evictTask(now float64, d *deviceState, t *taskState, cause string, force bool) bool {
	qj, ok := s.jobs[t.id]
	if !ok || (!force && qj.requeues >= 2*len(s.devices)) {
		return false
	}
	qj.requeues++
	if !force {
		if qj.excluded == nil {
			qj.excluded = make(map[string]bool)
		}
		qj.excluded[d.dev.ID] = true
	}
	qj.progress = t.itersDone
	s.release(now, d, t)
	// Re-placement creates a fresh taskState from the checkpoint.
	s.res.Admitted--
	// The migrate interval lasts until place lands the job on its next
	// device: the task's off-device time.
	s.record(d, span.Record{Act: span.ActMigrated, Time: now, Task: t.task.Name, Value: float64(t.id), Cause: cause})
	s.queue.Push(qj.job)
	return true
}

// failDevice begins an injected outage: every unfinished resident is
// checkpointed and requeued (the forced eviction bypasses the requeue
// cap — a task cannot wait out a cap on dead hardware), the inference
// instance fails over off the device, and the device stops taking
// placements and serving windows until recovery.
func (s *Sim) failDevice(now float64, d *deviceState) {
	if d.down {
		return
	}
	d.down = true
	d.svc.deployed = false
	s.res.DeviceFailures++
	if s.rec != nil {
		// The outage interval lasts until recovery (or the horizon if
		// the device never heals); the attributor classifies violations
		// in and just after it as device_fault.
		s.record(d, span.Record{Act: span.ActOutage, Time: now, Task: taskSig(d), Cause: "device-failed"})
	}
	// Iterate a copy: evictTask rebuilds d.training in place.
	for _, t := range append([]*taskState(nil), d.training...) {
		if !t.done {
			s.evictTask(now, d, t, "device-failed", true)
		}
	}
	s.res.Failovers++
	s.record(d, span.Record{Act: span.ActFailover, Time: now, Cause: "device-failed"})
	_ = d.pool.Free(now, "svc")
	s.flushSwaps(d)
	// The requeued tasks look for a home among the surviving devices.
	s.trySchedule(now)
}

// recoverDevice ends an outage: the device redeploys its inference
// instance from scratch (a fresh launch, not a shadow swap — see
// serviceState.deployed) and rejoins the placement pool.
func (s *Sim) recoverDevice(now float64, d *deviceState) {
	if !d.down {
		return
	}
	d.down = false
	s.res.DeviceRecoveries++
	s.record(d, span.Record{Act: span.ActRecovered, Time: now})
	svc := d.svc
	svc.curQPS = svc.qpsTrace.At(now)
	// Same sequence as the initial deployment in Run: size the config
	// first, then pin the instance's memory.
	_ = s.configure(now, d, "recovery")
	mb := svc.info.MemoryMB(svc.batch)
	_ = d.pool.Alloc(now, "svc", memmgr.PriorityInference, mb)
	s.flushSwaps(d)
	svc.deployed = true
	// Evicted (and head-of-line blocked) tasks may now fit again.
	s.trySchedule(now)
}

// measureFault consults the injector before a TrainIterMs observation.
// A transiently failing measurement is retried with capped exponential
// backoff (the backoff spends negligible wall-clock inside a control
// window, so the simulated clock does not advance); exhausting the
// retries surfaces faults.ErrMeasurement, on which the tuner falls
// back to predictor-only curves for the episode.
func (s *Sim) measureFault(d *deviceState) error {
	if !s.inj.MeasureFails(d.dev.ID) {
		return nil
	}
	now := s.sh.Now()
	retries := s.inj.Retries()
	for attempt := 1; attempt <= retries; attempt++ {
		s.res.MeasureRetries++
		if s.rec != nil {
			s.record(d, span.Record{
				Act: span.ActMeasureRetry, Time: now, Value: float64(attempt),
				Cause: fmt.Sprintf("backoff=%gms", s.inj.BackoffMs(attempt)),
			})
		}
		if !s.inj.MeasureFails(d.dev.ID) {
			return nil
		}
	}
	return fmt.Errorf("cluster: measuring on %s after %d retries: %w", d.dev.ID, retries, faults.ErrMeasurement)
}

// finalize converts accumulators into rates.
func (s *Sim) finalize(now float64) {
	wins := make(map[string]float64) // measured windows per service
	// Class roll-up accumulators (class-aware runs only): violated and
	// total windows per class wire name, over every device in the class.
	var classViol, classWin map[string]float64
	if s.classAware {
		classViol = make(map[string]float64)
		classWin = make(map[string]float64)
	}
	for _, d := range s.devices {
		svc := d.svc
		name := svc.info.Name
		// Lanes accumulate per device; merge here in global device order
		// so every float sum has a fixed order regardless of lane count.
		s.res.MeanP99[name] += svc.latSum
		if svc.shedWins > 0 {
			if s.res.ShedRequests == nil {
				s.res.ShedRequests = make(map[string]float64)
			}
			s.res.ShedRequests[svc.info.Class.String()] += svc.shedReq
			s.res.ShedWindows += svc.shedWins
		}
		if svc.totalWin > 0 {
			// Aggregate violation rate over all devices hosting the
			// same service: accumulate weighted by windows.
			prevRate := s.res.SLOViolation[name]
			prevWin := wins[name]
			totalWin := prevWin + float64(svc.totalWin)
			s.res.SLOViolation[name] = (prevRate*prevWin + float64(svc.violWin)) / totalWin
			wins[name] = totalWin
			if s.classAware && svc.info.Class != model.ClassUnset {
				cls := svc.info.Class.String()
				classViol[cls] += float64(svc.violWin)
				classWin[cls] += float64(svc.totalWin)
			}
		}
		frac := d.pool.SwapFraction(now)
		if frac > s.res.SwapFraction[name] {
			s.res.SwapFraction[name] = frac
		}
		s.res.SwapEvents += len(d.pool.Events())
		for _, e := range d.pool.Events() {
			s.res.AvgTransferMs += e.TransferMs
		}
	}
	if s.res.SwapEvents > 0 {
		s.res.AvgTransferMs /= float64(s.res.SwapEvents)
	}
	for cls, wins := range classWin {
		if wins > 0 {
			if s.res.ClassViolation == nil {
				s.res.ClassViolation = make(map[string]float64)
			}
			s.res.ClassViolation[cls] = classViol[cls] / wins
		}
	}
	// Observability roll-up (Summary() excludes it by design).
	// Intervals still in flight at the horizon (unhealed outages,
	// unplaced migrations) end there.
	s.res.Metrics = s.opts.Obs.Snapshot()
	s.res.Events, s.res.Spans = s.rec.Events(), s.rec.Spans(now)
	ev, sp := s.rec.Views()
	s.res.EventsDropped, s.res.SpansDropped = ev.Dropped, sp.Dropped
	s.res.SLOReport, s.res.ViolationsDropped = s.attr.Report(span.WindowSec), s.attr.Dropped()
	// Recording roll-up: the workload this run consumed, assembled into
	// a replayable trace-v2 document (a derived view like Events/Spans).
	if s.opts.Record != nil {
		s.res.Workload = s.opts.Record.Trace()
	}
	// Timeline roll-up: the full snapshot including self-profiling
	// series (consumers that need the deterministic subset filter with
	// timeline.Fingerprint / Kind.Profile).
	if s.tl != nil {
		s.res.Timelines = s.tl.store.Snapshot(true)
	}
	// MeanP99 accumulated sums; divide by window counts.
	for name, n := range wins {
		s.res.MeanP99[name] /= n
	}
}

func relChange(old, new float64) float64 {
	if old <= 0 {
		if new > 0 {
			return 1
		}
		return 0
	}
	return absf(new-old) / old
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
