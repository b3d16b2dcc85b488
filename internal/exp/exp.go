// Package exp is the evaluation harness: one runner per table and
// figure of the paper's §7, each regenerating the corresponding rows or
// series against the simulator. The absolute numbers come from the
// synthetic testbed (internal/perf), so the claims to compare are the
// *shapes*: which system wins, by roughly what factor, and where the
// crossovers fall. EXPERIMENTS.md records paper-vs-measured for every
// runner here.
package exp

import (
	"context"
	"fmt"
	"sync"

	"mudi/internal/baselines"
	"mudi/internal/cluster"
	"mudi/internal/core"
	"mudi/internal/model"
	"mudi/internal/obs"
	"mudi/internal/perf"
	"mudi/internal/predictor"
	"mudi/internal/profiler"
	"mudi/internal/report"
	"mudi/internal/runner"
	"mudi/internal/span"
	"mudi/internal/timeline"
	"mudi/internal/trace"
	"mudi/internal/tuner"
	"mudi/internal/xrand"
)

// Scale selects experiment sizes.
type Scale int

// Experiment scales. Small keeps unit tests and -short benches quick;
// Physical mirrors the paper's 12-GPU/300-task cluster; Simulated
// mirrors the 1000-GPU/5000-task run (expensive).
const (
	ScaleSmall Scale = iota
	ScalePhysical
	ScaleSimulated
)

// Config parameterizes a harness run.
type Config struct {
	Seed  uint64
	Scale Scale
	// Parallel bounds how many experiment cells (independent
	// simulations) run concurrently; 0 selects GOMAXPROCS. Results are
	// identical for every value — each cell owns its policy instance
	// and draws from an RNG stream derived from (Seed, cell index), and
	// results merge in cell-key order, never completion order.
	Parallel int
	// Shards is each cell's event-engine lane count
	// (cluster.Options.Shards): a positive count pins that many lanes,
	// 0 or negative picks the default. Results are identical for every
	// lane count — the shard determinism tests pin that.
	Shards int
	// Ctx, when non-nil, cancels in-flight harness runs: no new cells
	// start after it is done and the run returns Ctx.Err().
	Ctx context.Context
	// Observer, when non-nil, receives every simulation event from every
	// cell. Each cell owns a private sink and record log, so only this
	// function is shared across workers — it must be safe for concurrent
	// calls when Parallel != 1. Observation never changes results.
	Observer obs.Observer
	// Trace, when true, gives every cell a private span view and
	// violation attributor; the roll-ups land on each cell's
	// cluster.Result (Spans / SLOReport). Like observation, tracing
	// never changes results.
	Trace bool
	// Timelines, when true, gives every cell a private timeline store;
	// the snapshot lands on each cell's cluster.Result (Timelines). Like
	// observation, timelines never change results.
	Timelines bool
}

// ctx returns the run context, defaulting to Background.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// sink builds a fresh per-cell metrics sink when observation is
// enabled, nil otherwise (the zero-overhead path).
func (c Config) sink() *obs.Sink {
	if c.Observer == nil {
		return nil
	}
	return obs.NewSink()
}

// log builds a fresh per-cell record log — an event view feeding the
// Observer, a span view and an attributor when tracing — or nil when
// both are off (the zero-overhead path).
func (c Config) log() *span.Log {
	return span.NewRunLog(c.Observer != nil, c.Trace, c.Observer)
}

// timeline builds a fresh per-cell timeline store when timeline
// recording is enabled, nil otherwise (the zero-overhead path).
func (c Config) timeline() *timeline.Store {
	if !c.Timelines {
		return nil
	}
	return timeline.New(timeline.Defaults())
}

// simulate builds and runs one cell's simulation. Every cell goes
// through here, so each one gets the run's Seed, Shards and Ctx and its
// own private sink, record log and timeline store — the Observer, Trace
// and Timelines reach every cell, not only some. A cell that reads its
// own timeline passes its store in o.Timeline, which is kept.
func (c Config) simulate(o cluster.Options) (*cluster.Result, error) {
	o.Seed = c.Seed
	o.Shards = c.Shards
	o.Ctx = c.Ctx
	o.Obs = c.sink()
	o.Log = c.log()
	if o.Timeline == nil {
		o.Timeline = c.timeline()
	}
	sim, err := cluster.New(o)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// runCells is the harness's runner entry point: every fan-out goes
// through here so Config.Ctx governs the whole harness.
func runCells[T any](cfg Config, p *runner.Pool, cells []runner.Cell[T]) ([]T, error) {
	return runner.RunCtx(cfg.ctx(), p, cells)
}

// sizes returns (devices, tasks, meanGapSec, iterScale) per scale.
func (c Config) sizes() (int, int, float64, float64) {
	switch c.Scale {
	case ScalePhysical:
		// The paper's physical cluster: 12 A100s, 300 tasks. Task
		// lengths are shrunk so a run stays minutes of simulated time.
		return 12, 300, 12, 0.002
	case ScaleSimulated:
		// The paper's simulated cluster: 1000 GPUs, 5000 tasks, trace
		// scaled by 80 (much denser arrivals).
		return 1000, 5000, 0.8, 0.002
	default:
		return 12, 24, 4, 0.001
	}
}

// Suite caches the shared state (oracle, trained Mudi, arrival trace,
// per-policy end-to-end results) that several figures derive from.
//
// The Oracle and Arrivals are read-only after construction and safe to
// share across concurrent cells. Mudi is mutable (it accumulates
// observed co-locations and BO iteration counts) and is only ever used
// by one cell at a time — figures that sweep configurations build a
// fresh instance per cell instead.
type Suite struct {
	Config   Config
	Oracle   *perf.Oracle
	Mudi     *core.Mudi
	Arrivals []trace.TaskArrival

	pool *runner.Pool

	mu      sync.Mutex // guards results
	results map[string]*cluster.Result
}

// NewSuite trains the offline pipeline and prepares the shared trace.
func NewSuite(cfg Config) (*Suite, error) {
	oracle := perf.NewOracle(cfg.Seed)
	mudi, err := BuildMudi(oracle, cfg.Seed, 1)
	if err != nil {
		return nil, err
	}
	_, tasks, gap, iterScale := cfg.sizes()
	arrivals, err := trace.PhillyTrace(trace.PhillyConfig{
		Count:      tasks,
		MeanGapSec: gap,
		ScaleIters: iterScale,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Suite{
		Config:   cfg,
		Oracle:   oracle,
		Mudi:     mudi,
		Arrivals: arrivals,
		pool:     runner.New(cfg.Parallel),
		results:  make(map[string]*cluster.Result),
	}, nil
}

// BuildMudi runs the full offline pipeline (profiling → interference
// modeling → curve cache) and returns a ready Mudi policy. maxTrain >
// 1 additionally profiles multi-task co-locations (Mudi-more, §5.5).
func BuildMudi(oracle *perf.Oracle, seed uint64, maxTrain int) (*core.Mudi, error) {
	return BuildMudiWithTuner(oracle, seed, maxTrain, tuner.Config{})
}

// BuildMudiWithTuner is BuildMudi with an explicit Tuner configuration
// (used by the batching-strategy ablation).
func BuildMudiWithTuner(oracle *perf.Oracle, seed uint64, maxTrain int, tcfg tuner.Config) (*core.Mudi, error) {
	prof := profiler.New(oracle, xrand.New(seed+100))
	pred := predictor.New(seed)
	var colocSets [][]model.TrainingTask
	if maxTrain > 1 {
		colocSets = append([][]model.TrainingTask{nil}, profiler.MultiColocSets(maxTrain)...)
	}
	profiles, err := prof.ProfileAll(nil, colocSets)
	if err != nil {
		return nil, err
	}
	mudi := core.NewMudi(pred, core.MudiConfig{Seed: seed, MaxTrainPerGPU: maxTrain, Tuner: tcfg})
	for _, ps := range profiles {
		if err := pred.Train(ps); err != nil {
			return nil, err
		}
		mudi.AddProfiles(ps)
	}
	return mudi, nil
}

// policyOrder is the stable presentation order of the systems.
var policyOrder = []string{"mudi", "gslice", "gpulets", "muxflow", "optimal"}

// freshPolicy builds a new, independently-owned policy instance. Every
// experiment cell that runs concurrently gets its own instance so that
// mutable policy state (Mudi's observed co-locations and BO counters,
// Gpulets' solo curves) is never shared across workers. Construction is
// a pure function of (oracle, seed), so fresh instances are identical
// no matter when or on which worker they are built.
func (s *Suite) freshPolicy(name string) (core.Policy, error) {
	switch name {
	case "mudi":
		return BuildMudi(s.Oracle, s.Config.Seed, 1)
	case "gslice":
		return baselines.NewGSLICE(), nil
	case "gpulets":
		return baselines.NewGpulets(s.Oracle, xrand.New(s.Config.Seed+7))
	case "muxflow":
		return baselines.NewMuxFlow(s.Oracle), nil
	case "optimal":
		return baselines.NewOptimal(s.Oracle, 1), nil
	}
	return nil, fmt.Errorf("exp: unknown policy %q", name)
}

// policyFor resolves the policy used for the cached end-to-end run of
// name. The "mudi" run uses the suite's shared trained instance — its
// accumulated state (BO iteration counts) feeds Fig. 18 — while the
// baselines are constructed fresh, as before.
func (s *Suite) policyFor(name string) (core.Policy, error) {
	if name == "mudi" {
		return s.Mudi, nil
	}
	return s.freshPolicy(name)
}

// runPolicy executes one end-to-end simulation against the shared
// trace. It touches no suite state besides the read-only Oracle,
// Config, and Arrivals, so independent cells may call it concurrently
// as long as each passes its own policy instance.
func (s *Suite) runPolicy(policy core.Policy) (*cluster.Result, error) {
	devices, _, _, _ := s.Config.sizes()
	return s.Config.simulate(cluster.Options{
		Policy:   policy,
		Oracle:   s.Oracle,
		Devices:  devices,
		Arrivals: s.Arrivals,
	})
}

// Run executes (and caches) the end-to-end simulation for one policy.
func (s *Suite) Run(name string) (*cluster.Result, error) {
	s.mu.Lock()
	res, ok := s.results[name]
	s.mu.Unlock()
	if ok {
		return res, nil
	}
	policy, err := s.policyFor(name)
	if err != nil {
		return nil, err
	}
	res, err = s.runPolicy(policy)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.results[name] = res
	s.mu.Unlock()
	return res, nil
}

// RunAll executes the standard comparison set, fanning the four
// policy simulations across the suite's worker pool. Uncached policies
// become one cell each; results merge into the cache keyed by policy
// name, so the map is identical to four sequential Run calls.
func (s *Suite) RunAll() (map[string]*cluster.Result, error) {
	names := []string{"mudi", "gslice", "gpulets", "muxflow"}
	var todo []string
	s.mu.Lock()
	for _, name := range names {
		if _, ok := s.results[name]; !ok {
			todo = append(todo, name)
		}
	}
	s.mu.Unlock()
	cells := make([]runner.Cell[*cluster.Result], len(todo))
	for i, name := range todo {
		name := name
		cells[i] = runner.Cell[*cluster.Result]{Key: name, Run: func() (*cluster.Result, error) {
			policy, err := s.policyFor(name)
			if err != nil {
				return nil, err
			}
			return s.runPolicy(policy)
		}}
	}
	ress, err := runCells(s.Config, s.pool, cells)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	out := make(map[string]*cluster.Result)
	s.mu.Lock()
	for i, name := range todo {
		s.results[name] = ress[i]
	}
	for _, name := range names {
		out[name] = s.results[name]
	}
	s.mu.Unlock()
	return out, nil
}

// serviceOrder is the Tab. 1 presentation order.
var serviceOrder = []string{"ResNet50", "Inception", "GPT2", "BERT", "RoBERTa", "YOLOS"}

// tableAlias lets tests refer to the report table type without an
// import cycle in test helpers.
type tableAlias = report.Table
