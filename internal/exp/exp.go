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
	"mudi/internal/obs"
	"mudi/internal/perf"
	"mudi/internal/report"
	"mudi/internal/runner"
	"mudi/internal/trace"
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

// simulate builds and runs one cell's simulation. Every cell goes
// through here, so each one gets the run's Seed, Shards and Ctx and its
// own private sink, record log and timeline store — the Observer, Trace
// and Timelines reach every cell, not only some. A cell that reads its
// own timeline passes its store in o.Timeline, which is kept.
func (c Config) simulate(o cluster.Options) (*cluster.Result, error) {
	o.Seed = c.Seed
	o.Shards = c.Shards
	o.Ctx = c.Ctx
	sink, log, store := cluster.Observers(c.Observer != nil, c.Trace, c.Timelines && o.Timeline == nil, c.Observer)
	o.Obs, o.Log = sink, log
	if store != nil {
		o.Timeline = store
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

// Suite caches the shared state (oracle, arrival trace, per-policy
// end-to-end results) that several figures derive from.
//
// The Oracle and Arrivals are read-only after construction and safe to
// share across concurrent cells. Policies are never shared: every cell,
// the cached end-to-end runs included, builds its own.
type Suite struct {
	Config   Config
	Oracle   *perf.Oracle
	Arrivals []trace.TaskArrival

	pool *runner.Pool

	mu      sync.Mutex // guards results
	results map[string]*cluster.Result
}

// NewSuite prepares the shared oracle and trace.
func NewSuite(cfg Config) (*Suite, error) {
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
		Oracle:   perf.NewOracle(cfg.Seed),
		Arrivals: arrivals,
		pool:     runner.New(cfg.Parallel),
		results:  make(map[string]*cluster.Result),
	}, nil
}

// policyOrder is the stable presentation order of the systems.
var policyOrder = []string{"mudi", "gslice", "gpulets", "muxflow", "optimal"}

// freshPolicy builds a new, independently-owned policy instance. Every
// experiment cell gets its own instance so that mutable policy state
// (Mudi's observed co-locations, Gpulets' solo curves) is never shared
// across workers; a Mudi instance owns its own clone of the trained
// predictor, so only the immutable offline output is shared (see
// core.Build). Construction is a pure function of (oracle, seed), so
// fresh instances are identical no matter when or on which worker they
// are built.
func (s *Suite) freshPolicy(name string) (core.Policy, error) {
	if name == "mudi" {
		return core.Build(s.Oracle, s.Config.Seed, core.MudiConfig{})
	}
	return baselines.New(name, s.Oracle, s.Config.Seed, 1)
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
	policy, err := s.freshPolicy(name)
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
// policies' Run calls across the suite's worker pool; a cached policy
// returns at once, so the cache ends up as after four sequential Runs.
func (s *Suite) RunAll() (map[string]*cluster.Result, error) {
	names := []string{"mudi", "gslice", "gpulets", "muxflow"}
	cells := make([]runner.Cell[*cluster.Result], len(names))
	for i, name := range names {
		cells[i] = runner.Cell[*cluster.Result]{Key: name, Run: func() (*cluster.Result, error) { return s.Run(name) }}
	}
	ress, err := runCells(s.Config, s.pool, cells)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	out := make(map[string]*cluster.Result, len(names))
	for i, name := range names {
		out[name] = ress[i]
	}
	return out, nil
}

// serviceOrder is the Tab. 1 presentation order.
var serviceOrder = []string{"ResNet50", "Inception", "GPT2", "BERT", "RoBERTa", "YOLOS"}

// tableAlias lets tests refer to the report table type without an
// import cycle in test helpers.
type tableAlias = report.Table
