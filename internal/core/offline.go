package core

import (
	"slices"
	"sync"

	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/predictor"
	"mudi/internal/profiler"
	"mudi/internal/xrand"
)

// Build returns a ready Mudi policy over the offline pipeline's output
// (profiling → interference modeling → curve cache, §4.1).
// cfg.MaxTrainPerGPU > 1 additionally profiles multi-task co-locations
// (Mudi-more, §5.5).
//
// The offline pipeline runs once per (oracle content, seed,
// MaxTrainPerGPU) in a process (see trainedFor): every call gets its
// own Mudi over its own clone of the trained predictor, so it learns
// online exactly as over a freshly trained one, and nothing it learns
// reaches another.
func Build(oracle *perf.Oracle, seed uint64, cfg MudiConfig) (*Mudi, error) {
	cfg = cfg.defaults()
	off, err := trainedFor(oracle, seed, cfg.MaxTrainPerGPU)
	if err != nil {
		return nil, err
	}
	m := newMudi(off.pred.Clone(), cfg)
	m.addProfiles(off.curves)
	return m, nil
}

// offline is the offline phase's output (§4.1): the trained
// Interference Predictor and the profiled curves Mudi caches. It is
// never mutated once built; callers clone pred.
type offline struct {
	pred *predictor.Predictor
	// curves are the offline profiles without their samples: the
	// fields Mudi.addProfiles reads.
	curves []profiler.Profile
}

// train runs the offline pipeline: the Offline Profiler over every
// catalog service, then the Interference Modeler's model selection.
func train(oracle *perf.Oracle, seed uint64, maxTrain int) (*offline, error) {
	prof := profiler.New(oracle, xrand.New(seed+100))
	var colocSets [][]model.TrainingTask
	if maxTrain > 1 {
		colocSets = append([][]model.TrainingTask{nil}, profiler.MultiColocSets(maxTrain)...)
	}
	profiles, err := prof.ProfileAll(nil, colocSets)
	if err != nil {
		return nil, err
	}
	off := &offline{pred: predictor.New(seed)}
	for _, svc := range model.Services() {
		for _, pr := range profiles[svc.Name] {
			pr.Samples = nil
			off.curves = append(off.curves, pr)
		}
		if err := off.pred.Train(profiles[svc.Name]); err != nil {
			return nil, err
		}
	}
	return off, nil
}

// memoSize bounds the trained-state memo; past it the oldest entry is
// evicted, so a seed sweep holds at most memoSize trained predictors.
const memoSize = 8

// memoEntry is one trained-state memo slot. done is closed once off
// and err are set. oracle is the first caller's: its parameters are
// fixed once it is shared (see perf.Oracle).
type memoEntry struct {
	oracle   *perf.Oracle
	seed     uint64
	maxTrain int
	done     chan struct{}
	off      *offline
	err      error
}

// memo holds the offline pipeline's output per (oracle content, seed,
// maxTrain), oldest first. The Tuner configuration is not part of the
// key: it reaches neither profiling nor training.
var memo struct {
	mu      sync.Mutex
	entries []*memoEntry
}

// trainedFor returns train's output for (oracle, seed, maxTrain),
// running it only on a memo miss. Concurrent first callers of one key
// train once and the others wait for it; a failed training is not
// kept, so the next caller trains again.
func trainedFor(oracle *perf.Oracle, seed uint64, maxTrain int) (*offline, error) {
	memo.mu.Lock()
	for _, e := range memo.entries {
		if e.seed == seed && e.maxTrain == maxTrain && e.oracle.Same(oracle) {
			memo.mu.Unlock()
			<-e.done
			return e.off, e.err
		}
	}
	e := &memoEntry{oracle: oracle, seed: seed, maxTrain: maxTrain, done: make(chan struct{})}
	if len(memo.entries) == memoSize {
		memo.entries = slices.Delete(memo.entries, 0, 1)
	}
	memo.entries = append(memo.entries, e)
	memo.mu.Unlock()

	e.off, e.err = train(oracle, seed, maxTrain)
	if e.err != nil {
		memo.mu.Lock()
		if i := slices.Index(memo.entries, e); i >= 0 {
			memo.entries = slices.Delete(memo.entries, i, i+1)
		}
		memo.mu.Unlock()
	}
	close(e.done)
	return e.off, e.err
}
