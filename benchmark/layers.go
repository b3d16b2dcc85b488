package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"mudi"
	"mudi/internal/core"
	"mudi/internal/model"
	"mudi/internal/timeline"
)

// layerStats is one traced repetition's per-layer record, taken by the
// wrappers below around each call the simulator makes into the policy
// and into the measurer it hands the policy. The cluster calls policies
// only from its single-threaded global phase, so the fields need no
// lock.
type layerStats struct {
	placeCalls, placeViews, placeOK int
	placeNs                         int64

	learnCalls int
	learnNs    int64 // self time: nested measurement subtracted

	tuneCalls, boIters, infeasible, tuneErrs int
	tuneNs                                   int64 // self time

	measCalls, measErrs int
	measNs              int64
}

// timedPolicy times every core.Policy call and forwards it unchanged.
type timedPolicy struct {
	p  core.Policy
	st *layerStats
}

func (t *timedPolicy) Name() string { return t.p.Name() }

func (t *timedPolicy) SelectDevice(task model.TrainingTask, views []core.DeviceView, m map[string]core.Measurer) (string, bool) {
	start := time.Now()
	id, ok := t.p.SelectDevice(task, views, m)
	t.st.placeNs += int64(time.Since(start))
	t.st.placeCalls++
	t.st.placeViews += len(views)
	if ok {
		t.st.placeOK++
	}
	return id, ok
}

func (t *timedPolicy) Configure(view core.DeviceView, m core.Measurer) (core.Decision, error) {
	m = t.st.wrap(m)
	meas0 := t.st.measNs
	start := time.Now()
	dec, err := t.p.Configure(view, m)
	t.st.tuneNs += int64(time.Since(start)) - (t.st.measNs - meas0)
	t.st.tuneCalls++
	if err != nil {
		t.st.tuneErrs++
	} else {
		t.st.boIters += dec.BOIterations
		if !dec.Feasible {
			t.st.infeasible++
		}
	}
	return dec, err
}

// evalHooker mirrors the optional interface the cluster looks for to
// feed its tracer; the wrapper must expose it exactly when the wrapped
// policy does.
type evalHooker interface {
	SetEvalHook(func(batch int, delta, trainIterMs float64, feasible bool))
}

type hookForwarder struct{ h evalHooker }

func (f hookForwarder) SetEvalHook(fn func(batch int, delta, trainIterMs float64, feasible bool)) {
	f.h.SetEvalHook(fn)
}

type learnerPolicy struct {
	*timedPolicy
	l core.OnlineLearner
}

func (t learnerPolicy) ObserveColocation(view core.DeviceView, m core.Measurer) {
	m = t.st.wrap(m)
	meas0 := t.st.measNs
	start := time.Now()
	t.l.ObserveColocation(view, m)
	t.st.learnNs += int64(time.Since(start)) - (t.st.measNs - meas0)
	t.st.learnCalls++
}

type hookPolicy struct {
	*timedPolicy
	hookForwarder
}

type learnerHookPolicy struct {
	learnerPolicy
	hookForwarder
}

// wrapPolicy returns p behind the timing wrapper, with the same
// optional interfaces as p, so the simulator takes the same paths.
func wrapPolicy(p core.Policy, st *layerStats) core.Policy {
	tp := &timedPolicy{p: p, st: st}
	l, isLearner := p.(core.OnlineLearner)
	h, isHooker := p.(evalHooker)
	switch {
	case isLearner && isHooker:
		return learnerHookPolicy{learnerPolicy{tp, l}, hookForwarder{h}}
	case isLearner:
		return learnerPolicy{tp, l}
	case isHooker:
		return hookPolicy{tp, hookForwarder{h}}
	}
	return tp
}

// timedMeasurer times every measurement the policy takes.
type timedMeasurer struct {
	m  core.Measurer
	st *layerStats
}

// wrap returns m behind the timing wrapper; a nil measurer stays nil,
// because policies branch on it.
func (st *layerStats) wrap(m core.Measurer) core.Measurer {
	if m == nil {
		return nil
	}
	return timedMeasurer{m: m, st: st}
}

func (t timedMeasurer) TrainIterMs(batch int, delta float64) (float64, error) {
	start := time.Now()
	v, err := t.m.TrainIterMs(batch, delta)
	t.st.measured(start, err)
	return v, err
}

func (t timedMeasurer) InfLatencyMs(batch int, delta float64) (float64, error) {
	start := time.Now()
	v, err := t.m.InfLatencyMs(batch, delta)
	t.st.measured(start, err)
	return v, err
}

func (st *layerStats) measured(start time.Time, err error) {
	st.measNs += int64(time.Since(start))
	st.measCalls++
	if err != nil {
		st.measErrs++
	}
}

// engineProfile is the sharded engine's self-profile, read back from a
// run's timeline snapshot.
type engineProfile struct {
	drainMs, mergeMs, applyMs float64
	barriers                  int64
	mail                      float64
	imbalance                 float64 // summed over barriers
	samples                   int64   // every non-profile timeline sample
}

func (e *engineProfile) add(tls []mudi.Timeline) error {
	for _, tl := range tls {
		sum, n, err := seriesTotal(tl)
		if err != nil {
			return err
		}
		k, err := mudi.ParseTimelineKind(tl.Kind)
		if err != nil {
			return err
		}
		switch k {
		case timeline.EngineDrainMs:
			e.drainMs += sum
			e.barriers += n
		case timeline.EngineMergeMs:
			e.mergeMs += sum
		case timeline.EngineApplyMs:
			e.applyMs += sum
		case timeline.EngineMail:
			e.mail += sum
		case timeline.EngineLaneImbalance:
			e.imbalance += sum
		}
		if !k.Profile() {
			e.samples += n
		}
	}
	return nil
}

// seriesTotal returns the sum and count of every sample a series
// recorded. The coarsest level holds every sample that completed a
// bucket of the level below it; the rest sit in the trailing partial
// bucket of each intermediate level. Raw samples can have been evicted,
// so the raw level is not used.
func seriesTotal(tl mudi.Timeline) (float64, int64, error) {
	if len(tl.Levels) < 2 {
		return 0, 0, fmt.Errorf("timeline %s: %d levels, need a downsampled one", tl.Kind, len(tl.Levels))
	}
	coarsest := tl.Levels[len(tl.Levels)-1]
	if len(coarsest.Buckets) >= timeline.Defaults().Cap {
		return 0, 0, fmt.Errorf("timeline %s: coarsest level is full, its oldest samples are gone", tl.Kind)
	}
	var sum float64
	var n int64
	for _, b := range coarsest.Buckets {
		sum += b.Sum
		n += b.Count
	}
	for _, lv := range tl.Levels[1 : len(tl.Levels)-1] {
		if k := len(lv.Buckets); k > 0 && lv.Buckets[k-1].Count < int64(lv.Stride) {
			sum += lv.Buckets[k-1].Sum
			n += lv.Buckets[k-1].Count
		}
	}
	return sum, n, nil
}

// runtimeCounters are the Go runtime's cumulative counters a
// repetition reads before and after each Simulate call.
type runtimeCounters struct {
	allocs   uint64
	gcCPU    float64
	gcCycles uint64
}

// counterReader reads runtimeCounters into a sample slice it keeps, so
// a read allocates nothing.
type counterReader []metrics.Sample

func newCounterReader() counterReader {
	return counterReader{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
}

func (r counterReader) read() runtimeCounters {
	metrics.Read(r)
	return runtimeCounters{
		allocs:   r[0].Value.Uint64(),
		gcCPU:    r[1].Value.Float64(),
		gcCycles: r[2].Value.Uint64(),
	}
}

func (c runtimeCounters) since(before runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocs:   c.allocs - before.allocs,
		gcCPU:    c.gcCPU - before.gcCPU,
		gcCycles: c.gcCycles - before.gcCycles,
	}
}

// heapSampler records the peak of /gc/heap/live:bytes, sampled every
// 20 ms on its own goroutine until stop returns.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	s    []metrics.Sample
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{
		done: make(chan struct{}),
		s:    []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	h.sample()
	return h.peak
}
