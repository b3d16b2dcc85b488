// Package shard is the window clock: a fleet of devices stepped once
// per fixed control window, partitioned into contiguous lanes that
// step their devices in parallel, plus one time-sorted list of
// control-plane events. Each lane owns a device range and a mailbox
// for effects that must cross into the global domain. The hot
// per-device path inside a lane never takes a lock; every cross-lane
// interaction routes through the mailbox and lands at the barrier.
//
// A barrier is a window end or an event time. At a window end B, Run
//
//  1. steps every device's window, lanes in parallel, each lane in
//     device order;
//  2. applies the mail, single-threaded, lane by lane in posting order,
//     so a step's effects — its reactions and what it observed — land
//     in global device order;
//  3. fires the events at B in their input order;
//  4. runs the tick.
//
// A barrier between two window ends runs only its events.
//
// The parallel step is a hand-off between Run's goroutine and its lane
// workers. Opening a window bumps a generation counter; whoever sees
// it claims lanes from a shared counter, and Run's goroutine steps
// lanes too, then waits only until every claimed lane is done. A
// worker that sees the window late finds no lane left, so Run never
// waits for a worker that stepped nothing. Between windows a worker
// polls the generation for a short bound (spinBound), so it is awake
// when a serial barrier is over, and then parks until the next window
// wakes it.
//
// Determinism contract: provided the step touches only the stepped
// device's lane-local state and every cross-lane effect goes through
// Post, a run's observable behavior is bit-for-bit identical for any
// lane count and any worker count. Lanes are contiguous and each steps
// its devices in order, so the mail joined in lane order is in (device,
// emission) order whatever the split; a parallel step touches disjoint
// state, making its interleaving moot.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Default returns the default lane count for a device count:
// min(GOMAXPROCS, devices/64), at least 1. One lane per 64 devices
// keeps per-lane work big enough to amortize the barrier overhead.
func Default(devices int) int {
	n := devices / 64
	if g := runtime.GOMAXPROCS(0); n > g {
		n = g
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Split partitions n devices into the given number of contiguous
// [start, end) ranges with sizes differing by at most one. The lane
// count is clamped to [1, n] (for n >= 1), so every lane owns at
// least one device.
func Split(n, lanes int) [][2]int {
	if lanes < 1 {
		lanes = 1
	}
	if lanes > n && n > 0 {
		lanes = n
	}
	out := make([][2]int, lanes)
	base, extra := n/lanes, n%lanes
	start := 0
	for i := range out {
		size := base
		if i < extra {
			size++
		}
		out[i] = [2]int{start, start + size}
		start += size
	}
	return out
}

// Event is one control-plane action: Fn runs at time At, with every
// lane quiescent.
type Event struct {
	At float64
	Fn func(now float64)
}

// Lane is one shard: a contiguous device range plus a mailbox. A
// lane's step runs with every other lane possibly in flight, so it
// must touch only state owned by its own devices; anything else goes
// through Post.
type Lane struct {
	start, end int
	mail       []func(now float64)
}

// Post queues fn for application at this window's barrier, with now =
// the barrier time. Call it only from a step. Post is lock-free: each
// lane appends to its own buffer.
func (l *Lane) Post(fn func(now float64)) { l.mail = append(l.mail, fn) }

// Profiler receives the engine's own wall-clock behavior, once per
// barrier: the step and mail-apply phase durations, the mail volume,
// the per-lane stepped-device counts (index order; the spread is the
// lane imbalance; nil at a barrier between window ends, where no lane
// steps), how many lanes the lane workers stepped rather than Run's
// goroutine, and how long Run's goroutine waited for those lanes once
// it found none left to claim.
// Wall-clock is inherently nondeterministic — profilers must never
// feed back into simulation state. laneEvents is only valid for the
// duration of the call.
type Profiler interface {
	Barrier(at float64, drain, apply time.Duration, mail int, laneEvents []int, helperLanes int, stepWait time.Duration)
}

// spinBound is how long a lane worker keeps polling for the next
// window after its last one before it parks. It covers the serial
// part of a typical barrier — the mail, the events and the tick — so
// the worker is still awake when the next window opens.
// Measured on a 2-vCPU Xeon, from the end of one parallel step to the
// start of the next, on the two 1024-device benchmark workloads
// (2 lanes, seed 1): on fleet-1k the median gap is 14 µs and 0.5 ms
// covers 99.5% of the gaps; on observed-burst-1k, where the barrier
// publishes every device's window, the median is 0.10 ms, the mean
// 0.18 ms, and 0.5 ms covers 97% (50 µs covers 8%, 1 ms 97.4%). The
// gaps beyond the bound are barriers that place a task or retune many
// devices, milliseconds long, and worth a park and a wake-up.
const spinBound = 500 * time.Microsecond

// Engine is the window clock over the lanes.
type Engine struct {
	lanes []*Lane
	// counts is each lane's device count, the profiler's laneEvents.
	counts  []int
	workers int
	window  float64
	now     float64
	stopped bool
	prof    Profiler

	// The current Run's step and window end, and its lane workers (see
	// startWorkers). step opens a window by resetting done and next and
	// then bumping gen; lanes are claimed from next and counted in done
	// once stepped. stepFn and at are written before gen moves, so a
	// worker that claims a lane reads the window it belongs to.
	stepFn func(l *Lane, dev int, now float64)
	at     float64
	gen    atomic.Uint64
	next   atomic.Int64
	done   atomic.Int64
	pool   []worker
	quit   chan struct{}
	exited sync.WaitGroup
	// hold, when set, runs on a lane worker each time it sees a window
	// open; true keeps it off that window's lanes. Tests only.
	hold func() bool
}

// worker is one lane worker's wake-up: parked is true while it waits on
// wake. step wakes a parked worker by clearing parked and then sending,
// so wake never holds more than one value and the send never blocks.
type worker struct {
	parked atomic.Bool
	wake   chan struct{}
}

// New returns an engine stepping devices [0, devices) once every
// window seconds, split into the given number of lanes (clamped as
// Split does) and stepping at most workers lanes concurrently
// (workers <= 1: the inline sequential step).
func New(devices, lanes, workers int, window float64) (*Engine, error) {
	if devices < 1 {
		return nil, fmt.Errorf("shard: device count %d < 1", devices)
	}
	if !(window > 0) {
		return nil, fmt.Errorf("shard: window %v is not positive", window)
	}
	split := Split(devices, lanes)
	e := &Engine{
		lanes:   make([]*Lane, len(split)),
		counts:  make([]int, len(split)),
		workers: max(1, min(workers, len(split))),
		window:  window,
	}
	for i, r := range split {
		e.lanes[i] = &Lane{start: r[0], end: r[1]}
		e.counts[i] = r[1] - r[0]
	}
	return e, nil
}

// Now returns the clock: the last barrier, or the horizon once Run
// reached it.
func (e *Engine) Now() float64 { return e.now }

// SetProfiler installs (or, with nil, removes) the barrier profiler.
// Call it before Run.
func (e *Engine) SetProfiler(p Profiler) { e.prof = p }

// Stop halts Run after the current tick, with the clock at its
// barrier. Call it only from Run's goroutine: the tick, an event or
// applied mail.
func (e *Engine) Stop() { e.stopped = true }

// Run runs the clock from time 0 until the horizon or Stop. Window
// ends fall at window, 2·window, …; at each one every device d is
// stepped as step(lane, d, now), then the mail, the events at that time
// and tick(now) run, in that order. events must be
// sorted by At (ties fire in slice order); an event between two window
// ends runs alone. With nothing left at or before the horizon, the
// clock moves to the horizon.
//
// With more than one worker, Run starts its lane workers once and
// stops them before it returns, whichever way it returns.
func (e *Engine) Run(horizon float64, events []Event, step func(l *Lane, dev int, now float64), tick func(now float64)) {
	e.stopped = false
	e.now = 0
	e.stepFn = step
	if e.workers > 1 {
		e.startWorkers()
		defer e.stopWorkers()
	}
	next := e.window
	for !e.stopped {
		b, window := next, true
		if len(events) > 0 && events[0].At < next {
			b, window = events[0].At, false
		}
		if b > horizon {
			e.now = max(e.now, horizon)
			return
		}
		e.now = b
		var start time.Time
		if e.prof != nil {
			start = time.Now()
		}
		var counts []int
		var helped int
		var wait time.Duration
		if window {
			helped, wait = e.step(b)
			counts = e.counts
		}
		if e.prof != nil {
			drain := time.Since(start)
			start = time.Now()
			mail := e.applyMail(b)
			e.prof.Barrier(b, drain, time.Since(start), mail, counts, helped, wait)
		} else {
			e.applyMail(b)
		}
		for len(events) > 0 && events[0].At == b {
			fn := events[0].Fn
			events = events[1:]
			fn(b)
		}
		if window {
			tick(b)
			next += e.window
		}
	}
}

// step runs every lane's devices for the window ending at now and
// returns how many lanes the lane workers stepped and, with a
// profiler, how long Run's goroutine waited for them. With one worker
// it is a plain loop over the lanes in index order, so a
// single-threaded step visits devices in global order. Otherwise it
// opens the window, wakes the parked workers without blocking, and
// takes lanes from the shared counter until none is left; then it
// waits only for lanes a worker claimed and is still stepping, never
// for a worker that has not claimed one.
func (e *Engine) step(now float64) (helped int, wait time.Duration) {
	e.at = now
	if e.workers == 1 {
		for _, l := range e.lanes {
			e.stepLane(l)
		}
		return 0, 0
	}
	e.done.Store(0)
	e.next.Store(0)
	e.gen.Add(1)
	for i := range e.pool {
		if w := &e.pool[i]; w.parked.CompareAndSwap(true, false) {
			w.wake <- struct{}{}
		}
	}
	n := len(e.lanes)
	helped = n - e.stepLanes()
	if e.done.Load() < int64(n) {
		var start time.Time
		if e.prof != nil {
			start = time.Now()
		}
		for e.done.Load() < int64(n) {
			runtime.Gosched()
		}
		if e.prof != nil {
			wait = time.Since(start)
		}
	}
	return helped, wait
}

// stepLane steps the lane's devices in order.
func (e *Engine) stepLane(l *Lane) {
	for d := l.start; d < l.end; d++ {
		e.stepFn(l, d, e.at)
	}
}

// stepLanes steps lanes taken from the window's counter until every
// lane is taken, counts each in done, and returns how many it stepped.
func (e *Engine) stepLanes() int {
	stepped := 0
	for {
		i := int(e.next.Add(1)) - 1
		if i >= len(e.lanes) {
			return stepped
		}
		e.stepLane(e.lanes[i])
		e.done.Add(1)
		stepped++
	}
}

// startWorkers starts the workers-1 lane workers that step lanes beside
// Run's goroutine. Each steps lanes whenever it sees a window open,
// polls for the next one for up to spinBound, yielding its processor
// between polls, and then parks until step wakes it.
func (e *Engine) startWorkers() {
	e.pool = make([]worker, e.workers-1)
	e.quit = make(chan struct{})
	seen := e.gen.Load()
	e.exited.Add(len(e.pool))
	for i := range e.pool {
		w := &e.pool[i]
		w.wake = make(chan struct{}, 1)
		go func() {
			defer e.exited.Done()
			e.work(w, seen)
		}()
	}
}

// work is one lane worker's loop, from window generation seen until
// the run's end.
func (e *Engine) work(w *worker, seen uint64) {
	idle := time.Now()
	for {
		if g := e.gen.Load(); g != seen {
			seen = g
			if e.hold == nil || !e.hold() {
				e.stepLanes()
			}
			idle = time.Now()
			continue
		}
		select {
		case <-e.quit:
			return
		default:
		}
		if time.Since(idle) < spinBound {
			runtime.Gosched()
			continue
		}
		if !e.park(w, seen) {
			return
		}
	}
}

// park blocks w until a window past generation seen opens (true) or
// the run ends (false). A window that opened while w was parking is
// not missed: either step saw w parked and sends its wake-up, or w
// sees the new generation here.
func (e *Engine) park(w *worker, seen uint64) bool {
	w.parked.Store(true)
	if e.gen.Load() != seen {
		if !w.parked.CompareAndSwap(true, false) {
			<-w.wake // step already cleared parked: take its wake-up
		}
		return true
	}
	select {
	case <-w.wake:
		return true
	case <-e.quit:
		return false
	}
}

// stopWorkers ends the lane workers, polling or parked, and returns
// once they have exited.
func (e *Engine) stopWorkers() {
	close(e.quit)
	e.exited.Wait()
	e.pool, e.quit = nil, nil
}

// applyMail applies every lane's queued mail, lane by lane in posting
// order, with now = the barrier time, and returns how many it applied.
func (e *Engine) applyMail(now float64) int {
	n := 0
	for _, l := range e.lanes {
		for i, fn := range l.mail {
			fn(now)
			l.mail[i] = nil
		}
		n += len(l.mail)
		l.mail = l.mail[:0]
	}
	return n
}
