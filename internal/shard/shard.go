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
//  2. runs the fold, single-threaded, so it can read lane-local state
//     back in global device order;
//  3. applies the mail, lane by lane in posting order;
//  4. fires the events at B in their input order;
//  5. runs the tick.
//
// A barrier between two window ends runs only its events.
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
	"time"

	"mudi/internal/runner"
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

// Post queues fn for application at this window's barrier, after the
// fold, with now = the barrier time. Call it only from a step. Post is
// lock-free: each lane appends to its own buffer.
func (l *Lane) Post(fn func(now float64)) { l.mail = append(l.mail, fn) }

// Profiler receives the engine's own wall-clock behavior, once per
// barrier: the step (including the fold), merge and mail-apply phase
// durations, the mail volume, and the per-lane stepped-device counts
// (index order; the spread is the lane imbalance; nil at a barrier
// between window ends, where no lane steps). The mail needs no merge,
// so merge is always zero. Wall-clock is inherently
// nondeterministic — profilers must never feed back into simulation
// state. laneEvents is only valid for the duration of the call.
type Profiler interface {
	Barrier(at float64, drain, merge, apply time.Duration, mail int, laneEvents []int)
}

// Engine is the window clock over the lanes.
type Engine struct {
	lanes   []*Lane
	pool    *runner.Pool
	window  float64
	now     float64
	stopped bool
	fold    func(barrier float64)
	prof    Profiler
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
		lanes:  make([]*Lane, len(split)),
		pool:   runner.New(max(1, min(workers, len(split)))),
		window: window,
	}
	for i, r := range split {
		e.lanes[i] = &Lane{start: r[0], end: r[1]}
	}
	return e, nil
}

// Now returns the clock: the last barrier, or the horizon once Run
// reached it.
func (e *Engine) Now() float64 { return e.now }

// SetProfiler installs (or, with nil, removes) the barrier profiler.
// Call it before Run.
func (e *Engine) SetProfiler(p Profiler) { e.prof = p }

// SetFold installs (or, with nil, removes) fn, run at every window end
// on Run's goroutine after every lane has stepped and before the mail
// applies; its wall clock counts toward the profiler's drain phase.
// Call it before Run.
func (e *Engine) SetFold(fn func(barrier float64)) { e.fold = fn }

// Stop halts Run after the current tick, with the clock at its
// barrier. Call it only from the tick.
func (e *Engine) Stop() { e.stopped = true }

// Run runs the clock from time 0 until the horizon or Stop. Window
// ends fall at window, 2·window, …; at each one every device d is
// stepped as step(lane, d, now), then the fold, the mail, the events
// at that time and tick(now) run, in that order. events must be
// sorted by At (ties fire in slice order); an event between two window
// ends runs alone. With nothing left at or before the horizon, the
// clock moves to the horizon.
func (e *Engine) Run(horizon float64, events []Event, step func(l *Lane, dev int, now float64), tick func(now float64)) {
	e.stopped = false
	e.now = 0
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
		if window {
			counts = e.step(b, step)
			if e.fold != nil {
				e.fold(b)
			}
		}
		if e.prof != nil {
			drain := time.Since(start)
			start = time.Now()
			mail := e.applyMail(b)
			e.prof.Barrier(b, drain, 0, time.Since(start), mail, counts)
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

// step runs every lane's devices for the window ending at now. With
// one worker this is an inline index-order loop — runner.Map's
// sequential path — so a single-threaded step visits devices in global
// order. It returns the per-lane device counts.
func (e *Engine) step(now float64, step func(l *Lane, dev int, now float64)) []int {
	counts, _ := runner.Map(e.pool, len(e.lanes), func(i int) (int, error) {
		l := e.lanes[i]
		for d := l.start; d < l.end; d++ {
			step(l, d, now)
		}
		return l.end - l.start, nil
	})
	return counts
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
