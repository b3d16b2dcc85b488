// Package shard is the sharded discrete-event engine: one global
// control-plane calendar plus N lane calendars, each lane owning a
// contiguous range of devices. Lanes drain independently — optionally
// in parallel via the runner pool — up to a barrier (the next global
// event time), then cross-lane effects queued in per-lane mailboxes
// are applied in a deterministic (time, device, emission) order, then
// the global events at the barrier run. The hot per-device path inside
// a lane never takes a lock; every cross-lane interaction routes
// through the mailbox and lands at a barrier.
//
// Determinism contract: provided lane handlers touch only lane-local
// state and every cross-lane effect goes through Post, a run's
// observable behavior is bit-for-bit identical for any lane count and
// any worker count. Three properties deliver that, mirroring
// internal/runner's ordered-merge discipline:
//
//   - lanes partition devices contiguously (Split), so draining lanes
//     in index order visits devices in global device order — and a
//     parallel drain touches disjoint state, making order moot;
//   - mailbox messages merge-sort by (At, Dev, per-lane emission seq),
//     a key that is invariant to lane count because each device is
//     owned by exactly one lane;
//   - the fold (SetFold) runs single-threaded after the drain, so it
//     can read lane-local state back in global device order.
package shard

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"mudi/internal/eventq"
	"mudi/internal/runner"
)

// Default returns the default lane count for a device count:
// min(GOMAXPROCS, devices/64), at least 1. One lane per 64 devices
// keeps per-lane calendars big enough to amortize barrier overhead.
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

// Message is one cross-lane effect: a closure applied at the first
// barrier at or after At. Ordering among messages at a barrier is
// (At, Dev, emission order within the posting lane) — invariant to
// lane and worker count because a device belongs to exactly one lane.
type Message struct {
	At  float64
	Dev int
	seq uint64
	Fn  eventq.Handler
}

// Lane is one shard: a private calendar plus a mailbox for effects
// that must cross into the global domain. A lane's handlers run with
// every other lane possibly in flight, so they must touch only state
// owned by this lane's devices; anything else goes through Post.
type Lane struct {
	Sim  *eventq.Sim
	mail []Message
	seq  uint64
}

// Post queues fn for application at the next barrier. at is the
// posting time (the lane's current clock) and dev the global index of
// the device the effect concerns — together with the lane-local
// emission order they form the deterministic application key. Post is
// lock-free: each lane appends to its own buffer.
func (l *Lane) Post(at float64, dev int, fn eventq.Handler) {
	l.mail = append(l.mail, Message{At: at, Dev: dev, seq: l.seq, Fn: fn})
	l.seq++
}

// Profiler receives the engine's own wall-clock behavior, once per
// barrier: the lane-drain, mailbox merge+sort, and apply phase
// durations, the mail volume, and the per-lane drained-event counts
// (index order; the spread is the lane imbalance). Wall-clock is
// inherently nondeterministic — profilers must never feed back into
// simulation state. laneEvents is only valid for the duration of the
// call.
type Profiler interface {
	Barrier(at float64, drain, merge, apply time.Duration, mail int, laneEvents []int)
}

// Engine coordinates the global calendar and the lanes.
type Engine struct {
	global  *eventq.Sim
	lanes   []*Lane
	pool    *runner.Pool
	merged  []Message // barrier merge scratch, reused across barriers
	stopped bool
	fold    func(barrier float64)

	// prof, when non-nil, observes every barrier; the per-barrier
	// timing scratch below is written only when profiling is on, so the
	// unprofiled engine pays one nil check per barrier.
	prof       Profiler
	laneCounts []int
	mergeD     time.Duration
	applyD     time.Duration
	mailN      int
}

// New returns an engine with the given number of lanes, draining at
// most workers lanes concurrently (workers <= 1: the inline sequential
// drain); lanes must be >= 1.
func New(lanes, workers int) (*Engine, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("shard: lane count %d < 1", lanes)
	}
	if workers < 1 {
		workers = 1
	}
	e := &Engine{global: eventq.New(), pool: runner.New(workers)}
	e.lanes = make([]*Lane, lanes)
	for i := range e.lanes {
		e.lanes[i] = &Lane{Sim: eventq.New()}
	}
	return e, nil
}

// Global returns the control-plane calendar: arrivals, faults,
// barrier ticks, and everything else that may touch cross-lane state.
func (e *Engine) Global() *eventq.Sim { return e.global }

// Lane returns lane i.
func (e *Engine) Lane(i int) *Lane { return e.lanes[i] }

// Lanes reports the lane count.
func (e *Engine) Lanes() int { return len(e.lanes) }

// Workers reports the drain concurrency bound.
func (e *Engine) Workers() int { return e.pool.Workers() }

// Now returns the global clock. Between barriers, lane clocks may be
// ahead of it; they re-align at every barrier.
func (e *Engine) Now() float64 { return e.global.Now() }

// SetProfiler installs (or, with nil, removes) the barrier profiler.
// Call it before Run.
func (e *Engine) SetProfiler(p Profiler) { e.prof = p }

// SetFold installs (or, with nil, removes) fn, run once per barrier on
// Run's goroutine after every lane has drained and before the mailbox
// applies; its wall clock counts toward the profiler's drain phase.
// Call it before Run.
func (e *Engine) SetFold(fn func(barrier float64)) { e.fold = fn }

// Stop halts Run at the current barrier: the in-progress global phase
// ends after the current handler, lanes stay aligned, and Run
// returns. Call it only from a global handler or a mailbox message —
// stopping from inside a lane handler would race a parallel drain.
func (e *Engine) Stop() {
	e.stopped = true
	e.global.Stop()
}

// Run drains the engine until the horizon, Stop, or both calendars
// empty. It alternates phases: pick the barrier B (the earlier of the
// next global event and the horizon), drain every lane to B
// inclusive, run the fold, apply queued mailbox messages in (At, Dev,
// emission) order with the global clock at B, then fire the global
// events at B in their own (time, seq) order. Lane events at B
// therefore run before global events at B, and the fold and mailbox
// effects land in between.
// Returns the number of calendar events executed (mailbox
// applications are not events).
func (e *Engine) Run(horizon float64) int {
	e.stopped = false
	executed := 0
	for !e.stopped {
		barrier, final := horizon, true
		if t, ok := e.global.NextAt(); ok && t <= horizon {
			barrier, final = t, false
		}
		var drainStart time.Time
		if e.prof != nil {
			drainStart = time.Now()
		}
		executed += e.drainLanes(barrier)
		if e.fold != nil {
			e.fold(barrier)
		}
		var drainD time.Duration
		if e.prof != nil {
			drainD = time.Since(drainStart)
		}
		e.global.AdvanceTo(barrier)
		e.applyMail(barrier)
		if e.prof != nil {
			e.prof.Barrier(barrier, drainD, e.mergeD, e.applyD, e.mailN, e.laneCounts)
		}
		if e.stopped {
			break
		}
		if final {
			e.global.Run(horizon) // nothing ≤ horizon: advances the clock
			break
		}
		executed += e.global.Run(barrier)
		if e.stopped {
			break
		}
		if e.global.Len() == 0 && e.lanesEmpty() {
			e.global.AdvanceTo(horizon)
			e.advanceLanes(horizon)
			break
		}
	}
	return executed
}

// drainLanes runs every lane to the barrier (inclusive). With one
// worker this is an inline index-order loop — runner.Map's sequential
// path — so single-threaded drains visit devices in global order.
func (e *Engine) drainLanes(barrier float64) int {
	counts, _ := runner.Map(e.pool, len(e.lanes), func(i int) (int, error) {
		return e.lanes[i].Sim.Run(barrier), nil
	})
	e.laneCounts = counts
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// applyMail merges every lane's queued messages, sorts them by
// (At, Dev, emission), and applies them with now = the barrier time.
// Messages posted while applying (by a message's own Fn) land in the
// lane buffers again and wait for the next barrier.
func (e *Engine) applyMail(barrier float64) {
	var mergeStart time.Time
	if e.prof != nil {
		e.mergeD, e.applyD, e.mailN = 0, 0, 0
		mergeStart = time.Now()
	}
	e.merged = e.merged[:0]
	for _, l := range e.lanes {
		e.merged = append(e.merged, l.mail...)
		l.mail = l.mail[:0]
	}
	if len(e.merged) == 0 {
		if e.prof != nil {
			e.mergeD = time.Since(mergeStart)
		}
		return
	}
	slices.SortStableFunc(e.merged, func(a, b Message) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Dev, b.Dev), cmp.Compare(a.seq, b.seq))
	})
	var applyStart time.Time
	if e.prof != nil {
		e.mailN = len(e.merged)
		e.mergeD = time.Since(mergeStart)
		applyStart = time.Now()
	}
	for i := range e.merged {
		e.merged[i].Fn(barrier)
		e.merged[i].Fn = nil
	}
	if e.prof != nil {
		e.applyD = time.Since(applyStart)
	}
}

func (e *Engine) lanesEmpty() bool {
	for _, l := range e.lanes {
		if l.Sim.Len() > 0 || len(l.mail) > 0 {
			return false
		}
	}
	return true
}

func (e *Engine) advanceLanes(horizon float64) {
	for _, l := range e.lanes {
		l.Sim.AdvanceTo(horizon)
	}
}
