package eventq

// referenceSim is the heap-only calendar the tick rings replaced, kept
// verbatim (identifiers renamed) as the oracle for
// TestRingMatchesReferenceProperty: every tick, one-shot or not, is a
// fresh heap event, so its firing order is the (at, seq) contract by
// construction.

import (
	"container/heap"
	"errors"
	"fmt"
)

type refEvent struct {
	at  float64
	seq uint64 // tie-break: FIFO among equal timestamps
	fn  Handler
	idx int // heap position; -1 once fired or cancelled
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	e.idx = -1
	return e
}

// referenceSim is the simulator clock and event calendar. Not safe for
// concurrent use: a simulation is a single logical thread.
type referenceSim struct {
	now     float64
	seq     uint64
	heap    refHeap
	stopped bool
}

// newReferenceSim returns a simulator at time 0.
func newReferenceSim() *referenceSim { return &referenceSim{} }

// Now returns the current virtual time in seconds.
func (s *referenceSim) Now() float64 { return s.now }

// refTimer identifies a scheduled event for cancellation.
type refTimer struct{ e *refEvent }

// At schedules fn at absolute time t. Scheduling in the past is an
// error (events must not violate causality).
func (s *referenceSim) At(t float64, fn Handler) (refTimer, error) {
	if fn == nil {
		return refTimer{}, errors.New("eventq: nil handler")
	}
	if t < s.now {
		return refTimer{}, fmt.Errorf("eventq: schedule at %v before now %v", t, s.now)
	}
	e := &refEvent{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.heap, e)
	return refTimer{e: e}, nil
}

// After schedules fn delay seconds from now.
func (s *referenceSim) After(delay float64, fn Handler) (refTimer, error) {
	if delay < 0 {
		return refTimer{}, fmt.Errorf("eventq: negative delay %v", delay)
	}
	return s.At(s.now+delay, fn)
}

// Cancel prevents a scheduled event from firing. The event is removed
// from the calendar immediately — O(log n) — and its handler closure
// released, so cancelled events never pin memory until their fire
// time. Cancelling a fired or already-cancelled timer is a no-op.
func (s *referenceSim) Cancel(t refTimer) {
	if t.e == nil || t.e.idx < 0 {
		return
	}
	heap.Remove(&s.heap, t.e.idx)
	t.e.fn = nil
}

// Stop halts Run after the current event returns.
func (s *referenceSim) Stop() { s.stopped = true }

// Run drains events until the calendar empties, the horizon passes, or
// Stop is called. Events at exactly the horizon still fire. It returns
// the number of events executed.
func (s *referenceSim) Run(horizon float64) int {
	s.stopped = false
	executed := 0
	for len(s.heap) > 0 && !s.stopped {
		e := s.heap[0]
		if e.at > horizon {
			break
		}
		heap.Pop(&s.heap)
		s.now = e.at
		fn := e.fn
		e.fn = nil // release the closure before the handler reschedules
		fn(s.now)
		executed++
	}
	// Advance the clock to the horizon even if the calendar drained
	// early, so repeated Run calls observe contiguous time.
	if !s.stopped && s.now < horizon {
		s.now = horizon
	}
	return executed
}

// AdvanceTo moves the clock forward to t without firing anything. It
// is a no-op if t <= now. The caller must ensure no pending event is
// earlier than t (the shard engine advances to the earliest global
// event time, which satisfies this by construction); otherwise a later
// Run would move the clock backwards when it fires the skipped event.
func (s *referenceSim) AdvanceTo(t float64) {
	if t > s.now {
		s.now = t
	}
}

// Pending returns the number of scheduled events. Cancelled events are
// removed eagerly, so this is simply the heap length — O(1).
func (s *referenceSim) Pending() int { return len(s.heap) }

// Len is Pending under the name the shard engine uses.
func (s *referenceSim) Len() int { return len(s.heap) }

// NextAt returns the timestamp of the earliest pending event, or false
// if the calendar is empty.
func (s *referenceSim) NextAt() (float64, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// EveryUntil schedules fn at now+period, then every period seconds,
// until the simulation stops or the returned stop function is called.
// Stopping cancels the in-flight timer, so the calendar holds no
// residue from a stopped ticker.
func (s *referenceSim) EveryUntil(period float64, fn Handler) (stop func(), err error) {
	if period <= 0 {
		return nil, fmt.Errorf("eventq: non-positive period %v", period)
	}
	stopped := false
	var pending refTimer
	var schedule func(now float64)
	schedule = func(now float64) {
		if stopped {
			return
		}
		fn(now)
		if stopped {
			return
		}
		t, err := s.After(period, schedule)
		if err != nil {
			// Unreachable: After with positive delay cannot fail.
			panic(err)
		}
		pending = t
	}
	pending, err = s.After(period, schedule)
	if err != nil {
		return nil, err
	}
	return func() {
		if stopped {
			return
		}
		stopped = true
		s.Cancel(pending)
	}, nil
}
