// Package eventq is the discrete-event simulation engine: a calendar
// queue over virtual seconds. The cluster simulator schedules workload
// arrivals, control-loop ticks, and completions as events; Run drains
// them in (time, sequence) order so simulations are deterministic.
//
// The calendar is a binary heap of one-shot events (At, After) beside
// one FIFO tick ring per distinct EveryUntil period. A ticker owns one
// event for its whole life and re-arms it into its period's ring after
// every tick, so a tick allocates nothing and costs O(1) instead of a
// heap push and pop. Run fires the earliest of the heap head and the
// ring heads, so the order is the one a single heap would give.
package eventq

import (
	"container/heap"
	"errors"
	"fmt"
)

// Handler runs when its event fires. It may schedule further events.
type Handler func(now float64)

// inRing is the idx of a ticker event queued live in its tick ring.
const inRing = -2

type event struct {
	at  float64
	seq uint64 // tie-break: FIFO among equal timestamps
	fn  Handler
	idx int // heap position, or inRing; -1 once fired or cancelled
}

// before is the calendar order: time, then scheduling sequence.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	e.idx = -1
	return e
}

// tickRing is the FIFO of the armed ticks of every ticker with one
// period. It needs no ordering work because it is already sorted by
// (at, seq): every tick is armed at at = now+period, now never
// decreases between two arms (Run fires in order and AdvanceTo only
// moves forward), rounding makes float now+period monotone in now, and
// seq only increases. So appending at the tail keeps the ring sorted.
//
// A stopped ticker's slot stays in place, marked dead (idx -1), until
// it reaches the head; the ring is compacted when its dead slots
// outnumber its live ones, so it holds O(live) slots.
type tickRing struct {
	period float64
	q      []*event // q[head:] are the queued ticks, earliest first
	head   int
	live   int // queued ticks not stopped
	dead   int // stopped ticks still in q[head:]
}

func (r *tickRing) push(e *event) {
	// Reuse the popped prefix and dead slots before growing, once they
	// are at least half the slice.
	if len(r.q) == cap(r.q) && 2*(r.head+r.dead) >= len(r.q) {
		r.compact()
	}
	r.q = append(r.q, e)
	r.live++
}

// front returns the earliest live tick, or nil, dropping the dead
// slots that reached the head.
func (r *tickRing) front() *event {
	for r.head < len(r.q) {
		if e := r.q[r.head]; e.idx == inRing {
			return e
		}
		r.q[r.head] = nil
		r.head++
		r.dead--
	}
	r.q, r.head = r.q[:0], 0
	return nil
}

// pop removes the tick front returned.
func (r *tickRing) pop() {
	r.q[r.head].idx = -1
	r.q[r.head] = nil
	r.head++
	r.live--
	if r.head == len(r.q) {
		r.q, r.head = r.q[:0], 0
	}
}

// compact moves the live slots to the front of q, in order.
func (r *tickRing) compact() {
	n := 0
	for _, e := range r.q[r.head:] {
		if e.idx == inRing {
			r.q[n] = e
			n++
		}
	}
	clear(r.q[n:])
	r.q, r.head, r.dead = r.q[:n], 0, 0
}

// Sim is the simulator clock and event calendar. Not safe for
// concurrent use: a simulation is a single logical thread.
type Sim struct {
	now      float64
	seq      uint64
	heap     eventHeap   // one-shot events
	rings    []*tickRing // one per distinct ticker period
	ringLive int         // live ticks across rings
	stopped  bool
}

// New returns a simulator at time 0.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Timer identifies a scheduled event for cancellation.
type Timer struct{ e *event }

// At schedules fn at absolute time t. Scheduling in the past is an
// error (events must not violate causality).
func (s *Sim) At(t float64, fn Handler) (Timer, error) {
	if fn == nil {
		return Timer{}, errors.New("eventq: nil handler")
	}
	if t < s.now {
		return Timer{}, fmt.Errorf("eventq: schedule at %v before now %v", t, s.now)
	}
	e := &event{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.heap, e)
	return Timer{e: e}, nil
}

// After schedules fn delay seconds from now.
func (s *Sim) After(delay float64, fn Handler) (Timer, error) {
	if delay < 0 {
		return Timer{}, fmt.Errorf("eventq: negative delay %v", delay)
	}
	return s.At(s.now+delay, fn)
}

// Cancel prevents an At/After event from firing. The event is removed
// from the heap immediately — O(log n) — and its handler closure
// released, so cancelled events never pin memory until their fire
// time. Cancelling a fired or already-cancelled timer is a no-op.
// Tickers are stopped with the function EveryUntil returns.
func (s *Sim) Cancel(t Timer) {
	if t.e == nil || t.e.idx < 0 {
		return
	}
	heap.Remove(&s.heap, t.e.idx)
	t.e.fn = nil
}

// Stop halts Run after the current event returns.
func (s *Sim) Stop() { s.stopped = true }

// next returns the earliest live event and the ring queuing it (nil
// for the heap), or a nil event if the calendar is empty.
func (s *Sim) next() (*event, *tickRing) {
	var e *event
	if len(s.heap) > 0 {
		e = s.heap[0]
	}
	var from *tickRing
	for _, r := range s.rings {
		if t := r.front(); t != nil && (e == nil || t.before(e)) {
			e, from = t, r
		}
	}
	return e, from
}

// Run drains events until the calendar empties, the horizon passes, or
// Stop is called. Events at exactly the horizon still fire. It returns
// the number of events executed.
func (s *Sim) Run(horizon float64) int {
	s.stopped = false
	executed := 0
	for !s.stopped {
		e, r := s.next()
		if e == nil || e.at > horizon {
			break
		}
		if r != nil {
			r.pop()
			s.ringLive--
		} else {
			heap.Pop(&s.heap)
		}
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
func (s *Sim) AdvanceTo(t float64) {
	if t > s.now {
		s.now = t
	}
}

// Pending returns the number of scheduled events — O(1). Cancelled
// events and stopped tickers are not counted.
func (s *Sim) Pending() int { return len(s.heap) + s.ringLive }

// Len is Pending under the name the shard engine uses.
func (s *Sim) Len() int { return s.Pending() }

// NextAt returns the timestamp of the earliest pending event, or false
// if the calendar is empty.
func (s *Sim) NextAt() (float64, bool) {
	e, _ := s.next()
	if e == nil {
		return 0, false
	}
	return e.at, true
}

// EveryUntil schedules fn at now+period, then every period seconds,
// until the simulation stops or the returned stop function is called.
// The ticker allocates once, here: each tick re-arms the same event
// into the tick ring of its period. Stopping is O(1) and releases the
// armed tick, so the calendar holds no live residue from a stopped
// ticker; stopping from inside fn ends the ticker after this tick.
func (s *Sim) EveryUntil(period float64, fn Handler) (stop func(), err error) {
	if !(period > 0) {
		return nil, fmt.Errorf("eventq: period %v is not positive", period)
	}
	r := s.ring(period)
	e := &event{idx: -1}
	stopped := false
	var tick Handler
	tick = func(now float64) {
		fn(now)
		if !stopped {
			s.arm(r, e, tick)
		}
	}
	s.arm(r, e, tick)
	return func() {
		if !stopped {
			stopped = true
			s.disarm(r, e)
		}
	}, nil
}

// ring returns the tick ring of period, creating it on first use.
func (s *Sim) ring(period float64) *tickRing {
	for _, r := range s.rings {
		if r.period == period {
			return r
		}
	}
	r := &tickRing{period: period}
	s.rings = append(s.rings, r)
	return r
}

// arm queues e to fire fn one period from now.
func (s *Sim) arm(r *tickRing, e *event, fn Handler) {
	e.at, e.seq, e.fn, e.idx = s.now+r.period, s.seq, fn, inRing
	s.seq++
	r.push(e)
	s.ringLive++
}

// disarm marks e's queued tick dead. A tick that is firing right now
// is not queued; its ticker simply does not re-arm.
func (s *Sim) disarm(r *tickRing, e *event) {
	if e.idx != inRing {
		return
	}
	e.idx, e.fn = -1, nil
	r.live--
	r.dead++
	s.ringLive--
	if r.dead > r.live {
		r.compact()
	}
}
