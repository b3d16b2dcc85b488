package shard

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSplit(t *testing.T) {
	cases := []struct {
		n, lanes int
		want     [][2]int
	}{
		{10, 1, [][2]int{{0, 10}}},
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{4, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{3, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}}}, // clamped to n
		{5, 0, [][2]int{{0, 5}}},                 // clamped to 1
	}
	for _, c := range cases {
		got := Split(c.n, c.lanes)
		if len(got) != len(c.want) {
			t.Fatalf("Split(%d,%d) = %v, want %v", c.n, c.lanes, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Split(%d,%d) = %v, want %v", c.n, c.lanes, got, c.want)
			}
		}
	}
}

func TestDefault(t *testing.T) {
	if got := Default(1); got != 1 {
		t.Fatalf("Default(1) = %d", got)
	}
	if got := Default(63); got != 1 {
		t.Fatalf("Default(63) = %d", got)
	}
	if got := Default(128); got < 1 || got > 2 {
		t.Fatalf("Default(128) = %d, want 1..2 (min(GOMAXPROCS, 2))", got)
	}
}

func TestNewRejects(t *testing.T) {
	if _, err := New(0, 1, 1, 1); err == nil {
		t.Error("New accepted zero devices")
	}
	for _, w := range []float64{0, -1} {
		if _, err := New(4, 1, 1, w); err == nil {
			t.Errorf("New accepted window %v", w)
		}
	}
}

// toy is a toy fleet on an engine: each device's window bumps a
// device-owned counter and posts two mail entries that append to the
// shared log; the events and the tick append too. The log is
// the observable whose byte-identity across lane and worker counts is
// the engine's whole contract.
type toy struct {
	e        *Engine
	log      []string
	counters []int
	events   []Event
}

func newToy(t *testing.T, n, lanes, workers int) *toy {
	t.Helper()
	e, err := New(n, lanes, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	y := &toy{e: e, counters: make([]int, n)}
	for _, ev := range []struct {
		at  float64
		tag string
	}{{1.5, "a"}, {2.5, "b"}, {2.5, "c"}, {3, "d"}, {3, "e"}} {
		y.events = append(y.events, Event{At: ev.at, Fn: func(now float64) { y.logf("event %s @%g", ev.tag, now) }})
	}
	return y
}

func (y *toy) logf(format string, args ...any) { y.log = append(y.log, fmt.Sprintf(format, args...)) }

// step is the toy's device window: lane-local work plus mail.
func (y *toy) step(l *Lane, d int, now float64) {
	y.counters[d]++ // device-owned state: safe under a parallel step
	v := y.counters[d]
	for k := 0; k < 2; k++ {
		l.Post(func(at float64) { y.logf("mail d%d c%d #%d @%g", d, v, k, at) })
	}
}

func (y *toy) tick(now float64) { y.logf("tick @%g", now) }

func (y *toy) run(horizon float64) []string {
	y.e.Run(horizon, y.events, y.step, y.tick)
	return y.log
}

// TestLaneCountInvariance is the engine-level determinism golden: the
// same toy fleet produces a byte-identical log at every lane and
// worker count.
func TestLaneCountInvariance(t *testing.T) {
	const n, horizon = 8, 5.0
	want := newToy(t, n, 1, 1).run(horizon)
	if len(want) == 0 {
		t.Fatal("toy run produced no log")
	}
	for _, c := range []struct{ lanes, workers int }{{2, 1}, {4, 1}, {4, 4}, {8, 3}} {
		got := newToy(t, n, c.lanes, c.workers).run(horizon)
		if !slices.Equal(got, want) {
			t.Fatalf("lanes=%d workers=%d:\n%v\nwant\n%v", c.lanes, c.workers, got, want)
		}
	}
}

// TestBarrierPhaseOrder: at one window end the devices step, then the
// mail applies, then the events at that time fire in input order, then
// the tick.
func TestBarrierPhaseOrder(t *testing.T) {
	y := newToy(t, 2, 2, 1)
	step := y.step
	y.e.Run(1, []Event{
		{At: 1, Fn: func(now float64) { y.logf("event x @%g", now) }},
		{At: 1, Fn: func(now float64) { y.logf("event y @%g", now) }},
	}, func(l *Lane, d int, now float64) {
		y.logf("window d%d @%g", d, now) // one worker: the step is sequential
		step(l, d, now)
	}, y.tick)
	want := []string{
		"window d0 @1", "window d1 @1",
		"mail d0 c1 #0 @1", "mail d0 c1 #1 @1",
		"mail d1 c1 #0 @1", "mail d1 c1 #1 @1",
		"event x @1", "event y @1",
		"tick @1",
	}
	if !slices.Equal(y.log, want) {
		t.Fatalf("phase order\n%v\nwant\n%v", y.log, want)
	}
}

// TestMailboxOrdering: mail posted by lanes stepping in parallel
// applies in device order and, per device, in emission order, with now
// = the barrier time.
func TestMailboxOrdering(t *testing.T) {
	y := newToy(t, 5, 3, 3)
	y.e.Run(1, nil, y.step, func(float64) {})
	var want []string
	for d := 0; d < 5; d++ {
		want = append(want, fmt.Sprintf("mail d%d c1 #0 @1", d), fmt.Sprintf("mail d%d c1 #1 @1", d))
	}
	if !slices.Equal(y.log, want) {
		t.Fatalf("mail order\n%v\nwant\n%v", y.log, want)
	}
}

type barrierLog struct {
	at     []float64
	lanes  [][]int
	helped []int
}

func (p *barrierLog) Barrier(at float64, _, _ time.Duration, _ int, laneEvents []int, helperLanes int, _ time.Duration) {
	p.at = append(p.at, at)
	p.lanes = append(p.lanes, slices.Clone(laneEvents))
	p.helped = append(p.helped, helperLanes)
}

// TestEventOnlyBarrier: an event between two window ends runs alone —
// no device steps, no mail, no tick — and same-time events
// fire in input order. The profiler still sees the barrier, with no
// lane counts.
func TestEventOnlyBarrier(t *testing.T) {
	y := newToy(t, 4, 2, 2)
	prof := &barrierLog{}
	y.e.SetProfiler(prof)
	y.e.Run(2, []Event{
		{At: 0.5, Fn: func(now float64) { y.logf("event p @%g counters %v", now, y.counters) }},
		{At: 0.5, Fn: func(now float64) { y.logf("event q @%g", now) }},
		{At: 1.25, Fn: func(now float64) { y.logf("event r @%g counters %v", now, y.counters) }},
	}, y.step, y.tick)
	want := []string{
		"event p @0.5 counters [0 0 0 0]",
		"event q @0.5",
		"mail d0 c1 #0 @1", "mail d0 c1 #1 @1",
		"mail d1 c1 #0 @1", "mail d1 c1 #1 @1",
		"mail d2 c1 #0 @1", "mail d2 c1 #1 @1",
		"mail d3 c1 #0 @1", "mail d3 c1 #1 @1",
		"tick @1",
		"event r @1.25 counters [1 1 1 1]",
		"mail d0 c2 #0 @2", "mail d0 c2 #1 @2",
		"mail d1 c2 #0 @2", "mail d1 c2 #1 @2",
		"mail d2 c2 #0 @2", "mail d2 c2 #1 @2",
		"mail d3 c2 #0 @2", "mail d3 c2 #1 @2",
		"tick @2",
	}
	if !slices.Equal(y.log, want) {
		t.Fatalf("log\n%v\nwant\n%v", y.log, want)
	}
	if want := []float64{0.5, 1, 1.25, 2}; !slices.Equal(prof.at, want) {
		t.Fatalf("profiled barriers %v, want %v", prof.at, want)
	}
	for i, want := range [][]int{nil, {2, 2}, nil, {2, 2}} {
		if !slices.Equal(prof.lanes[i], want) {
			t.Fatalf("barrier @%g lane counts %v, want %v", prof.at[i], prof.lanes[i], want)
		}
	}
}

// TestStopFromTick: Stop from the tick halts the run at that barrier
// with the clock there; no later window or event runs.
func TestStopFromTick(t *testing.T) {
	y := newToy(t, 4, 2, 2)
	y.e.Run(10, y.events, y.step, func(now float64) {
		y.tick(now)
		if now == 3 {
			y.e.Stop()
		}
	})
	if got := y.e.Now(); got != 3 {
		t.Fatalf("clock %v after Stop, want 3", got)
	}
	if got := y.log[len(y.log)-1]; got != "tick @3" {
		t.Fatalf("last entry %q, want the stopping tick", got)
	}
	for d, c := range y.counters {
		if c != 3 {
			t.Fatalf("device %d stepped %d windows, want 3", d, c)
		}
	}
}

// TestClocksAligned: with nothing left at or before the horizon the
// clock moves to it. An event at the horizon fires; one past it
// does not, and neither does the window after it.
func TestClocksAligned(t *testing.T) {
	y := newToy(t, 2, 1, 1)
	fired := 0
	y.e.Run(4.5, []Event{
		{At: 4.5, Fn: func(float64) { fired++ }},
		{At: 4.75, Fn: func(float64) { fired += 10 }},
	}, y.step, y.tick)
	if got := y.e.Now(); got != 4.5 {
		t.Fatalf("clock %v, want the horizon 4.5", got)
	}
	if fired != 1 {
		t.Fatalf("fired %d, want only the event at the horizon", fired)
	}
	if y.counters[0] != 4 || y.counters[1] != 4 {
		t.Fatalf("windows stepped %v, want 4 per device", y.counters)
	}
	y = newToy(t, 2, 1, 1)
	y.e.Run(7.25, nil, y.step, y.tick)
	if got := y.e.Now(); got != 7.25 || y.counters[0] != 7 {
		t.Fatalf("clock %v after %d windows, want 7.25 after 7", got, y.counters[0])
	}
}

// laneWorkers counts the goroutines running a lane worker, from a
// dump of every goroutine's stack. (runtime.NumGoroutine would also
// count runtime goroutines that come and go, such as the finalizer's.)
func laneWorkers() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "(*Engine).startWorkers.func1(")
}

// settledLaneWorkers is laneWorkers once it is 0, or after a bounded
// number of yields: a worker that has signalled its exit may not have
// finished returning yet.
func settledLaneWorkers() int {
	n := laneWorkers()
	for i := 0; n > 0 && i < 1000; i++ {
		runtime.Gosched()
		n = laneWorkers()
	}
	return n
}

// TestRunStopsLaneWorkers: whichever way Run returns — the horizon,
// Stop from the tick, an event or applied mail, or a tick that sees
// its context cancelled, as the cluster's does — no lane worker is
// left running, and the run did step with its workers alive.
func TestRunStopsLaneWorkers(t *testing.T) {
	type stepFn = func(l *Lane, dev int, now float64)
	cases := []struct {
		name string
		run  func(y *toy, step stepFn)
	}{
		{"horizon", func(y *toy, step stepFn) { y.e.Run(3, nil, step, y.tick) }},
		{"stop from the tick", func(y *toy, step stepFn) {
			y.e.Run(10, nil, step, func(now float64) {
				if now == 2 {
					y.e.Stop()
				}
			})
		}},
		{"stop from an event", func(y *toy, step stepFn) {
			y.e.Run(10, []Event{{At: 2.5, Fn: func(float64) { y.e.Stop() }}}, step, y.tick)
		}},
		{"stop from applied mail", func(y *toy, step stepFn) {
			y.e.Run(10, nil, func(l *Lane, d int, now float64) {
				step(l, d, now)
				if d == 0 && now == 2 {
					l.Post(func(float64) { y.e.Stop() })
				}
			}, y.tick)
		}},
		{"cancelled context", func(y *toy, step stepFn) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			y.e.Run(10, []Event{{At: 1.5, Fn: func(float64) { cancel() }}}, step, func(float64) {
				if ctx.Err() != nil {
					y.e.Stop()
				}
			})
		}},
	}
	for _, c := range cases {
		y := newToy(t, 8, 4, 3)
		if n := settledLaneWorkers(); n != 0 {
			t.Fatalf("%s: %d lane workers before Run", c.name, n)
		}
		during := 0
		c.run(y, func(l *Lane, d int, now float64) {
			y.counters[d]++
			if d == 0 && now == 1 {
				during = laneWorkers()
			}
		})
		if during != 2 {
			t.Fatalf("%s: %d lane workers while stepping, want 2", c.name, during)
		}
		if y.e.Now() >= 10 {
			t.Fatalf("%s: ran to %v", c.name, y.e.Now())
		}
		if n := settledLaneWorkers(); n != 0 {
			t.Fatalf("%s: %d lane workers left after Run", c.name, n)
		}
	}
}

// TestSteadyWindowAllocatesNothing: past the run's start-up, a window
// allocates nothing, stepping one lane inline or two lanes on two
// workers, with a step that posts mail bound once.
func TestSteadyWindowAllocatesNothing(t *testing.T) {
	for _, c := range []struct{ lanes, workers int }{{1, 1}, {2, 2}} {
		e, err := New(8, c.lanes, c.workers, 1)
		if err != nil {
			t.Fatal(err)
		}
		applied := 0
		mail := func(float64) { applied++ }
		step := func(l *Lane, d int, now float64) { l.Post(mail) }
		tick := func(float64) {}
		run := func(windows int) float64 {
			return testing.AllocsPerRun(5, func() { e.Run(float64(windows), nil, step, tick) })
		}
		short, long := run(2), run(202)
		if long != short {
			t.Fatalf("lanes=%d workers=%d: a run allocates %v objects over 2 windows, %v over 202", c.lanes, c.workers, short, long)
		}
		if applied == 0 {
			t.Fatal("no mail applied")
		}
	}
}

// TestHandoffWithoutHelpers: Run's goroutine never waits for a lane
// worker that has not claimed a lane. With every worker held off the
// lanes, Run still finishes every window, stepping every lane itself,
// and its workers still exit.
func TestHandoffWithoutHelpers(t *testing.T) {
	const horizon = 50
	y := newToy(t, 8, 4, 3)
	prof := &barrierLog{}
	y.e.SetProfiler(prof)
	y.e.hold = func() bool { return true }
	within(t, func() { y.run(horizon) })
	for d, c := range y.counters {
		if c != horizon {
			t.Fatalf("device %d stepped %d windows, want %d", d, c, horizon)
		}
	}
	for i, h := range prof.helped {
		if h != 0 {
			t.Fatalf("barrier @%g: %d lanes stepped off Run's goroutine, want 0", prof.at[i], h)
		}
	}
	if n := settledLaneWorkers(); n != 0 {
		t.Fatalf("%d lane workers left after Run", n)
	}
}

// TestHandoffCountsHelperLanes: a worker that is not held steps lanes,
// and the profile counts them. Each device's step waits until another
// goroutine has stepped a device, so no window finishes on Run's
// goroutine alone.
func TestHandoffCountsHelperLanes(t *testing.T) {
	e, err := New(4, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof := &barrierLog{}
	e.SetProfiler(prof)
	var arrived [2]atomic.Int64 // per window parity: lanes that have started
	within(t, func() {
		e.Run(20, nil, func(l *Lane, d int, now float64) {
			if d%2 == 0 {
				k := &arrived[int(now)%2]
				k.Add(1)
				for k.Load()%2 != 0 {
					runtime.Gosched()
				}
			}
		}, func(float64) {})
	})
	if len(prof.helped) != 20 {
		t.Fatalf("%d barriers profiled, want 20", len(prof.helped))
	}
	for i, h := range prof.helped {
		if h != 1 {
			t.Fatalf("barrier @%g: %d lanes stepped off Run's goroutine, want 1", prof.at[i], h)
		}
	}
}

// within runs fn, failing the test if it has not returned in 30 s: a
// step that waits for a lane nobody steps never returns.
func within(t *testing.T, fn func()) {
	t.Helper()
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		fn()
	}()
	select {
	case <-ran:
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return: it is waiting for lanes nobody steps")
	}
}
