package eventq

import (
	"math"
	"testing"
)

func TestOrderedExecution(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func(float64) { order = append(order, 3) })
	s.At(1, func(float64) { order = append(order, 1) })
	s.At(2, func(float64) { order = append(order, 2) })
	if n := s.Run(10); n != 3 {
		t.Fatalf("executed %d", n)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if s.Now() != 10 {
		t.Fatalf("clock %v, want horizon 10", s.Now())
	}
}

func TestFIFOAmongTies(t *testing.T) {
	s := New()
	var order []string
	s.At(1, func(float64) { order = append(order, "a") })
	s.At(1, func(float64) { order = append(order, "b") })
	s.At(1, func(float64) { order = append(order, "c") })
	s.Run(5)
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("tie order %v", order)
	}
}

func TestHandlersScheduleMore(t *testing.T) {
	s := New()
	count := 0
	var chain Handler
	chain = func(now float64) {
		count++
		if count < 5 {
			s.After(1, chain)
		}
	}
	s.At(0, chain)
	s.Run(100)
	if count != 5 {
		t.Fatalf("chain executed %d times", count)
	}
	if s.Now() != 100 {
		t.Fatalf("clock %v", s.Now())
	}
}

func TestHorizonRespected(t *testing.T) {
	s := New()
	fired := false
	s.At(5, func(float64) { fired = true })
	s.Run(4)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if s.Now() != 4 {
		t.Fatalf("clock %v", s.Now())
	}
	// Event at exactly the horizon fires.
	s.Run(5)
	if !fired {
		t.Fatal("event at horizon did not fire")
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	timer, err := s.At(1, func(float64) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(timer)
	s.Cancel(timer) // idempotent
	if n := s.Run(10); n != 0 {
		t.Fatalf("executed %d cancelled events", n)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.Pending() != 0 {
		t.Fatalf("pending %d", s.Pending())
	}
}

func TestPastSchedulingRejected(t *testing.T) {
	s := New()
	s.At(5, func(float64) {})
	s.Run(5)
	if _, err := s.At(3, func(float64) {}); err == nil {
		t.Fatal("past scheduling accepted")
	}
	if _, err := s.After(-1, func(float64) {}); err == nil {
		t.Fatal("negative delay accepted")
	}
	if _, err := s.At(6, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(float64(i), func(float64) {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run(100)
	if count != 3 {
		t.Fatalf("executed %d, want 3", count)
	}
	// Remaining events still pending; a further Run picks them up.
	s.Run(100)
	if count != 10 {
		t.Fatalf("after resume executed %d", count)
	}
}

func TestNowDuringHandler(t *testing.T) {
	s := New()
	var seen float64
	s.At(7.5, func(now float64) { seen = s.Now() })
	s.Run(10)
	if seen != 7.5 {
		t.Fatalf("Now inside handler = %v", seen)
	}
}

func TestEveryUntil(t *testing.T) {
	s := New()
	ticks := 0
	stop, err := s.EveryUntil(1, func(now float64) {
		ticks++
		if ticks == 5 {
			s.Stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = stop
	s.Run(100)
	if ticks != 5 {
		t.Fatalf("ticks %d", ticks)
	}
}

func TestEveryUntilStop(t *testing.T) {
	s := New()
	ticks := 0
	stop, _ := s.EveryUntil(1, func(now float64) { ticks++ })
	s.Run(3.5)
	stop()
	s.Run(10)
	if ticks != 3 {
		t.Fatalf("ticks after stop %d, want 3", ticks)
	}
}

func TestEveryUntilValidation(t *testing.T) {
	s := New()
	if _, err := s.EveryUntil(0, func(float64) {}); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := s.EveryUntil(math.NaN(), func(float64) {}); err == nil {
		t.Fatal("NaN period accepted")
	}
}

func TestPendingCount(t *testing.T) {
	s := New()
	a, _ := s.At(1, func(float64) {})
	s.At(2, func(float64) {})
	if s.Pending() != 2 {
		t.Fatalf("pending %d", s.Pending())
	}
	s.Cancel(a)
	if s.Pending() != 1 {
		t.Fatalf("pending after cancel %d", s.Pending())
	}
}

func TestManyEvents(t *testing.T) {
	s := New()
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		s.At(float64(i%1000), func(float64) { count++ })
	}
	if got := s.Run(1000); got != n {
		t.Fatalf("executed %d", got)
	}
	if count != n {
		t.Fatalf("count %d", count)
	}
}

// TestCancelReleasesMemory is the leak regression for the old
// lazy-deletion Cancel: schedule and immediately cancel a million
// far-future timers and assert the calendar stays bounded. Under lazy
// deletion every dead event (and its closure) stayed resident until
// its fire time; with eager heap.Remove the calendar returns to its
// pre-schedule size.
func TestCancelReleasesMemory(t *testing.T) {
	s := New()
	// One long-lived event so the heap is never trivially empty.
	s.At(1e12, func(float64) {})
	const n = 1_000_000
	for i := 0; i < n; i++ {
		payload := make([]byte, 64) // closure baggage a leak would pin
		tm, err := s.At(1e9+float64(i), func(float64) { _ = payload })
		if err != nil {
			t.Fatal(err)
		}
		s.Cancel(tm)
		if p := s.Pending(); p > 2 {
			t.Fatalf("heap grew to %d live events after cancel %d", p, i)
		}
	}
	if p := s.Pending(); p != 1 {
		t.Fatalf("pending %d after 1M schedule+cancel, want 1", p)
	}
}

// TestCancelMidHeap removes an event from the middle of the heap and
// checks ordering of the survivors is preserved (heap.Remove path).
func TestCancelMidHeap(t *testing.T) {
	s := New()
	var order []int
	var timers []Timer
	for i := 0; i < 100; i++ {
		i := i
		tm, _ := s.At(float64(i), func(float64) { order = append(order, i) })
		timers = append(timers, tm)
	}
	for i := 0; i < 100; i += 3 {
		s.Cancel(timers[i])
	}
	s.Run(100)
	want := 0
	for _, got := range order {
		for want%3 == 0 {
			want++
		}
		if got != want {
			t.Fatalf("fired %d, want %d", got, want)
		}
		want++
	}
	if len(order) != 66 {
		t.Fatalf("fired %d events, want 66", len(order))
	}
}

// TestCancelAfterFire: cancelling a timer whose event already fired
// must not disturb the calendar (idx is -1 by then).
func TestCancelAfterFire(t *testing.T) {
	s := New()
	tm, _ := s.At(1, func(float64) {})
	s.At(2, func(float64) {})
	s.Run(1)
	s.Cancel(tm) // already fired
	if s.Pending() != 1 {
		t.Fatalf("pending %d, want 1", s.Pending())
	}
	if n := s.Run(10); n != 1 {
		t.Fatalf("executed %d, want 1", n)
	}
}

// TestHorizonBoundaryProperty: for a spread of horizons, every event
// with at <= horizon fires (inclusive boundary) and none beyond it.
func TestHorizonBoundaryProperty(t *testing.T) {
	for _, horizon := range []float64{0, 0.5, 1, 2.25, 3, 7, 10} {
		s := New()
		fired := make(map[float64]bool)
		times := []float64{0, 0.5, 1, 2.25, 3, 6.999, 7, 7.0001, 10}
		for _, at := range times {
			at := at
			s.At(at, func(float64) { fired[at] = true })
		}
		s.Run(horizon)
		for _, at := range times {
			want := at <= horizon
			if fired[at] != want {
				t.Fatalf("horizon %v: event at %v fired=%v want %v", horizon, at, fired[at], want)
			}
		}
		if s.Now() != horizon {
			t.Fatalf("horizon %v: clock %v", horizon, s.Now())
		}
	}
}

// TestStopClockAcrossRuns: Stop freezes the clock at the stopping
// event's time; a subsequent Run resumes from there and advances to
// its own horizon, keeping time contiguous and monotone.
func TestStopClockAcrossRuns(t *testing.T) {
	s := New()
	s.At(2, func(float64) { s.Stop() })
	s.At(5, func(float64) {})
	s.Run(10)
	if s.Now() != 2 {
		t.Fatalf("clock after Stop %v, want 2 (no advance to horizon)", s.Now())
	}
	// Resume: the event at 5 fires, then the clock advances to the new
	// horizon.
	if n := s.Run(8); n != 1 {
		t.Fatalf("resume executed %d, want 1", n)
	}
	if s.Now() != 8 {
		t.Fatalf("clock after resume %v, want 8", s.Now())
	}
	// Idle run on an empty calendar still advances time.
	s.Run(20)
	if s.Now() != 20 {
		t.Fatalf("clock after idle run %v, want 20", s.Now())
	}
	// Scheduling before the advanced clock is causality violation.
	if _, err := s.At(15, func(float64) {}); err == nil {
		t.Fatal("past scheduling accepted after clock advance")
	}
}

// TestEveryUntilStopCancelsTimer: stopping a ticker must cancel its
// in-flight timer so the calendar holds no residue.
func TestEveryUntilStopCancelsTimer(t *testing.T) {
	s := New()
	ticks := 0
	stop, _ := s.EveryUntil(1, func(float64) { ticks++ })
	s.Run(3.5)
	if s.Pending() != 1 {
		t.Fatalf("pending before stop %d, want 1 (the re-armed tick)", s.Pending())
	}
	stop()
	stop() // idempotent
	if s.Pending() != 0 {
		t.Fatalf("pending after stop %d, want 0 — stop leaked the in-flight timer", s.Pending())
	}
	s.Run(10)
	if ticks != 3 {
		t.Fatalf("ticks after stop %d, want 3", ticks)
	}
}

// TestCancelInsideEveryUntil: calling stop from within the tick
// handler itself must halt the ticker without re-arming.
func TestCancelInsideEveryUntil(t *testing.T) {
	s := New()
	ticks := 0
	var stop func()
	stop, _ = s.EveryUntil(1, func(float64) {
		ticks++
		if ticks == 2 {
			stop()
		}
	})
	s.Run(10)
	if ticks != 2 {
		t.Fatalf("ticks %d, want 2", ticks)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending %d after in-handler stop, want 0", s.Pending())
	}
}

func TestNextAtLen(t *testing.T) {
	s := New()
	if _, ok := s.NextAt(); ok {
		t.Fatal("NextAt on empty calendar reported an event")
	}
	if s.Len() != 0 {
		t.Fatalf("Len %d", s.Len())
	}
	s.At(5, func(float64) {})
	tm, _ := s.At(3, func(float64) {})
	if at, ok := s.NextAt(); !ok || at != 3 {
		t.Fatalf("NextAt = %v,%v want 3,true", at, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("Len %d, want 2", s.Len())
	}
	s.Cancel(tm)
	if at, ok := s.NextAt(); !ok || at != 5 {
		t.Fatalf("NextAt after cancel = %v,%v want 5,true", at, ok)
	}
}
