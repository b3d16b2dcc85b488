package eventq

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"mudi/internal/xrand"
)

// calendar is the surface a random program drives; ringCal and refCal
// adapt the tick-ring Sim and the heap-only referenceSim to it.
type calendar interface {
	Now() float64
	at(t float64, fn Handler) (cancel func(), err error)
	after(d float64, fn Handler) (cancel func(), err error)
	EveryUntil(period float64, fn Handler) (stop func(), err error)
	Stop()
	Run(horizon float64) int
	AdvanceTo(t float64)
	Pending() int
	NextAt() (float64, bool)
}

type ringCal struct{ *Sim }

func (c ringCal) at(t float64, fn Handler) (func(), error) {
	tm, err := c.At(t, fn)
	return func() { c.Cancel(tm) }, err
}

func (c ringCal) after(d float64, fn Handler) (func(), error) {
	tm, err := c.After(d, fn)
	return func() { c.Cancel(tm) }, err
}

type refCal struct{ *referenceSim }

func (c refCal) at(t float64, fn Handler) (func(), error) {
	tm, err := c.At(t, fn)
	return func() { c.Cancel(tm) }, err
}

func (c refCal) after(d float64, fn Handler) (func(), error) {
	tm, err := c.After(d, fn)
	return func() { c.Cancel(tm) }, err
}

// programLog is everything a program observes of its calendar: each
// firing as (time bits, handler id), the return of every Run, and
// Pending/NextAt after every top-level step.
type programLog struct {
	fires   [][2]uint64
	runs    []int
	pending []int
	next    []uint64
}

// runProgram plays the random program seed names against c. The program
// mixes one-shots (some tied exactly with a ticker's next tick),
// tickers over 1–3 distinct periods (one inexact, 0.1), tickers
// started and stopped from inside handlers, Cancel, Stop, AdvanceTo and
// Run to varied horizons. Its choices come from one stream consumed in
// firing order, so two calendars with the same firing order play the
// same program.
func runProgram(seed uint64, c calendar) programLog {
	rng := xrand.New(seed)
	all := []float64{0.1, 1, 0.25, 0.5, 2, 0.3}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if rng.Intn(2) == 0 {
		// Half the programs are sure to tick with the inexact period.
		i := slices.Index(all, 0.1)
		all[0], all[i] = all[i], all[0]
	}
	periods := all[:1+rng.Intn(3)]

	var log programLog
	var cancels, stops []func()
	nextID := uint64(0)
	budget := 300 // bounds the work handlers spawn

	var act func(inHandler bool)
	record := func(id uint64) Handler {
		return func(now float64) {
			log.fires = append(log.fires, [2]uint64{math.Float64bits(now), id})
			if budget > 0 && rng.Float64() < 0.35 {
				budget--
				act(true)
			}
		}
	}
	act = func(inHandler bool) {
		now := c.Now()
		p := periods[rng.Intn(len(periods))]
		switch op := rng.Intn(9); {
		case op <= 1:
			// A one-shot, often exactly at a ticker's next tick.
			var t float64
			switch rng.Intn(4) {
			case 0:
				t = now
			case 1:
				t = now + p
			case 2:
				t = now + float64(1+rng.Intn(3))*p
			default:
				t = now + rng.Range(0, 3)
			}
			nextID++
			cancel, err := c.at(t, record(nextID))
			if err != nil {
				panic(err)
			}
			cancels = append(cancels, cancel)
		case op == 2:
			nextID++
			cancel, err := c.after(rng.Range(0, 2), record(nextID))
			if err != nil {
				panic(err)
			}
			cancels = append(cancels, cancel)
		case op <= 4:
			nextID++
			stop, err := c.EveryUntil(p, record(nextID))
			if err != nil {
				panic(err)
			}
			stops = append(stops, stop)
		case op <= 6:
			// Stop a ticker: any, including the one firing now.
			if len(stops) > 0 {
				stops[rng.Intn(len(stops))]()
			}
		case op == 7:
			if len(cancels) > 0 {
				cancels[rng.Intn(len(cancels))]()
			}
		default:
			if inHandler {
				c.Stop()
			}
		}
	}
	observe := func() {
		log.pending = append(log.pending, c.Pending())
		at, ok := c.NextAt()
		if !ok {
			at = math.Inf(-1)
		}
		log.next = append(log.next, math.Float64bits(at))
	}

	for step, steps := 0, 20+rng.Intn(40); step < steps; step++ {
		now := c.Now()
		switch rng.Intn(6) {
		case 0, 1, 2:
			act(false)
		case 3:
			// AdvanceTo within its contract: never past the next event.
			t := now + rng.Range(0, 2)
			if at, ok := c.NextAt(); ok && at < t {
				t = now + rng.Float64()*(at-now)
				if rng.Intn(2) == 0 {
					t = at
				}
			}
			c.AdvanceTo(t)
		default:
			var h float64
			switch rng.Intn(4) {
			case 0:
				h = now
			case 1:
				if at, ok := c.NextAt(); ok {
					h = at
				}
			case 2:
				h = now + float64(1+rng.Intn(5))*periods[0]
			default:
				h = now + rng.Range(0, 4)
			}
			log.runs = append(log.runs, c.Run(h))
		}
		observe()
	}
	// Drain a last stretch so every queued tick order is exercised.
	log.runs = append(log.runs, c.Run(c.Now()+3))
	observe()
	return log
}

// TestRingMatchesReferenceProperty: random programs fire the same
// handlers at the same time bits, in the same order, on the tick-ring
// calendar and on the heap-only reference, and leave the same
// Pending/NextAt after every step.
func TestRingMatchesReferenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		got := runProgram(seed, ringCal{New()})
		want := runProgram(seed, refCal{newReferenceSim()})
		if !slices.Equal(got.fires, want.fires) || !slices.Equal(got.runs, want.runs) ||
			!slices.Equal(got.pending, want.pending) || !slices.Equal(got.next, want.next) {
			t.Logf("seed %d: %d/%d fires, runs %v/%v, pending %v/%v",
				seed, len(got.fires), len(want.fires), got.runs, want.runs, got.pending, want.pending)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestTickerWindowsAllocateNothing pins the per-tick cost: once a
// calendar of 512 one-period tickers is warm, 100 windows of ticks
// allocate nothing.
func TestTickerWindowsAllocateNothing(t *testing.T) {
	s := New()
	ticks := 0
	for i := 0; i < 512; i++ {
		if _, err := s.EveryUntil(1, func(float64) { ticks++ }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(s.Now() + 100) // grow the ring to its steady size
	if n := testing.AllocsPerRun(10, func() { s.Run(s.Now() + 100) }); n != 0 {
		t.Fatalf("100 windows of 512 tickers allocate %v per run, want 0", n)
	}
	if want := 512 * 100 * 12; ticks != want {
		t.Fatalf("ticks %d, want %d", ticks, want)
	}
}

// TestStopStormKeepsRingBounded is TestCancelReleasesMemory for
// tickers: a million EveryUntil+stop pairs without advancing the clock
// leave the ring holding O(live) slots.
func TestStopStormKeepsRingBounded(t *testing.T) {
	s := New()
	// Two long-lived tickers so the ring is never trivially empty.
	for i := 0; i < 2; i++ {
		if _, err := s.EveryUntil(1, func(float64) {}); err != nil {
			t.Fatal(err)
		}
	}
	r := s.rings[0]
	const n = 1_000_000
	for i := 0; i < n; i++ {
		payload := make([]byte, 64) // closure baggage a leak would pin
		stop, err := s.EveryUntil(1, func(float64) { _ = payload })
		if err != nil {
			t.Fatal(err)
		}
		stop()
		if q := len(r.q) - r.head; q > 5 {
			t.Fatalf("ring holds %d slots for 2 live tickers after stop %d", q, i)
		}
	}
	if p := s.Pending(); p != 2 {
		t.Fatalf("pending %d after 1M start+stop, want 2", p)
	}
	if c := cap(r.q); c > 8 {
		t.Fatalf("ring capacity %d after 1M start+stop with 2 live tickers", c)
	}
	if len(s.rings) != 1 {
		t.Fatalf("%d rings for one period", len(s.rings))
	}
}

// TestTickerRingAndHeapTies: a one-shot scheduled after a ticker armed
// for the same instant fires after it, and one scheduled before fires
// before it — the (time, sequence) order across heap and ring.
func TestTickerRingAndHeapTies(t *testing.T) {
	s := New()
	var order []string
	s.At(1, func(float64) { order = append(order, "early") })
	stop, _ := s.EveryUntil(1, func(float64) { order = append(order, "tick") })
	s.At(1, func(float64) { order = append(order, "late") })
	s.Run(1)
	stop()
	if want := []string{"early", "tick", "late"}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}
