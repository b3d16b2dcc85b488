package span

import (
	"sync"

	"mudi/internal/obs"
)

// Act enumerates the control actions a Record describes; DESIGN.md §7
// lists the events and §10 the spans each renders.
type Act uint8

const (
	ActPlaced       Act = iota // a task was placed (Value = task ID); ends its migrate interval
	ActMigrated                // a task was checkpointed off Device and requeued; starts a migrate interval
	ActRetune                  // a tuning episode started (Cause = trigger); starts a retune interval
	ActRetuneEnd               // the episode's Configure outcome; ends Device's retune interval
	ActBOIter                  // one tuner objective evaluation inside Device's retune
	ActBatch                   // adaptive batching picked batch Value
	ActRescale                 // the GPU% moved to Value behind the shadow-instance protocol over [Time, End]
	ActSpinUpFailed            // a rescale to Value whose shadow failed to spin up over [Time, End]
	ActMemSwap                 // one memory-migration burst over [Time, End]
	ActOutage                  // fault injection took Device down; starts an outage interval
	ActFailover                // the service failed over off its failed Device
	ActRecovered               // Device came back; ends its outage interval
	ActMeasureRetry            // a transient measurement error was retried
	ActSLOViolation            // a control window closed over its budget (Value = latency ms)
	ActLoadShed                // admission control shed Value QPS

	NumActs // keep last; the number of acts
)

// acts holds each act's renderings: the type of the event it renders
// (rescales render two, BO probes and retune ends none), the kind of
// span it renders (numKinds for none) or, for an interval's end record,
// of the span it ends, and its edge: +1 starts an interval, -1 ends one.
var acts = [NumActs]struct {
	event obs.EventType
	span  Kind
	edge  int
}{
	ActPlaced:       {obs.EventTaskPlaced, KindMigrate, -1},
	ActMigrated:     {obs.EventTaskMigrated, KindMigrate, 1},
	ActRetune:       {obs.EventRetune, KindRetune, 1},
	ActRetuneEnd:    {0, KindRetune, -1},
	ActBOIter:       {0, KindBOIter, 0},
	ActBatch:        {obs.EventBatchChanged, numKinds, 0},
	ActRescale:      {obs.EventGPURescaled, KindRescale, 0},
	ActSpinUpFailed: {obs.EventFailover, KindRescale, 0},
	ActMemSwap:      {obs.EventMemSwapIn, KindMemSwap, 0},
	ActOutage:       {obs.EventDeviceFailed, KindOutage, 1},
	ActFailover:     {obs.EventFailover, numKinds, 0},
	ActRecovered:    {obs.EventDeviceRecovered, KindOutage, -1},
	ActMeasureRetry: {obs.EventMeasureRetry, numKinds, 0},
	ActSLOViolation: {obs.EventSLOViolation, numKinds, 0},
	ActLoadShed:     {obs.EventLoadShed, numKinds, 0},
}

// Record is one control action in simulated time. Interval actions
// (retune, migrate, outage) are a start record and an end record that
// the span view pairs at render time: a retune and an outage by
// Device, a migration by task ID (Value). A retune's end record carries
// the Configure outcome: Batch, Delta, Value (BO iterations) and, as
// Cause, the "infeasible" or "error" suffix for the span's cause.
type Record struct {
	Act     Act
	Time    float64 // sim seconds
	End     float64 // sim seconds; BO probes, rescales and memory swaps
	Device  string
	Service string
	Task    string
	Batch   int
	Delta   float64
	Value   float64
	Cause   string
}

// events renders the record's event view: zero, one or two events.
func (r *Record) events(emit func(obs.Event)) {
	e := obs.Event{Time: r.Time, Type: acts[r.Act].event, Device: r.Device, Service: r.Service, Value: r.Value, Cause: r.Cause}
	switch r.Act {
	case ActRetuneEnd, ActBOIter:
		return
	case ActRescale:
		emit(e)
		e.Type = obs.EventShadowSwap
	case ActMemSwap:
		if r.Cause == "to-host" {
			e.Type = obs.EventMemSwapOut
		}
		e.Service, e.Task, e.Cause = "", r.Task, ""
	case ActOutage:
		e.Cause = ""
	case ActPlaced, ActMigrated:
		e.Task = r.Task
	}
	emit(e)
}

// spans renders the record's own spans, the first under parent, and
// returns the first one's ID. An interval's start span stays open (End
// < 0) until its end record; end records render nothing here.
func (r *Record) spans(parent ID, add func(Span) ID) ID {
	a := acts[r.Act]
	if a.span == numKinds || a.edge < 0 {
		return 0
	}
	s := Span{
		Kind: a.span, Parent: parent, Start: r.Time, End: r.End, Device: r.Device, Service: r.Service,
		Task: r.Task, Batch: r.Batch, Delta: r.Delta, Value: r.Value, Cause: r.Cause,
	}
	if a.edge > 0 {
		s.End = -1
	}
	if r.Act == ActSpinUpFailed {
		s.Value = 0
	}
	id := add(s)
	// A rescale's shadow instance spins up over its window and, unless
	// it failed, swaps in at the end; a batch-only rescale has neither.
	restarted := r.Act == ActRescale && r.End > r.Time
	if restarted || r.Act == ActSpinUpFailed {
		add(Span{Kind: KindShadowSpinup, Parent: id, Start: r.Time, End: r.End, Device: r.Device, Service: r.Service, Cause: r.Cause})
	}
	if restarted {
		add(Span{Kind: KindShadowSwap, Parent: id, Start: r.End, End: r.End, Device: r.Device, Service: r.Service, Value: r.Value})
	}
	return id
}

// interval keys the pairing of an interval's start and end records.
type interval struct {
	kind   Kind
	device string
	task   float64
}

// interval returns the record's interval key and edge (0 outside any
// interval).
func (r *Record) interval() (interval, int) {
	a := acts[r.Act]
	if a.span == KindMigrate {
		return interval{kind: KindMigrate, task: r.Value}, a.edge
	}
	return interval{kind: a.span, device: r.Device}, a.edge
}

// View is one rendering's cap and tallies: Len items kept, Dropped
// past the cap. A zero Cap turns the view off.
type View struct{ Cap, Len, Dropped int }

// fit admits up to n items, counts the rest as dropped, and returns
// how many it admitted.
func (v *View) fit(n int) int {
	if v.Cap == 0 {
		return 0
	}
	kept := min(n, v.Cap-v.Len)
	v.Len += kept
	v.Dropped += n - kept
	return kept
}

// Log is a run's bounded, concurrency-safe control-plane record store.
// Each control action is one Add; Events and Spans render the two
// views, each capped and counting what its cap dropped, so a capped
// view is exactly the prefix an uncapped one would start with. The log
// stops retaining records once neither view has room, except the end
// records of the intervals its span view kept. It keeps the records it
// retains in fixed-size chunks, so Add never copies the log. The
// Observer and the Attributor see every record, capped or not. A nil
// *Log records nothing.
type Log struct {
	// Observer, when non-nil, receives every event a record renders as
	// the record is added, whatever the event view's cap.
	Observer obs.Observer

	attr *Attributor
	mu   sync.Mutex
	ev   View
	sp   View
	n    int // retained records
	recs []*[recChunk]Record
	open map[interval]bool // intervals whose start span the view kept
}

// recChunk is the number of records in one chunk of a Log's storage
// (56 KiB).
const recChunk = 512

// rec returns the i-th retained record.
func (l *Log) rec(i int) *Record { return &l.recs[i/recChunk][i%recChunk] }

// NewLog returns a log with an event view of eventCap events and a span
// view of spanCap spans (a zero cap turns that view off) that feeds
// attr (which may be nil).
func NewLog(eventCap, spanCap int, attr *Attributor) *Log {
	return &Log{attr: attr, ev: View{Cap: eventCap}, sp: View{Cap: spanCap}, open: make(map[interval]bool)}
}

// NewRunLog returns a run's default log: an event view of DefEventCap
// events when events is set, a span view of DefSpanCap spans and an
// attributor when trace is set, and nil when neither is.
func NewRunLog(events, trace bool, observer obs.Observer) *Log {
	if !events && !trace {
		return nil
	}
	l := NewLog(0, 0, nil)
	if events {
		l.ev.Cap = obs.DefEventCap
	}
	if trace {
		l.sp.Cap, l.attr = DefSpanCap, NewAttributor(0)
	}
	l.Observer = observer
	return l
}

// Attributor returns the attributor the log feeds (nil if none).
func (l *Log) Attributor() *Attributor {
	if l == nil {
		return nil
	}
	return l.attr
}

// Add records one control action.
func (l *Log) Add(r Record) {
	if l == nil {
		return
	}
	ne, ns := 0, 0
	r.events(func(e obs.Event) {
		ne++
		if l.Observer != nil {
			l.Observer(e)
		}
	})
	r.spans(0, func(Span) ID { ns++; return 0 })
	l.attr.control(&r)
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := l.ev.fit(ne) > 0
	spans := l.sp.fit(ns) > 0
	key, edge := r.interval()
	switch {
	case edge > 0 && spans:
		l.open[key] = true
	case edge < 0 && l.open[key]:
		delete(l.open, key)
		keep = true
	}
	if keep || spans {
		i := l.n % recChunk
		if i == 0 {
			l.recs = append(l.recs, new([recChunk]Record))
		}
		l.recs[len(l.recs)-1][i] = r
		l.n++
	}
}

// Views returns the event and span views' caps and tallies.
func (l *Log) Views() (events, spans View) {
	if l == nil {
		return View{}, View{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ev, l.sp
}

// Events renders the event view in emission order (nil when the view
// is off or empty).
func (l *Log) Events() []obs.Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ev.Len == 0 {
		return nil
	}
	out := make([]obs.Event, 0, l.ev.Len)
	for i := 0; i < l.n; i++ {
		l.rec(i).events(func(e obs.Event) {
			if len(out) < l.ev.Len {
				out = append(out, e)
			}
		})
	}
	return out
}

// Spans renders the span view in ID order (nil when the view is off or
// empty). Each span's ID is its ordinal; start and end records pair
// here, and intervals still open end at horizon.
func (l *Log) Spans(horizon float64) []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sp.Len == 0 {
		return nil
	}
	out := make([]Span, 0, l.sp.Len)
	add := func(s Span) ID {
		if len(out) == l.sp.Len {
			return 0
		}
		s.ID = ID(len(out) + 1)
		out = append(out, s)
		return s.ID
	}
	// open maps an interval to the span its latest start record
	// rendered (0 if the cap dropped it). A retune's entry outlives its
	// end record: BO probes and the rescale the episode applies nest
	// under the device's latest retune.
	open := make(map[interval]ID)
	for i := 0; i < l.n; i++ {
		r := l.rec(i)
		key, edge := r.interval()
		if edge >= 0 {
			var parent ID
			if r.Act == ActBOIter || r.Act == ActRescale || r.Act == ActSpinUpFailed {
				parent = open[interval{kind: KindRetune, device: r.Device}]
			}
			if id := r.spans(parent, add); edge > 0 {
				open[key] = id
			}
			continue
		}
		if id := open[key]; id != 0 && out[id-1].End < 0 {
			s := &out[id-1]
			if r.Act == ActPlaced {
				s.Task += ">" + r.Device
			} else if r.Act == ActRetuneEnd {
				s.Batch, s.Delta, s.Value = r.Batch, r.Delta, r.Value
				if r.Cause != "" {
					s.Cause += ";" + r.Cause
				}
			}
			s.End = max(r.Time, s.Start)
		}
	}
	for i := range out {
		if out[i].End < 0 {
			out[i].End = max(horizon, out[i].Start)
		}
	}
	return out
}
