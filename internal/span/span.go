// Package span is the causal tracing layer: simulated-time spans with
// parent/child links covering every control-plane operation (retune
// with bo_iter children, rescale with shadow_spinup / shadow_swap
// children, migrate, mem_swap, fault outage windows).
//
// It follows the same contract as obs.Sink: a nil *Tracer disables
// tracing, every method is nil-receiver-safe, and hot paths
// additionally guard emissions with a single `if tr != nil` branch so
// the disabled path costs no argument construction (pinned by
// BenchmarkSimTraceOff and a testing.AllocsPerRun test).
//
// Tracing is passive by contract: an enabled tracer must never perturb
// simulation results. Timestamps are simulation seconds — never wall
// clock — so span streams are deterministic for a fixed seed at any
// worker count.
package span

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Kind enumerates the span taxonomy. See DESIGN.md §10.
type Kind uint8

const (
	// KindRetune: one Monitor-triggered tuner episode (Cause says why).
	KindRetune Kind = iota
	// KindBOIter: one Bayesian-optimisation probe inside a retune
	// (Value = measured training iteration ms).
	KindBOIter
	// KindRescale: a GPU% change paying the shadow-instance protocol;
	// spans the hidden-swap window.
	KindRescale
	// KindShadowSpinup: the shadow instance warming up at the new GPU%.
	KindShadowSpinup
	// KindShadowSwap: the instantaneous traffic cutover to the shadow.
	KindShadowSwap
	// KindMigrate: a training task checkpointed off a device until its
	// re-placement (Cause carries the eviction reason).
	KindMigrate
	// KindMemSwap: one memory-migration burst device↔host
	// (Value = MB moved, Cause = "to-host" or "to-device").
	KindMemSwap
	// KindOutage: a fault-injected device outage window.
	KindOutage

	numKinds // keep last
)

var kindNames = [numKinds]string{
	KindRetune:       "retune",
	KindBOIter:       "bo_iter",
	KindRescale:      "rescale",
	KindShadowSpinup: "shadow_spinup",
	KindShadowSwap:   "shadow_swap",
	KindMigrate:      "migrate",
	KindMemSwap:      "mem_swap",
	KindOutage:       "outage",
}

// String returns the wire name of the span kind.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a wire name back into the kind.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range kindNames {
		if name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("span: unknown span kind %q", s)
}

// ID identifies a span within one Tracer. IDs are assigned
// sequentially from 1; 0 means "no span" and is safe to pass to End
// and Annotate (both no-op on it), so call sites never need to branch
// on whether a Start was dropped at capacity.
type ID uint64

// Span is one causal interval in simulated time.
type Span struct {
	ID      ID      `json:"id"`
	Parent  ID      `json:"parent,omitempty"`
	Kind    Kind    `json:"kind"`
	Start   float64 `json:"start"` // sim seconds
	End     float64 `json:"end"`   // sim seconds; -1 while open
	Device  string  `json:"device,omitempty"`
	Service string  `json:"service,omitempty"`
	// Task is the resident training-task signature at span time (task
	// names joined with "+"), or the single task for migrate/mem_swap.
	Task  string  `json:"task,omitempty"`
	Batch int     `json:"batch,omitempty"`
	Delta float64 `json:"delta,omitempty"` // inference GPU% in [0,1]
	Value float64 `json:"value,omitempty"`
	Cause string  `json:"cause,omitempty"`
}

// Dur returns the span duration in simulated seconds (0 if still
// open or degenerate).
func (s Span) Dur() float64 {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// DefSpanCap bounds the default span store. Request-lifecycle spans
// dominate (two per request plus two per batch); a physical-scale run
// stays well inside this while pathological ones are capped and
// counted as dropped.
const DefSpanCap = 1 << 17

// Tracer is a bounded, concurrency-safe span store. A nil *Tracer
// disables tracing: every method is nil-receiver-safe. IDs are handed
// out sequentially, so a single-goroutine simulation produces a
// bit-identical span stream for a fixed seed.
type Tracer struct {
	mu      sync.Mutex
	cap     int
	nextID  ID
	spans   []Span
	openIdx map[ID]int // open span ID → index in spans
	dropped uint64
}

// NewTracer returns a tracer bounded at capacity (DefSpanCap if ≤ 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefSpanCap
	}
	return &Tracer{cap: capacity, openIdx: make(map[ID]int)}
}

// Enabled reports whether the tracer is non-nil (a readability helper
// for call sites that prefer a named check over `!= nil`).
func (t *Tracer) Enabled() bool { return t != nil }

// Add records one already-complete span and returns its ID (0 if the
// tracer is nil or at capacity).
func (t *Tracer) Add(s Span) ID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.cap {
		t.dropped++
		return 0
	}
	t.nextID++
	s.ID = t.nextID
	t.spans = append(t.spans, s)
	return s.ID
}

// Start records an open span (End = -1) and returns its ID so the
// call site can End and Annotate it later. Returns 0 at capacity.
func (t *Tracer) Start(s Span) ID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.cap {
		t.dropped++
		return 0
	}
	t.nextID++
	s.ID = t.nextID
	s.End = -1
	t.spans = append(t.spans, s)
	t.openIdx[s.ID] = len(t.spans) - 1
	return s.ID
}

// End closes an open span at the given simulated time. No-op on id 0
// or an already-closed span.
func (t *Tracer) End(id ID, now float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.openIdx[id]
	if !ok {
		return
	}
	delete(t.openIdx, id)
	if now < t.spans[i].Start {
		now = t.spans[i].Start
	}
	t.spans[i].End = now
}

// Annotate mutates a recorded span in place (open or closed). No-op
// on id 0 or an unknown ID. The callback runs under the tracer lock —
// keep it short and never call back into the tracer.
func (t *Tracer) Annotate(id ID, fn func(*Span)) {
	if t == nil || id == 0 || fn == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Open spans resolve via the index; closed ones by scan from the
	// tail (annotation after close is rare and near the end).
	if i, ok := t.openIdx[id]; ok {
		fn(&t.spans[i])
		return
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			fn(&t.spans[i])
			return
		}
	}
}

// CloseOpen closes every still-open span at the given simulated time
// (the end-of-run sweep so exported traces have no dangling spans).
func (t *Tracer) CloseOpen(now float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, i := range t.openIdx {
		end := now
		if end < t.spans[i].Start {
			end = t.spans[i].Start
		}
		t.spans[i].End = end
		delete(t.openIdx, id)
	}
}

// Spans returns a copy of the recorded spans in creation (ID) order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many spans were discarded at capacity.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
