// Package span is the control-plane record layer. Every control action
// the cluster takes — a retune and its BO probes, a shadow-instance
// rescale, a migration, a memory swap, a device outage, failover and
// recovery, an SLO violation or load shed — is one Record in one
// bounded Log. The Log renders two views of the same stream: the
// structured event log (obs.Event: the NDJSON `-events` view and the
// Observer feed) and the causal span trace (Span, parent/child linked,
// exported as Chrome trace-event JSON). The Attributor reads the same
// stream to classify every SLO violation's dominant cause.
//
// A nil *Log records nothing, every method is nil-receiver-safe, and
// hot paths guard each emission with a single `if log != nil` branch so
// the disabled path costs no argument construction (pinned by
// BenchmarkSimTraceOff and a testing.AllocsPerRun test).
//
// Recording is passive by contract: it must never perturb simulation
// results. Timestamps are simulation seconds — never wall clock — so
// both views are deterministic for a fixed seed at any worker count.
package span

import (
	"encoding/json"
	"fmt"
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

// ID identifies a span within one run: the span's ordinal in the span
// view, from 1. 0 means "no span" (a Parent past the view's cap).
type ID uint64

// Span is one causal interval in simulated time.
type Span struct {
	ID      ID      `json:"id"`
	Parent  ID      `json:"parent,omitempty"`
	Kind    Kind    `json:"kind"`
	Start   float64 `json:"start"` // sim seconds
	End     float64 `json:"end"`   // sim seconds
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

// DefSpanCap caps a run's span view (see Log); spans past it are
// counted as dropped.
const DefSpanCap = 1 << 17
