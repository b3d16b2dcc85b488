package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// EventType enumerates the structured event taxonomy — one entry per
// control-loop decision class the system can take.
type EventType uint8

// The event taxonomy. See DESIGN.md §7 for when each fires.
const (
	// EventTaskPlaced: a training task was admitted onto a device.
	EventTaskPlaced EventType = iota
	// EventTaskMigrated: a paused task was checkpointed off a device
	// and requeued for placement elsewhere.
	EventTaskMigrated
	// EventRetune: the Monitor triggered a device retune (Cause says
	// why: "qps-change", "slo-risk", "resume-probe", "placement",
	// "completion").
	EventRetune
	// EventBatchChanged: adaptive batching picked a new batch size
	// (Value = new batch).
	EventBatchChanged
	// EventGPURescaled: Eq. 4 resource scaling changed the inference
	// GPU% (Value = new delta in [0,1]).
	EventGPURescaled
	// EventShadowSwap: a GPU% change paid the shadow-instance
	// reconfiguration protocol (§5.4).
	EventShadowSwap
	// EventMemSwapOut: training memory migrated device → host
	// (Value = MB moved in this burst).
	EventMemSwapOut
	// EventMemSwapIn: training memory migrated host → device
	// (Value = MB moved in this burst).
	EventMemSwapIn
	// EventSLOViolation: a control window's measured latency exceeded
	// the budget (Value = latency ms).
	EventSLOViolation
	// EventDeviceFailed: fault injection took a device down; its
	// residents are checkpointed off and the service fails over.
	EventDeviceFailed
	// EventDeviceRecovered: a failed device came back and redeployed
	// its inference service.
	EventDeviceRecovered
	// EventMeasureRetry: a transient measurement error triggered a
	// capped-exponential-backoff retry (Value = attempt number).
	EventMeasureRetry
	// EventFailover: the inference service switched off its primary
	// instance — Cause distinguishes a device failure
	// ("device-failed") from a failed shadow spin-up
	// ("shadow-spinup-failed", where the old instance keeps serving).
	EventFailover
	// EventLoadShed: admission control dropped part of a shed-eligible
	// service's offered load during a burst (Value = shed QPS, Cause =
	// the service's SLO class).
	EventLoadShed

	numEventTypes // keep last
)

var eventTypeNames = [numEventTypes]string{
	EventTaskPlaced:      "task_placed",
	EventTaskMigrated:    "task_migrated",
	EventRetune:          "retune",
	EventBatchChanged:    "batch_changed",
	EventGPURescaled:     "gpu_rescaled",
	EventShadowSwap:      "shadow_swap",
	EventMemSwapOut:      "mem_swap_out",
	EventMemSwapIn:       "mem_swap_in",
	EventSLOViolation:    "slo_violation",
	EventDeviceFailed:    "device_failed",
	EventDeviceRecovered: "device_recovered",
	EventMeasureRetry:    "measure_retry",
	EventFailover:        "failover",
	EventLoadShed:        "load_shed",
}

// String returns the wire name of the event type.
func (t EventType) String() string {
	if t < numEventTypes {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// MarshalJSON encodes the type as its wire name.
func (t EventType) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// UnmarshalJSON decodes a wire name back into the type.
func (t *EventType) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range eventTypeNames {
		if name == s {
			*t = EventType(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event type %q", s)
}

// Event is one structured control-loop event. Time is simulation time
// (seconds) — never wall clock — so event streams are deterministic
// for a fixed seed.
type Event struct {
	Time    float64   `json:"t"`
	Type    EventType `json:"type"`
	Device  string    `json:"device,omitempty"`
	Service string    `json:"service,omitempty"`
	Task    string    `json:"task,omitempty"`
	Value   float64   `json:"value,omitempty"`
	Cause   string    `json:"cause,omitempty"`
}

// DefEventCap caps a run's event view (see span.Log); a 300-task
// physical-scale run emits a few thousand events, so the cap keeps
// full runs intact while bounding pathological ones.
const DefEventCap = 1 << 16

// Observer receives each event synchronously as it is emitted. An
// Observer shared across concurrently running simulations (e.g. one
// hooked into several -parallel experiment cells) must be safe for
// concurrent calls.
type Observer func(Event)

// WriteEventsNDJSON streams events as newline-delimited JSON in append
// order.
func WriteEventsNDJSON(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
