package span

import (
	"encoding/json"
	"io"
	"sort"
)

// lane groups span kinds into per-device tracks so a Perfetto view
// shows control, memory, scheduling, and fault activity as separate
// rows.
func lane(k Kind) string {
	switch k {
	case KindRetune, KindBOIter, KindRescale, KindShadowSpinup, KindShadowSwap:
		return "control"
	case KindMemSwap:
		return "memory"
	case KindMigrate:
		return "sched"
	case KindOutage:
		return "faults"
	default:
		return "misc"
	}
}

// chromeEvent is one trace-event record in the Chrome trace-event
// JSON format (the "X" complete-event and "M" metadata flavours).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders spans as Chrome trace-event JSON loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Simulated seconds
// map to trace microseconds, each device/lane pair becomes a thread
// track, and events on a track are emitted with monotonically
// non-decreasing timestamps (parents before equal-timestamp children)
// so "X" nesting renders correctly. Output is fully deterministic for
// a fixed span slice.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	type trackKey struct {
		device string
		lane   string
	}
	keyOf := func(s Span) trackKey {
		dev := s.Device
		if dev == "" {
			dev = "cluster"
		}
		return trackKey{device: dev, lane: lane(s.Kind)}
	}

	keys := make([]trackKey, 0, 8)
	seen := make(map[trackKey]bool)
	for _, s := range spans {
		k := keyOf(s)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].device != keys[j].device {
			return keys[i].device < keys[j].device
		}
		return keys[i].lane < keys[j].lane
	})
	tid := make(map[trackKey]int, len(keys))
	for i, k := range keys {
		tid[k] = i + 1
	}

	const pid = 1
	events := make([]chromeEvent, 0, len(spans)+len(keys)+1)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": "mudi-sim"},
	})
	for _, k := range keys {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid[k],
			Args: map[string]any{"name": k.device + "/" + k.lane},
		})
	}

	body := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{"id": uint64(s.ID)}
		if s.Parent != 0 {
			args["parent"] = uint64(s.Parent)
		}
		if s.Service != "" {
			args["service"] = s.Service
		}
		if s.Task != "" {
			args["task"] = s.Task
		}
		if s.Batch != 0 {
			args["batch"] = s.Batch
		}
		if s.Delta != 0 {
			args["delta"] = s.Delta
		}
		if s.Value != 0 {
			args["value"] = s.Value
		}
		if s.Cause != "" {
			args["cause"] = s.Cause
		}
		end := s.End
		if end < s.Start {
			end = s.Start
		}
		body = append(body, chromeEvent{
			Name: s.Kind.String(),
			Ph:   "X",
			Ts:   s.Start * 1e6,
			Dur:  (end - s.Start) * 1e6,
			Pid:  pid,
			Tid:  tid[keyOf(s)],
			Args: args,
		})
	}
	// Per-track monotonic order; at equal timestamps the longer span
	// (the parent) comes first so X nesting renders as containment.
	sort.SliceStable(body, func(i, j int) bool {
		if body[i].Tid != body[j].Tid {
			return body[i].Tid < body[j].Tid
		}
		if body[i].Ts != body[j].Ts {
			return body[i].Ts < body[j].Ts
		}
		if body[i].Dur != body[j].Dur {
			return body[i].Dur > body[j].Dur
		}
		return body[i].Args["id"].(uint64) < body[j].Args["id"].(uint64)
	})
	events = append(events, body...)

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
