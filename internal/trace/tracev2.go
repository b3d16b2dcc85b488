// Trace-v2: the versioned, replayable workload format. A trace-v2
// document is NDJSON — one header line naming the schema version, the
// seed, the time base, and the QPS streams and cohorts, followed by
// body records: piecewise-constant QPS samples per stream and training
// task submissions. The format is the substrate every scenario replays
// against: a recorded run (trace.Recorder), a generated scenario
// (internal/trace/scenario), and an externally-authored trace all
// decode to the same Trace value, and Encode always emits the canonical
// byte form — encode→decode→encode is byte-identical.
//
// Semantics: a stream's QPS is a step function — At(t) is the value of
// the latest sample with sample time ≤ t — so a replayed run that
// queries the trace at the times the original run did reads exactly the
// original values, which is what makes record→replay reproduce
// Result.Summary byte for byte.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"mudi/internal/model"
)

// SchemaVersion is the trace format version this package reads and
// writes. Decode rejects documents with any other version.
const SchemaVersion = 2

// TimeBaseSeconds is the only time base currently defined: record
// timestamps are simulation seconds from t=0.
const TimeBaseSeconds = "seconds"

// FormatError reports one malformed element of a trace-v2 document.
// Errors from Decode and Trace.Validate unwrap to this type, in the
// style of mudi's *OptionError:
//
//	var fe *trace.FormatError
//	if errors.As(err, &fe) { fmt.Println(fe.Line, fe.Reason) }
type FormatError struct {
	Line   int    // 1-based NDJSON line, 0 for semantic errors on built traces
	Field  string // the offending field or record kind
	Reason string
}

// Error implements error.
func (e *FormatError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("trace: line %d: %s: %s", e.Line, e.Field, e.Reason)
	}
	return fmt.Sprintf("trace: %s: %s", e.Field, e.Reason)
}

// StreamDef declares one QPS stream: the schedulable device it drives
// and the inference service deployed there. Stream IDs follow the
// cluster's device naming (gpu0000, gpu0000/mig0, ...).
type StreamDef struct {
	ID      string `json:"id"`
	Service string `json:"service"`
}

// CohortDef records one arrival population and its share of the task
// records — informational metadata for validation and reporting.
type CohortDef struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	// Class is the cohort's SLO class wire name ("critical", "batch",
	// ...); empty for unclassed cohorts, so pre-class traces round-trip
	// byte-identically.
	Class string `json:"class,omitempty"`
}

// Header is the first line of a trace-v2 document.
type Header struct {
	Record    string      `json:"record"` // always "header"
	Version   int         `json:"version"`
	Seed      uint64      `json:"seed"`
	TimeBase  string      `json:"time_base"`
	Devices   int         `json:"devices"`
	MIGSlices int         `json:"mig_slices,omitempty"` // 0 and 1 both mean "no MIG splitting"
	Streams   []StreamDef `json:"streams"`
	Cohorts   []CohortDef `json:"cohorts,omitempty"`
}

// QPSSample is one step of a stream's piecewise-constant arrival rate:
// from T (inclusive) until the stream's next sample, the rate is QPS.
type QPSSample struct {
	Record string  `json:"record"` // always "qps"
	Stream string  `json:"stream"`
	T      float64 `json:"t"`
	QPS    float64 `json:"qps"`
}

// TaskRec is one training-task submission, by catalog task name.
type TaskRec struct {
	Record   string  `json:"record"` // always "task"
	ID       int     `json:"id"`
	T        float64 `json:"t"`
	Task     string  `json:"task"`
	Iters    int     `json:"iters"`
	GPUs     int     `json:"gpus"`
	Cohort   string  `json:"cohort,omitempty"`
	Priority int     `json:"priority,omitempty"`
	// Class is the submission's SLO class wire name; empty (and absent
	// on the wire) for unclassed records.
	Class string `json:"class,omitempty"`
}

// Trace is one decoded (or generated) trace-v2 workload.
type Trace struct {
	Header Header
	QPS    []QPSSample
	Tasks  []TaskRec
}

// normMIG folds the two spellings of "no MIG" onto 1.
func normMIG(n int) int {
	if n <= 0 {
		return 1
	}
	return n
}

// schedulable is the stream count the header promises: one per
// schedulable device (whole GPU or MIG instance).
func (h Header) schedulable() int { return h.Devices * normMIG(h.MIGSlices) }

// Validate checks a Trace's semantic invariants — the same checks
// Decode applies, for traces built programmatically (Recorder, scenario
// generators). Violations unwrap to *FormatError.
func (tr *Trace) Validate() error { return tr.validate(nil, nil) }

// validate checks the header and every body record. qpsLines and
// taskLines, when non-nil, give the NDJSON line of each QPS sample and
// task record, which a record error then carries; header errors carry
// line 0.
func (tr *Trace) validate(qpsLines, taskLines []int) error {
	at := func(lines []int, i int) int {
		if lines == nil {
			return 0
		}
		return lines[i]
	}
	h := tr.Header
	if h.Version != SchemaVersion {
		return &FormatError{Field: "version", Reason: fmt.Sprintf("unsupported schema version %d (this reader supports %d)", h.Version, SchemaVersion)}
	}
	if h.TimeBase != TimeBaseSeconds {
		return &FormatError{Field: "time_base", Reason: fmt.Sprintf("unknown time base %q (known: %q)", h.TimeBase, TimeBaseSeconds)}
	}
	if h.Devices <= 0 {
		return &FormatError{Field: "devices", Reason: fmt.Sprintf("must be > 0, got %d", h.Devices)}
	}
	if h.MIGSlices < 0 || h.MIGSlices > 7 {
		return &FormatError{Field: "mig_slices", Reason: fmt.Sprintf("must be in [0, 7], got %d", h.MIGSlices)}
	}
	if len(h.Streams) == 0 {
		return &FormatError{Field: "streams", Reason: "empty service set: a trace must declare at least one QPS stream"}
	}
	if len(h.Streams) != h.schedulable() {
		return &FormatError{Field: "streams", Reason: fmt.Sprintf("%d streams for %d schedulable devices (devices × MIG slices)", len(h.Streams), h.schedulable())}
	}
	seen := make(map[string]bool, len(h.Streams))
	for _, st := range h.Streams {
		if st.ID == "" || st.Service == "" {
			return &FormatError{Field: "streams", Reason: "stream id and service must be non-empty"}
		}
		if seen[st.ID] {
			return &FormatError{Field: "streams", Reason: fmt.Sprintf("duplicate stream id %q", st.ID)}
		}
		seen[st.ID] = true
	}
	for _, c := range h.Cohorts {
		if c.Name == "" || c.Weight < 0 || !isFinite(c.Weight) {
			return &FormatError{Field: "cohorts", Reason: fmt.Sprintf("cohort %+v: name must be non-empty and weight finite and >= 0", c)}
		}
		if c.Class != "" {
			if _, err := model.ParseSLOClass(c.Class); err != nil {
				return &FormatError{Field: "cohorts", Reason: fmt.Sprintf("cohort %q: %v", c.Name, err)}
			}
		}
	}
	lastT := make(map[string]float64, len(h.Streams))
	has := make(map[string]bool, len(h.Streams))
	for i, q := range tr.QPS {
		bad := func(field, reason string, args ...any) error {
			return &FormatError{Line: at(qpsLines, i), Field: field, Reason: fmt.Sprintf(reason, args...)}
		}
		if !seen[q.Stream] {
			return bad("qps.stream", "sample references undeclared stream %q", q.Stream)
		}
		if q.T < 0 || !isFinite(q.T) {
			return bad("qps.t", "timestamp must be finite and >= 0, got %v", q.T)
		}
		if q.QPS < 0 || !isFinite(q.QPS) {
			return bad("qps.qps", "rate must be finite and >= 0, got %v", q.QPS)
		}
		if has[q.Stream] && q.T <= lastT[q.Stream] {
			return bad("qps.t", "out-of-order timestamp %v on stream %q (previous %v)", q.T, q.Stream, lastT[q.Stream])
		}
		has[q.Stream] = true
		lastT[q.Stream] = q.T
	}
	prevT, prevID := math.Inf(-1), -1
	for i, rec := range tr.Tasks {
		bad := func(field, reason string, args ...any) error {
			return &FormatError{Line: at(taskLines, i), Field: field, Reason: fmt.Sprintf(reason, args...)}
		}
		if rec.T < 0 || !isFinite(rec.T) {
			return bad("task.t", "timestamp must be finite and >= 0, got %v", rec.T)
		}
		if rec.T < prevT {
			return bad("task.t", "out-of-order timestamp %v (previous %v)", rec.T, prevT)
		}
		if rec.ID <= prevID {
			return bad("task.id", "ids must be strictly increasing, got %d after %d", rec.ID, prevID)
		}
		if rec.Task == "" {
			return bad("task.task", "task name must be non-empty")
		}
		if rec.Iters < 1 {
			return bad("task.iters", "must be >= 1, got %d", rec.Iters)
		}
		if rec.GPUs < 1 {
			return bad("task.gpus", "must be >= 1, got %d", rec.GPUs)
		}
		prevT, prevID = rec.T, rec.ID
	}
	return nil
}

// Stream builds the step-function QPS trace for one stream id.
func (tr *Trace) Stream(id string) (*StepQPS, error) {
	found := false
	for _, st := range tr.Header.Streams {
		if st.ID == id {
			found = true
			break
		}
	}
	if !found {
		return nil, &FormatError{Field: "qps.stream", Reason: fmt.Sprintf("unknown stream %q", id)}
	}
	s := &StepQPS{}
	for _, q := range tr.QPS {
		if q.Stream == id {
			s.Times = append(s.Times, q.T)
			s.Vals = append(s.Vals, q.QPS)
		}
	}
	return s, nil
}

// StreamMap builds every stream's step function in one pass.
func (tr *Trace) StreamMap() map[string]*StepQPS {
	out := make(map[string]*StepQPS, len(tr.Header.Streams))
	for _, st := range tr.Header.Streams {
		out[st.ID] = &StepQPS{}
	}
	for _, q := range tr.QPS {
		s := out[q.Stream]
		if s == nil {
			continue // Validate rejects this; be lenient here
		}
		s.Times = append(s.Times, q.T)
		s.Vals = append(s.Vals, q.QPS)
	}
	return out
}

// Arrivals resolves the task records against the training catalog and
// returns the replayable submission sequence. Unknown task names are a
// *FormatError — external traces must name Tab. 3 catalog tasks.
func (tr *Trace) Arrivals() ([]TaskArrival, error) {
	out := make([]TaskArrival, 0, len(tr.Tasks))
	for _, rec := range tr.Tasks {
		task, ok := model.TaskByName(rec.Task)
		if !ok {
			return nil, &FormatError{Field: "task.task", Reason: fmt.Sprintf("unknown training task %q (not in the Tab. 3 catalog)", rec.Task)}
		}
		var class model.SLOClass
		if rec.Class != "" {
			c, err := model.ParseSLOClass(rec.Class)
			if err != nil {
				return nil, &FormatError{Field: "task.class", Reason: err.Error()}
			}
			class = c
		}
		out = append(out, TaskArrival{
			ID: rec.ID, At: rec.T, Task: task, Iters: rec.Iters,
			GPUsReq: rec.GPUs, Cohort: rec.Cohort, Priority: rec.Priority,
			Class: class,
		})
	}
	return out, nil
}

// StepQPS is the replay-side QPSTrace: a piecewise-constant function
// over explicit samples. At(t) returns the value of the latest sample
// with time ≤ t; times before the first sample return the first value
// (and 0 when the stream is empty).
type StepQPS struct {
	Times []float64
	Vals  []float64
}

// At implements QPSTrace.
func (s *StepQPS) At(t float64) float64 {
	if len(s.Times) == 0 {
		return 0
	}
	// Index of the first sample with time > t; the step value is the one
	// before it.
	idx := sort.SearchFloat64s(s.Times, t)
	if idx < len(s.Times) && s.Times[idx] == t {
		return s.Vals[idx]
	}
	if idx == 0 {
		return s.Vals[0]
	}
	return s.Vals[idx-1]
}

// Encode writes the trace in the canonical NDJSON byte form: the
// header line followed by all body records merged by (time, kind,
// stream, id). Encoding a decoded trace reproduces the canonical bytes
// exactly (the round-trip property the fuzz tests pin).
func (tr *Trace) Encode(w io.Writer) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	h := tr.Header
	h.Record = "header"
	if err := writeLine(bw, h); err != nil {
		return err
	}
	// Canonical merge order. QPS samples sort before task records at
	// equal times; within a kind, the stream id / task id breaks ties.
	qi, ti := 0, 0
	qps := append([]QPSSample(nil), tr.QPS...)
	sort.SliceStable(qps, func(i, j int) bool {
		if qps[i].T != qps[j].T {
			return qps[i].T < qps[j].T
		}
		return qps[i].Stream < qps[j].Stream
	})
	for qi < len(qps) || ti < len(tr.Tasks) {
		takeQPS := qi < len(qps) && (ti >= len(tr.Tasks) || qps[qi].T <= tr.Tasks[ti].T)
		if takeQPS {
			rec := qps[qi]
			rec.Record = "qps"
			if err := writeLine(bw, rec); err != nil {
				return err
			}
			qi++
			continue
		}
		rec := tr.Tasks[ti]
		rec.Record = "task"
		if err := writeLine(bw, rec); err != nil {
			return err
		}
		ti++
	}
	return bw.Flush()
}

func writeLine(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// Decode reads a trace-v2 NDJSON document and validates it like
// Validate. It rejects unknown schema versions, undeclared streams, and
// out-of-order timestamps with *FormatError values; an error in a body
// record carries the record's line.
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	tr := &Trace{}
	line := 0
	sawHeader := false
	var qpsLines, taskLines []int
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			return nil, &FormatError{Line: line, Field: "record", Reason: "blank line"}
		}
		var probe struct {
			Record string `json:"record"`
		}
		if err := json.Unmarshal(text, &probe); err != nil {
			return nil, &FormatError{Line: line, Field: "record", Reason: fmt.Sprintf("not a JSON object: %v", err)}
		}
		if !sawHeader {
			if probe.Record != "header" {
				return nil, &FormatError{Line: line, Field: "record", Reason: fmt.Sprintf("first record must be the header, got %q", probe.Record)}
			}
			var h Header
			if err := json.Unmarshal(text, &h); err != nil {
				return nil, &FormatError{Line: line, Field: "header", Reason: err.Error()}
			}
			if h.Version != SchemaVersion {
				return nil, &FormatError{Line: line, Field: "version", Reason: fmt.Sprintf("unsupported schema version %d (this reader supports %d)", h.Version, SchemaVersion)}
			}
			h.Record = "" // canonical in-memory form carries no record tag
			tr.Header = h
			sawHeader = true
			continue
		}
		switch probe.Record {
		case "header":
			return nil, &FormatError{Line: line, Field: "record", Reason: "duplicate header"}
		case "qps":
			var q QPSSample
			if err := json.Unmarshal(text, &q); err != nil {
				return nil, &FormatError{Line: line, Field: "qps", Reason: err.Error()}
			}
			q.Record = ""
			tr.QPS = append(tr.QPS, q)
			qpsLines = append(qpsLines, line)
		case "task":
			var rec TaskRec
			if err := json.Unmarshal(text, &rec); err != nil {
				return nil, &FormatError{Line: line, Field: "task", Reason: err.Error()}
			}
			rec.Record = ""
			tr.Tasks = append(tr.Tasks, rec)
			taskLines = append(taskLines, line)
		default:
			return nil, &FormatError{Line: line, Field: "record", Reason: fmt.Sprintf("unknown record kind %q", probe.Record)}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, &FormatError{Line: 1, Field: "header", Reason: "empty document: a trace-v2 file starts with a header line"}
	}
	if err := tr.validate(qpsLines, taskLines); err != nil {
		return nil, err
	}
	return tr, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
