package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"mudi/internal/model"
	"mudi/internal/xrand"
)

// validTrace builds a small well-formed trace for the codec tests.
func validTrace() *Trace {
	return &Trace{
		Header: Header{
			Version: SchemaVersion, Seed: 7, TimeBase: TimeBaseSeconds,
			Devices: 2,
			Streams: []StreamDef{
				{ID: "gpu0000", Service: "ResNet50"},
				{ID: "gpu0001", Service: "BERT"},
			},
			Cohorts: []CohortDef{{Name: "research", Weight: 0.6}, {Name: "production", Weight: 0.4}},
		},
		QPS: []QPSSample{
			{Stream: "gpu0000", T: 0, QPS: 200},
			{Stream: "gpu0001", T: 0, QPS: 180.5},
			{Stream: "gpu0000", T: 10, QPS: 260.25},
			{Stream: "gpu0001", T: 12.5, QPS: 150},
		},
		Tasks: []TaskRec{
			{ID: 0, T: 3, Task: "VGG16", Iters: 30, GPUs: 1, Cohort: "research"},
			{ID: 1, T: 11, Task: "NCF", Iters: 120, GPUs: 1, Cohort: "production", Priority: 5},
		},
	}
}

func encode(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncodeDecodeEncodeByteIdentical is the round-trip property on a
// hand-built trace: encode → decode → encode reproduces the canonical
// bytes exactly.
func TestEncodeDecodeEncodeByteIdentical(t *testing.T) {
	first := encode(t, validTrace())
	decoded, err := Decode(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	second := encode(t, decoded)
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip diverged:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestEncodeCanonicalOrder: body records are merged by time regardless
// of the in-memory slice order.
func TestEncodeCanonicalOrder(t *testing.T) {
	tr := validTrace()
	// Scramble the QPS slice (still per-stream increasing once sorted).
	tr.QPS = []QPSSample{
		{Stream: "gpu0001", T: 0, QPS: 180.5},
		{Stream: "gpu0001", T: 12.5, QPS: 150},
		{Stream: "gpu0000", T: 0, QPS: 200},
		{Stream: "gpu0000", T: 10, QPS: 260.25},
	}
	canonical := encode(t, validTrace())
	scrambled := encode(t, tr)
	if !bytes.Equal(canonical, scrambled) {
		t.Fatal("encode is sensitive to in-memory QPS slice order")
	}
	lines := strings.Split(strings.TrimSpace(string(canonical)), "\n")
	var times []float64
	for _, line := range lines[1:] {
		var probe struct {
			T float64 `json:"t"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatal(err)
		}
		times = append(times, probe.T)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("encoded records not time-merged: %v after %v", times[i], times[i-1])
		}
	}
}

// TestDecodeRejections: every malformed document class is rejected with
// a *FormatError carrying the offending line.
func TestDecodeRejections(t *testing.T) {
	canonical := string(encode(t, validTrace()))
	lines := strings.Split(strings.TrimSpace(canonical), "\n")
	header := lines[0]
	// line is the FormatError.Line each case must report: the offending
	// record's line for record errors, 0 for errors in the header's
	// semantics.
	cases := []struct {
		name  string
		doc   string
		field string
		line  int
	}{
		{"empty", "", "header", 1},
		{"no-header-first", lines[1] + "\n", "record", 1},
		{"unknown-version", strings.Replace(header, `"version":2`, `"version":3`, 1) + "\n", "version", 1},
		{"bad-timebase", strings.Replace(header, `"time_base":"seconds"`, `"time_base":"millis"`, 1) + "\n", "time_base", 0},
		{"unknown-record-kind", header + "\n" + `{"record":"qqs","stream":"gpu0000","t":0,"qps":1}` + "\n", "record", 2},
		{"duplicate-header", header + "\n" + header + "\n", "record", 2},
		{"undeclared-stream", header + "\n" + `{"record":"qps","stream":"gpu9999","t":0,"qps":1}` + "\n", "qps.stream", 2},
		{"out-of-order-qps", header + "\n" +
			`{"record":"qps","stream":"gpu0000","t":10,"qps":1}` + "\n" +
			`{"record":"qps","stream":"gpu0000","t":5,"qps":2}` + "\n", "qps.t", 3},
		{"duplicate-qps-t", header + "\n" +
			`{"record":"qps","stream":"gpu0000","t":10,"qps":1}` + "\n" +
			`{"record":"qps","stream":"gpu0000","t":10,"qps":2}` + "\n", "qps.t", 3},
		{"negative-qps-t", header + "\n" + `{"record":"qps","stream":"gpu0000","t":-1,"qps":1}` + "\n", "qps.t", 2},
		{"negative-qps", header + "\n" + `{"record":"qps","stream":"gpu0000","t":0,"qps":-5}` + "\n", "qps.qps", 2},
		{"out-of-order-task", header + "\n" +
			`{"record":"task","id":0,"t":10,"task":"VGG16","iters":1,"gpus":1}` + "\n" +
			`{"record":"task","id":1,"t":4,"task":"VGG16","iters":1,"gpus":1}` + "\n", "task.t", 3},
		{"non-increasing-task-id", header + "\n" +
			`{"record":"task","id":1,"t":1,"task":"VGG16","iters":1,"gpus":1}` + "\n" +
			`{"record":"task","id":1,"t":2,"task":"VGG16","iters":1,"gpus":1}` + "\n", "task.id", 3},
		{"zero-iters", header + "\n" + `{"record":"task","id":0,"t":1,"task":"VGG16","iters":0,"gpus":1}` + "\n", "task.iters", 2},
		{"empty-task-name", header + "\n" + `{"record":"task","id":0,"t":1,"task":"","iters":1,"gpus":1}` + "\n", "task.task", 2},
		{"task-after-qps", header + "\n" +
			`{"record":"qps","stream":"gpu0000","t":0,"qps":1}` + "\n" +
			`{"record":"task","id":0,"t":1,"task":"VGG16","iters":1,"gpus":0}` + "\n", "task.gpus", 3},
		{"blank-line", header + "\n\n", "record", 2},
		{"garbage", header + "\n" + "not json\n", "record", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(tc.doc))
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("want *FormatError, got %v", err)
			}
			if fe.Field != tc.field {
				t.Fatalf("field %q, want %q (err: %v)", fe.Field, tc.field, fe)
			}
			if fe.Line != tc.line {
				t.Fatalf("line %d, want %d (err: %v)", fe.Line, tc.line, fe)
			}
		})
	}
}

// TestValidateRejections covers the semantic checks on programmatically
// built traces (no line numbers).
func TestValidateRejections(t *testing.T) {
	mutate := func(f func(*Trace)) error {
		tr := validTrace()
		f(tr)
		return tr.Validate()
	}
	cases := []struct {
		name string
		f    func(*Trace)
	}{
		{"bad-version", func(tr *Trace) { tr.Header.Version = 1 }},
		{"bad-timebase", func(tr *Trace) { tr.Header.TimeBase = "millis" }},
		{"zero-devices", func(tr *Trace) { tr.Header.Devices = 0 }},
		{"empty-streams", func(tr *Trace) { tr.Header.Streams = nil }},
		{"stream-count-mismatch", func(tr *Trace) { tr.Header.Devices = 3 }},
		{"dup-stream", func(tr *Trace) { tr.Header.Streams[1].ID = "gpu0000" }},
		{"bad-mig", func(tr *Trace) { tr.Header.MIGSlices = 8 }},
		{"nan-qps", func(tr *Trace) { tr.QPS[0].QPS = math.NaN() }},
		{"inf-t", func(tr *Trace) { tr.QPS[0].T = math.Inf(1) }},
		{"bad-cohort", func(tr *Trace) { tr.Header.Cohorts[0].Weight = -1 }},
		{"zero-gpus", func(tr *Trace) { tr.Tasks[0].GPUs = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := mutate(tc.f)
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("want *FormatError, got %v", err)
			}
		})
	}
	if err := validTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

// TestStepQPSSemantics pins the replay step function: latest sample ≤ t,
// first value before the first sample, 0 when empty.
func TestStepQPSSemantics(t *testing.T) {
	s := &StepQPS{Times: []float64{5, 10, 20}, Vals: []float64{100, 200, 50}}
	for _, tc := range []struct{ t, want float64 }{
		{0, 100}, {4.999, 100}, {5, 100}, {7, 100},
		{10, 200}, {19.999, 200}, {20, 50}, {1e6, 50},
	} {
		if got := s.At(tc.t); got != tc.want {
			t.Fatalf("At(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	empty := &StepQPS{}
	if got := empty.At(3); got != 0 {
		t.Fatalf("empty At = %v, want 0", got)
	}
}

// TestArrivalsResolvesCatalog: task records resolve to catalog tasks,
// cohort and priority survive, unknown names are typed errors.
func TestArrivalsResolvesCatalog(t *testing.T) {
	tr := validTrace()
	arrivals, err := tr.Arrivals()
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals %d", len(arrivals))
	}
	if arrivals[0].Task.Name != "VGG16" || arrivals[0].Cohort != "research" {
		t.Fatalf("arrival 0: %+v", arrivals[0])
	}
	if arrivals[1].Priority != 5 || arrivals[1].Cohort != "production" {
		t.Fatalf("arrival 1: %+v", arrivals[1])
	}
	tr.Tasks[0].Task = "NoSuchNet"
	_, err = tr.Arrivals()
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("unknown task name: want *FormatError, got %v", err)
	}
}

// TestRecorderPassiveAndMinimal: the wrapper returns exactly the inner
// values, dedupes unchanged steps, and the assembled trace validates
// and replays the recorded values.
func TestRecorderPassiveAndMinimal(t *testing.T) {
	rec := NewRecorder(9, 1, 1)
	inner := NewFluctuatingQPS(100, xrand.New(3).ForkString("qps"))
	wrapped := rec.Wrap("gpu0000", "ResNet50", inner)
	ref := NewFluctuatingQPS(100, xrand.New(3).ForkString("qps"))
	// Non-decreasing query times (with one duplicate), matching how the
	// simulator drives QPSTrace — the replay step function reproduces
	// recorded values exactly for this query pattern.
	queries := []float64{0, 1, 2, 5, 10, 10, 15, 30, 60, 61, 100}
	for _, q := range queries {
		if got, want := wrapped.At(q), ref.At(q); got != want {
			t.Fatalf("At(%v) = %v, want pass-through %v", q, got, want)
		}
	}
	rec.Task(TaskArrival{ID: 0, At: 2, Task: mustTask(t, "VGG16"), Iters: 10, GPUsReq: 1, Cohort: "c", Priority: 2})
	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
	s, err := tr.Stream("gpu0000")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if got, want := s.At(q), ref.At(q); got != want {
			t.Fatalf("replayed At(%v) = %v, want %v", q, got, want)
		}
	}
	if len(s.Times) >= len(queries) {
		t.Fatalf("recorded %d samples for %d queries — dedupe not working", len(s.Times), len(queries))
	}
	if len(tr.Header.Cohorts) != 1 || tr.Header.Cohorts[0].Name != "c" {
		t.Fatalf("cohort metadata %+v", tr.Header.Cohorts)
	}
}

// FuzzDecodeEncodeRoundTrip: any document that decodes successfully
// must re-encode to bytes that decode to the same value, with the
// second encode byte-identical to the first re-encode (canonical form
// is a fixed point). Seeded with the valid corpus and mutations.
func FuzzDecodeEncodeRoundTrip(f *testing.F) {
	var buf bytes.Buffer
	if err := validTrace().Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add(`{"record":"header","version":3}`)
	f.Add(`{"record":"header","version":2,"seed":1,"time_base":"seconds","devices":1,"streams":[{"id":"a","service":"s"}]}`)
	f.Add(strings.Replace(buf.String(), `"t":10`, `"t":-10`, 1))
	f.Fuzz(func(t *testing.T, doc string) {
		tr, err := Decode(strings.NewReader(doc))
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) && !isScanErr(err) {
				t.Fatalf("decode error is not a *FormatError: %v", err)
			}
			return
		}
		var first bytes.Buffer
		if err := tr.Encode(&first); err != nil {
			t.Fatalf("decoded trace fails to encode: %v", err)
		}
		tr2, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical bytes fail to decode: %v", err)
		}
		var second bytes.Buffer
		if err := tr2.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encode∘decode is not a fixed point:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}

// isScanErr matches bufio.Scanner resource-limit errors (token too
// long) which are I/O conditions, not format violations.
func isScanErr(err error) bool {
	return strings.Contains(err.Error(), "token too long")
}

func mustTask(t *testing.T, name string) model.TrainingTask {
	t.Helper()
	tk, ok := model.TaskByName(name)
	if !ok {
		t.Fatalf("catalog task %q missing", name)
	}
	return tk
}
