package span

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if id := tr.Add(Span{Kind: KindMigrate}); id != 0 {
		t.Fatalf("nil Add returned %d", id)
	}
	if id := tr.Start(Span{Kind: KindRetune}); id != 0 {
		t.Fatalf("nil Start returned %d", id)
	}
	tr.End(1, 5)
	tr.Annotate(1, func(s *Span) { s.Batch = 3 })
	tr.CloseOpen(10)
	if tr.Spans() != nil || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer leaked state")
	}
}

func TestNilTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		if tr != nil {
			tr.Add(Span{Kind: KindMigrate, Start: 1, End: 2})
		}
		tr.End(0, 3)
		tr.Annotate(0, nil)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer path allocated %v per run, want 0", allocs)
	}
}

func TestTracerLifecycle(t *testing.T) {
	tr := NewTracer(0)
	parent := tr.Start(Span{Kind: KindRetune, Start: 10, Device: "gpu-0"})
	if parent != 1 {
		t.Fatalf("first ID = %d, want 1", parent)
	}
	child := tr.Add(Span{Kind: KindBOIter, Parent: parent, Start: 10, End: 10, Value: 42})
	if child != 2 {
		t.Fatalf("second ID = %d, want 2", child)
	}
	tr.Annotate(parent, func(s *Span) { s.Batch = 16; s.Delta = 0.4 })
	tr.End(parent, 10)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("len(spans) = %d, want 2", len(spans))
	}
	p := spans[0]
	if p.Kind != KindRetune || p.Start != 10 || p.End != 10 || p.Batch != 16 || p.Delta != 0.4 {
		t.Fatalf("parent span = %+v", p)
	}
	if spans[1].Parent != parent {
		t.Fatalf("child parent = %d, want %d", spans[1].Parent, parent)
	}
	// End clamps to Start; double-End is a no-op.
	id := tr.Start(Span{Kind: KindMigrate, Start: 20})
	tr.End(id, 15)
	tr.End(id, 99)
	got := tr.Spans()[2]
	if got.End != 20 {
		t.Fatalf("clamped End = %v, want 20", got.End)
	}
	// Annotate after close still resolves.
	tr.Annotate(id, func(s *Span) { s.Cause = "test" })
	if tr.Spans()[2].Cause != "test" {
		t.Fatal("annotate after close did not apply")
	}
}

func TestTracerCapacity(t *testing.T) {
	tr := NewTracer(2)
	tr.Add(Span{Kind: KindMigrate})
	tr.Start(Span{Kind: KindMigrate})
	if id := tr.Add(Span{Kind: KindMigrate}); id != 0 {
		t.Fatalf("over-cap Add returned %d", id)
	}
	if id := tr.Start(Span{Kind: KindMigrate}); id != 0 {
		t.Fatalf("over-cap Start returned %d", id)
	}
	if tr.Len() != 2 || tr.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 2/2", tr.Len(), tr.Dropped())
	}
}

func TestCloseOpen(t *testing.T) {
	tr := NewTracer(0)
	a := tr.Start(Span{Kind: KindOutage, Start: 5})
	b := tr.Start(Span{Kind: KindMigrate, Start: 50})
	tr.CloseOpen(30)
	spans := tr.Spans()
	for _, s := range spans {
		switch s.ID {
		case a:
			if s.End != 30 {
				t.Fatalf("outage End = %v, want 30", s.End)
			}
		case b:
			if s.End != 50 { // clamped to Start
				t.Fatalf("migrate End = %v, want 50", s.End)
			}
		}
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("round trip %v → %v", k, back)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"bogus"`), &k); err == nil {
		t.Fatal("bogus kind decoded")
	}
}

func TestCauseJSONRoundTrip(t *testing.T) {
	for c := Cause(0); c < numCauses; c++ {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var back Cause
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != c {
			t.Fatalf("round trip %v → %v", c, back)
		}
	}
}

func TestChromeTraceShape(t *testing.T) {
	tr := NewTracer(0)
	rs := tr.Add(Span{Kind: KindRescale, Start: 1.0, End: 1.5, Device: "gpu-0", Service: "resnet50"})
	tr.Add(Span{Kind: KindShadowSpinup, Parent: rs, Start: 1.0, End: 1.2, Device: "gpu-0", Service: "resnet50"})
	rt := tr.Add(Span{Kind: KindRetune, Start: 2.0, End: 2.0, Device: "gpu-1", Cause: "qps-change"})
	tr.Add(Span{Kind: KindBOIter, Parent: rt, Start: 2.0, End: 2.0, Device: "gpu-1", Value: 33})
	tr.Add(Span{Kind: KindOutage, Start: 0.5, End: 3.0, Device: "gpu-0", Cause: "mtbf"})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var meta, complete int
	lastTs := make(map[int]float64)
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				t.Fatalf("unexpected metadata event %q", ev.Name)
			}
		case "X":
			complete++
			if ev.Dur < 0 {
				t.Fatalf("negative dur on %q", ev.Name)
			}
			if prev, ok := lastTs[ev.Tid]; ok && ev.Ts < prev {
				t.Fatalf("track %d timestamps not monotonic: %v after %v", ev.Tid, ev.Ts, prev)
			}
			lastTs[ev.Tid] = ev.Ts
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if complete != 5 {
		t.Fatalf("complete events = %d, want 5", complete)
	}
	if meta < 2 {
		t.Fatalf("metadata events = %d, want ≥ 2", meta)
	}
	// shadow_spinup (µs ts 1e6, dur 0.2e6) must come after its parent
	// rescale (same ts, dur 0.5e6) on the same track.
	var parentIdx, childIdx int
	for i, ev := range doc.TraceEvents {
		switch ev.Name {
		case "rescale":
			parentIdx = i
		case "shadow_spinup":
			childIdx = i
		}
	}
	if childIdx < parentIdx {
		t.Fatal("child shadow_spinup emitted before parent rescale at equal ts")
	}
}

func TestAttributionPriority(t *testing.T) {
	outage := Span{Kind: KindOutage, Device: "gpu-0", Start: 100, End: 150}
	rescale := Span{Kind: KindRescale, Device: "gpu-0", Start: 200, End: 220}
	spans := []Span{outage, rescale}

	cases := []struct {
		name string
		s    Sample
		want Cause
	}{
		{"during outage", Sample{Time: 120, Device: "gpu-0"}, CauseDeviceFault},
		{"in fault grace", Sample{Time: 150 + FaultGraceSec - 1, Device: "gpu-0"}, CauseDeviceFault},
		{"fault beats rescale", Sample{Time: 149, Device: "gpu-0", Residents: []string{"bert"}}, CauseDeviceFault},
		{"during rescale", Sample{Time: 210, Device: "gpu-0", Residents: []string{"bert"}}, CauseRescale},
		{"burst beats interference", Sample{Time: 300, Device: "gpu-0", QPS: 200, BaseQPS: 100, Residents: []string{"bert"}}, CauseBurstOverload},
		{"interference", Sample{Time: 300, Device: "gpu-0", QPS: 110, BaseQPS: 100, Residents: []string{"bert"}}, CauseInterference},
		{"queueing fallback", Sample{Time: 300, Device: "gpu-0", QPS: 110, BaseQPS: 100}, CauseQueueing},
		{"other device unaffected", Sample{Time: 120, Device: "gpu-1"}, CauseQueueing},
	}
	a := NewAttributor(0)
	for _, c := range cases {
		a.Observe(c.s)
	}
	rep := a.Report(spans, 1)
	if rep.Total != len(cases) {
		t.Fatalf("total = %d, want %d", rep.Total, len(cases))
	}
	for i, c := range cases {
		if got := rep.Violations[i].Cause; got != c.want {
			t.Errorf("%s: cause = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestReportRollup(t *testing.T) {
	a := NewAttributor(0)
	for i := 0; i < 3; i++ {
		a.Observe(Sample{Time: float64(i), Device: "gpu-0", Service: "resnet50", Residents: []string{"bert", "gpt2"}})
	}
	a.Observe(Sample{Time: 10, Device: "gpu-0", Service: "resnet50", Residents: []string{"bert"}})
	a.Observe(Sample{Time: 11, Device: "gpu-1", Service: "yolov5"})
	rep := a.Report(nil, 30)
	if len(rep.Services) != 2 {
		t.Fatalf("services = %d, want 2", len(rep.Services))
	}
	rs := rep.Services[0]
	if rs.Service != "resnet50" || rs.Violations != 4 {
		t.Fatalf("resnet50 rollup = %+v", rs)
	}
	if rs.ViolatedMinutes != 4*30.0/60 {
		t.Fatalf("violated minutes = %v", rs.ViolatedMinutes)
	}
	if rs.TopOffender != "bert" || rs.TopOffenderHits != 4 {
		t.Fatalf("top offender = %q/%d, want bert/4", rs.TopOffender, rs.TopOffenderHits)
	}
	if rs.Causes["interference"] != 4 {
		t.Fatalf("causes = %v", rs.Causes)
	}
	ys := rep.Services[1]
	if ys.Service != "yolov5" || ys.Causes["queueing"] != 1 || ys.TopOffender != "" {
		t.Fatalf("yolov5 rollup = %+v", ys)
	}
	// Every violation gets exactly one cause.
	for _, v := range rep.Violations {
		if v.Cause >= numCauses {
			t.Fatalf("unclassified violation %+v", v)
		}
	}
}

func TestNilAttributorSafe(t *testing.T) {
	var a *Attributor
	a.Observe(Sample{})
	if a.Len() != 0 || a.Report(nil, 1) != nil {
		t.Fatal("nil attributor leaked state")
	}
}

func TestShedClassification(t *testing.T) {
	outage := Span{Kind: KindOutage, Device: "gpu-0", Start: 100, End: 150}
	rescale := Span{Kind: KindRescale, Device: "gpu-0", Start: 200, End: 220}
	spans := []Span{outage, rescale}

	cases := []struct {
		name string
		s    Sample
		want Cause
	}{
		// Shed slots between rescale and burst: admission control was
		// actively dropping load, so the window belongs to the shed
		// regime even though the offered rate was way past the burst bar.
		{"shed beats burst", Sample{Time: 300, Device: "gpu-0", QPS: 300, BaseQPS: 100, ShedQPS: 250}, CauseShed},
		{"fault beats shed", Sample{Time: 120, Device: "gpu-0", ShedQPS: 50}, CauseDeviceFault},
		{"rescale beats shed", Sample{Time: 210, Device: "gpu-0", ShedQPS: 50}, CauseRescale},
		{"no shed falls through", Sample{Time: 300, Device: "gpu-0", QPS: 300, BaseQPS: 100}, CauseBurstOverload},
	}
	a := NewAttributor(0)
	for _, c := range cases {
		a.Observe(c.s)
	}
	rep := a.Report(spans, 1)
	for i, c := range cases {
		if got := rep.Violations[i].Cause; got != c.want {
			t.Errorf("%s: cause = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestReportClassRollup(t *testing.T) {
	a := NewAttributor(0)
	a.Observe(Sample{Time: 1, Device: "gpu-0", Service: "gpt2", Class: "critical", Residents: []string{"bert"}})
	a.Observe(Sample{Time: 2, Device: "gpu-1", Service: "bert", Class: "critical"})
	a.Observe(Sample{Time: 3, Device: "gpu-2", Service: "resnet50", Class: "sheddable", QPS: 150, ShedQPS: 50, BaseQPS: 100})
	a.ObserveShed("sheddable", 500)
	// A class that sheds but never violates still shows up.
	a.ObserveShed("background", 120)
	rep := a.Report(nil, 30)
	if len(rep.Classes) != 3 {
		t.Fatalf("classes = %+v, want 3 entries", rep.Classes)
	}
	// Sorted by class name: background, critical, sheddable.
	bg, cr, sh := rep.Classes[0], rep.Classes[1], rep.Classes[2]
	if bg.Class != "background" || bg.Violations != 0 || bg.ShedRequests != 120 {
		t.Fatalf("background rollup = %+v", bg)
	}
	if cr.Class != "critical" || cr.Violations != 2 || cr.ShedRequests != 0 ||
		cr.Causes["interference"] != 1 || cr.Causes["queueing"] != 1 {
		t.Fatalf("critical rollup = %+v", cr)
	}
	if sh.Class != "sheddable" || sh.Violations != 1 || sh.ShedRequests != 500 ||
		sh.Causes["shed"] != 1 {
		t.Fatalf("sheddable rollup = %+v", sh)
	}
	if cr.ViolatedMinutes != 2*30.0/60 {
		t.Fatalf("critical violated minutes = %v", cr.ViolatedMinutes)
	}
}

func TestClasslessReportHasNoClasses(t *testing.T) {
	a := NewAttributor(0)
	a.Observe(Sample{Time: 1, Device: "gpu-0", Service: "resnet50"})
	rep := a.Report(nil, 1)
	if rep.Classes != nil {
		t.Fatalf("classless report grew Classes: %+v", rep.Classes)
	}
}

func TestObserveShedNilAndNoop(t *testing.T) {
	var nilA *Attributor
	nilA.ObserveShed("sheddable", 10) // must not panic
	a := NewAttributor(0)
	a.ObserveShed("", 10)          // unclassed: ignored
	a.ObserveShed("sheddable", 0)  // zero volume: ignored
	a.ObserveShed("sheddable", -1) // negative: ignored
	if rep := a.Report(nil, 1); rep.Classes != nil {
		t.Fatalf("no-op sheds leaked into report: %+v", rep.Classes)
	}
}
