package span

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"mudi/internal/obs"
)

func TestNilLogSafe(t *testing.T) {
	var l *Log
	l.Add(Record{Act: ActRetune, Device: "gpu-0"})
	if l.Events() != nil || l.Spans(10) != nil || l.Attributor() != nil {
		t.Fatal("nil log leaked state")
	}
	if ev, sp := l.Views(); ev != (View{}) || sp != (View{}) {
		t.Fatal("nil log reports views")
	}
}

func TestNilLogZeroAllocs(t *testing.T) {
	var l *Log
	allocs := testing.AllocsPerRun(100, func() {
		if l != nil {
			l.Add(Record{Act: ActMigrated, Time: 1, Task: "bert"})
		}
		l.Add(Record{Act: ActPlaced, Time: 2})
	})
	if allocs != 0 {
		t.Fatalf("nil log path allocated %v per run, want 0", allocs)
	}
}

// TestLogPairsIntervals: one record stream renders both views — a
// retune's start record precedes its bo_iter children, its end record
// carries the Configure outcome, the rescale it applies nests under
// it, and a migration's placed record closes it with its destination.
func TestLogPairsIntervals(t *testing.T) {
	var seen []obs.Event
	l := NewLog(obs.DefEventCap, DefSpanCap, nil)
	l.Observer = func(e obs.Event) { seen = append(seen, e) }
	for _, r := range []Record{
		{Act: ActRetune, Time: 10, Device: "gpu-0", Service: "bert", Task: "gpt2-train", Batch: 8, Delta: 0.5, Cause: "qps-change"},
		{Act: ActBOIter, Time: 10, End: 10, Device: "gpu-0", Service: "bert", Batch: 16, Delta: 0.4, Value: 42},
		{Act: ActRetuneEnd, Time: 10, Device: "gpu-0", Service: "bert", Batch: 16, Delta: 0.4, Value: 1, Cause: "infeasible"},
		{Act: ActRescale, Time: 10, End: 30, Device: "gpu-0", Service: "bert", Task: "gpt2-train", Batch: 16, Delta: -0.1, Value: 0.4},
		{Act: ActMigrated, Time: 12, Device: "gpu-0", Service: "bert", Task: "gpt2-train", Value: 7, Cause: "pause-evict"},
		{Act: ActPlaced, Time: 20, Device: "gpu-1", Service: "yolo", Task: "gpt2-train", Value: 7},
	} {
		l.Add(r)
	}
	spans := l.Spans(100)
	kinds := []Kind{KindRetune, KindBOIter, KindRescale, KindShadowSpinup, KindShadowSwap, KindMigrate}
	if len(spans) != len(kinds) {
		t.Fatalf("spans = %+v, want kinds %v", spans, kinds)
	}
	for i, k := range kinds {
		if spans[i].Kind != k || spans[i].ID != ID(i+1) {
			t.Fatalf("span %d = %+v, want kind %v id %d", i, spans[i], k, i+1)
		}
	}
	rt := spans[0]
	if rt.End != 10 || rt.Batch != 16 || rt.Delta != 0.4 || rt.Value != 1 || rt.Cause != "qps-change;infeasible" || rt.Task != "gpt2-train" {
		t.Fatalf("retune span = %+v", rt)
	}
	if spans[1].Parent != 1 || spans[2].Parent != 1 || spans[3].Parent != 3 || spans[4].Parent != 3 {
		t.Fatalf("parents = %d %d %d %d, want 1 1 3 3", spans[1].Parent, spans[2].Parent, spans[3].Parent, spans[4].Parent)
	}
	if sw := spans[4]; sw.Start != 30 || sw.End != 30 || sw.Value != 0.4 {
		t.Fatalf("shadow_swap = %+v", sw)
	}
	if mg := spans[5]; mg.End != 20 || mg.Task != "gpt2-train>gpu-1" || mg.Cause != "pause-evict" {
		t.Fatalf("migrate span = %+v", mg)
	}
	types := []obs.EventType{obs.EventRetune, obs.EventGPURescaled, obs.EventShadowSwap, obs.EventTaskMigrated, obs.EventTaskPlaced}
	events := l.Events()
	if len(events) != len(types) || len(seen) != len(types) {
		t.Fatalf("events = %+v, observer saw %d; want %v", events, len(seen), types)
	}
	for i, typ := range types {
		if events[i].Type != typ || events[i] != seen[i] {
			t.Fatalf("event %d = %+v (observer %+v), want %v", i, events[i], seen[i], typ)
		}
	}
	if events[0].Task != "" || events[1].Value != 0.4 {
		t.Fatalf("retune/rescale events carry span-only fields: %+v %+v", events[0], events[1])
	}
}

// TestLogCapacity: each view keeps exactly the prefix an uncapped view
// starts with and counts the rest; the Observer still sees every event;
// the log keeps the end record of an interval whose span it kept after
// both views fill, and stops retaining anything else.
func TestLogCapacity(t *testing.T) {
	recs := []Record{
		{Act: ActOutage, Time: 1, Device: "gpu-0", Cause: "device-failed"},
		{Act: ActMigrated, Time: 1, Device: "gpu-0", Task: "bert", Value: 3},
		{Act: ActBatch, Time: 2, Device: "gpu-1", Value: 32},
		{Act: ActBOIter, Time: 3, Device: "gpu-1"},
		{Act: ActSLOViolation, Time: 4, Device: "gpu-1", Value: 90},
		{Act: ActRecovered, Time: 9, Device: "gpu-0"},
	}
	full := NewLog(obs.DefEventCap, DefSpanCap, nil)
	observed := 0
	capped := NewLog(2, 1, nil)
	capped.Observer = func(obs.Event) { observed++ }
	for _, r := range recs {
		full.Add(r)
		capped.Add(r)
	}
	if observed != len(full.Events()) {
		t.Fatalf("observer saw %d events, want %d", observed, len(full.Events()))
	}
	if got, want := capped.Events(), full.Events()[:2]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("capped events = %+v, want prefix %+v", got, want)
	}
	spans := capped.Spans(20)
	if len(spans) != 1 || spans[0] != full.Spans(20)[0] || spans[0].End != 9 {
		t.Fatalf("capped spans = %+v, want the closed outage prefix", spans)
	}
	if ev, sp := capped.Views(); ev != (View{Cap: 2, Len: 2, Dropped: 3}) || sp != (View{Cap: 1, Len: 1, Dropped: 2}) {
		t.Fatalf("views = %+v events, %+v spans; want 2 kept 3 dropped, 1 kept 2 dropped", ev, sp)
	}
	// Outage, migrate (its event), and the outage's recovery record.
	if len(capped.recs) != 3 {
		t.Fatalf("capped log retains %d records, want 3", len(capped.recs))
	}
}

// TestTracerLifecycle: span IDs are ordinals from 1, a probe nests
// under its device's retune, an end record fills in the outcome it
// carries, an end before the start clamps to the start, and a second
// end record for a closed interval changes nothing.
func TestTracerLifecycle(t *testing.T) {
	l := NewLog(0, DefSpanCap, nil)
	l.Add(Record{Act: ActRetune, Time: 10, Device: "gpu-0"})
	l.Add(Record{Act: ActBOIter, Time: 10, End: 10, Device: "gpu-0", Value: 42})
	l.Add(Record{Act: ActRetuneEnd, Time: 10, Device: "gpu-0", Batch: 16, Delta: 0.4})
	l.Add(Record{Act: ActMigrated, Time: 20, Device: "gpu-0", Task: "bert", Value: 7})
	l.Add(Record{Act: ActPlaced, Time: 15, Device: "gpu-1", Task: "bert", Value: 7})
	l.Add(Record{Act: ActPlaced, Time: 99, Device: "gpu-2", Task: "bert", Value: 7})
	spans := l.Spans(100)
	if len(spans) != 3 {
		t.Fatalf("spans = %+v, want 3", spans)
	}
	for i, s := range spans {
		if s.ID != ID(i+1) {
			t.Fatalf("span %d ID = %d, want %d", i, s.ID, i+1)
		}
	}
	if p := spans[0]; p.Kind != KindRetune || p.Start != 10 || p.End != 10 || p.Batch != 16 || p.Delta != 0.4 {
		t.Fatalf("retune span = %+v", p)
	}
	if c := spans[1]; c.Kind != KindBOIter || c.Parent != spans[0].ID || c.Value != 42 {
		t.Fatalf("bo_iter span = %+v, want child of %d", c, spans[0].ID)
	}
	if m := spans[2]; m.Kind != KindMigrate || m.End != 20 || m.Task != "bert>gpu-1" {
		t.Fatalf("migrate span = %+v, want End clamped to 20 and destination gpu-1", m)
	}
}

// TestTracerCapacity: a span view full at its cap renders only the
// spans it admitted and counts every span past the cap, whole records
// and a rescale's shadow children alike.
func TestTracerCapacity(t *testing.T) {
	l := NewLog(0, 2, nil)
	l.Add(Record{Act: ActMemSwap, Time: 1, End: 2, Device: "gpu-0"})
	l.Add(Record{Act: ActMigrated, Time: 1, Device: "gpu-0", Value: 1})
	l.Add(Record{Act: ActMemSwap, Time: 3, End: 4, Device: "gpu-0"})
	l.Add(Record{Act: ActRescale, Time: 5, End: 6, Device: "gpu-0", Value: 0.5})
	if _, sp := l.Views(); sp != (View{Cap: 2, Len: 2, Dropped: 4}) {
		t.Fatalf("span view = %+v, want 2 kept 4 dropped", sp)
	}
	spans := l.Spans(10)
	if len(spans) != 2 || spans[0].Kind != KindMemSwap || spans[1].Kind != KindMigrate {
		t.Fatalf("capped spans = %+v, want the mem_swap and migrate prefix", spans)
	}
}

// TestLogConcurrentAdd adds records from many goroutines while another
// reads the live counts; under -race this proves a log is safe to share
// with the telemetry handlers while a run writes it.
func TestLogConcurrentAdd(t *testing.T) {
	const workers, per = 8, 500
	l := NewLog(1000, 1000, NewAttributor(0))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dev := fmt.Sprintf("gpu-%d", w)
			for i := 0; i < per; i++ {
				l.Add(Record{Act: ActMemSwap, Time: float64(i), End: float64(i), Device: dev})
				l.Views()
			}
		}(w)
	}
	wg.Wait()
	ev, sp := l.Views()
	if ev.Len+ev.Dropped != workers*per || sp.Len+sp.Dropped != workers*per {
		t.Fatalf("events %+v, spans %+v; want %d each", ev, sp, workers*per)
	}
}

func TestCloseOpen(t *testing.T) {
	l := NewLog(0, DefSpanCap, nil)
	l.Add(Record{Act: ActOutage, Time: 5, Device: "gpu-0"})
	l.Add(Record{Act: ActMigrated, Time: 50, Device: "gpu-0", Value: 1})
	spans := l.Spans(30)
	if spans[0].End != 30 {
		t.Fatalf("outage End = %v, want 30", spans[0].End)
	}
	if spans[1].End != 50 { // clamped to Start
		t.Fatalf("migrate End = %v, want 50", spans[1].End)
	}
	if l.Events() != nil {
		t.Fatal("log without an event view rendered events")
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
	spans := []Span{
		{ID: 1, Kind: KindRescale, Start: 1.0, End: 1.5, Device: "gpu-0", Service: "resnet50"},
		{ID: 2, Kind: KindShadowSpinup, Parent: 1, Start: 1.0, End: 1.2, Device: "gpu-0", Service: "resnet50"},
		{ID: 3, Kind: KindRetune, Start: 2.0, End: 2.0, Device: "gpu-1", Cause: "qps-change"},
		{ID: 4, Kind: KindBOIter, Parent: 3, Start: 2.0, End: 2.0, Device: "gpu-1", Value: 33},
		{ID: 5, Kind: KindOutage, Start: 0.5, End: 3.0, Device: "gpu-0", Cause: "mtbf"},
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
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

// feed drives an attributor the way a run does: control records
// through a log, violations directly, in time order per device.
func feed(a *Attributor, items ...any) {
	l := NewLog(0, 0, a)
	for _, it := range items {
		switch it := it.(type) {
		case Record:
			l.Add(it)
		case Sample:
			a.Observe(it)
		}
	}
}

func TestAttributionPriority(t *testing.T) {
	cases := []struct {
		name string
		s    Sample
		want Cause
	}{
		{"during outage", Sample{Time: 120, Device: "gpu-0"}, CauseDeviceFault},
		{"fault beats rescale", Sample{Time: 149, Device: "gpu-0", Residents: []string{"bert"}}, CauseDeviceFault},
		{"in fault grace", Sample{Time: 150 + FaultGraceSec - 1, Device: "gpu-0"}, CauseDeviceFault},
		{"during rescale", Sample{Time: 210, Device: "gpu-0", Residents: []string{"bert"}}, CauseRescale},
		{"burst beats interference", Sample{Time: 300, Device: "gpu-0", QPS: 200, BaseQPS: 100, Residents: []string{"bert"}}, CauseBurstOverload},
		{"interference", Sample{Time: 301, Device: "gpu-0", QPS: 110, BaseQPS: 100, Residents: []string{"bert"}}, CauseInterference},
		{"queueing fallback", Sample{Time: 302, Device: "gpu-0", QPS: 110, BaseQPS: 100}, CauseQueueing},
		{"other device unaffected", Sample{Time: 120, Device: "gpu-1"}, CauseQueueing},
	}
	a := NewAttributor(0)
	feed(a,
		Record{Act: ActOutage, Time: 100, Device: "gpu-0"},
		cases[0].s, cases[1].s,
		Record{Act: ActRecovered, Time: 150, Device: "gpu-0"},
		cases[2].s,
		Record{Act: ActRescale, Time: 200, End: 220, Device: "gpu-0"},
		cases[3].s, cases[4].s, cases[5].s, cases[6].s, cases[7].s,
	)
	rep := a.Report(1)
	if rep.Total != len(cases) {
		t.Fatalf("total = %d, want %d", rep.Total, len(cases))
	}
	for i, c := range cases {
		if got := rep.Violations[i].Cause; got != c.want {
			t.Errorf("%s: cause = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestAttributionSameTimeControl: a rescale or outage that starts at a
// violation's own simulated time — the barrier's control phase reacting
// to the window — explains it; one that starts later does not. The
// cause is final once the device's clock moves on, and a mid-run report
// classifies still-pending violations against the current state.
func TestAttributionSameTimeControl(t *testing.T) {
	a := NewAttributor(0)
	feed(a,
		Sample{Time: 10, Device: "gpu-0", Service: "bert"},
		Record{Act: ActRescale, Time: 10, End: 10, Device: "gpu-0"},
		Sample{Time: 11, Device: "gpu-0", Service: "bert"},
		Record{Act: ActRescale, Time: 12, End: 40, Device: "gpu-0"},
		Sample{Time: 20, Device: "gpu-1", Service: "bert"},
	)
	mid := a.Report(1)
	feed(a, Record{Act: ActOutage, Time: 20, Device: "gpu-1"})
	want := []Cause{CauseRescale, CauseQueueing, CauseDeviceFault}
	for i, c := range want {
		if got := a.Report(1).Violations[i].Cause; got != c {
			t.Errorf("violation %d: cause = %v, want %v", i, got, c)
		}
	}
	if got := mid.Violations[2].Cause; got != CauseQueueing {
		t.Errorf("mid-run report: pending violation cause = %v, want queueing", got)
	}
}

// TestAttributorCapCountsEverything: the per-violation list stops at
// its cap and counts the rest as dropped, while the total and every
// roll-up still count all violations.
func TestAttributorCapCountsEverything(t *testing.T) {
	a := NewAttributor(2)
	for i := 0; i < 5; i++ {
		a.Observe(Sample{Time: float64(i), Device: "gpu-0", Service: "bert", Class: "critical", Residents: []string{"gpt2"}})
	}
	rep := a.Report(1)
	if rep.Total != 5 || len(rep.Violations) != 2 || a.Dropped() != 3 {
		t.Fatalf("total %d, listed %d, dropped %d; want 5, 2, 3", rep.Total, len(rep.Violations), a.Dropped())
	}
	svc, cls := rep.Services[0], rep.Classes[0]
	if svc.Violations != 5 || svc.Causes["interference"] != 5 || svc.TopOffenderHits != 5 || cls.Violations != 5 {
		t.Fatalf("roll-ups miss dropped violations: %+v %+v", svc, cls)
	}
}

func TestReportRollup(t *testing.T) {
	a := NewAttributor(0)
	for i := 0; i < 3; i++ {
		a.Observe(Sample{Time: float64(i), Device: "gpu-0", Service: "resnet50", Residents: []string{"bert", "gpt2"}})
	}
	a.Observe(Sample{Time: 10, Device: "gpu-0", Service: "resnet50", Residents: []string{"bert"}})
	a.Observe(Sample{Time: 11, Device: "gpu-1", Service: "yolov5"})
	rep := a.Report(30)
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
	if a.Dropped() != 0 || a.Report(1) != nil {
		t.Fatal("nil attributor leaked state")
	}
}

func TestShedClassification(t *testing.T) {
	cases := []struct {
		name string
		s    Sample
		want Cause
	}{
		{"fault beats shed", Sample{Time: 120, Device: "gpu-0", ShedQPS: 50}, CauseDeviceFault},
		{"rescale beats shed", Sample{Time: 210, Device: "gpu-0", ShedQPS: 50}, CauseRescale},
		// Shed slots between rescale and burst: admission control was
		// actively dropping load, so the window belongs to the shed
		// regime even though the offered rate was way past the burst bar.
		{"shed beats burst", Sample{Time: 300, Device: "gpu-0", QPS: 300, BaseQPS: 100, ShedQPS: 250}, CauseShed},
		{"no shed falls through", Sample{Time: 301, Device: "gpu-0", QPS: 300, BaseQPS: 100}, CauseBurstOverload},
	}
	a := NewAttributor(0)
	feed(a,
		Record{Act: ActOutage, Time: 100, Device: "gpu-0"},
		cases[0].s,
		Record{Act: ActRecovered, Time: 150, Device: "gpu-0"},
		Record{Act: ActRescale, Time: 200, End: 220, Device: "gpu-0"},
		cases[1].s, cases[2].s, cases[3].s,
	)
	rep := a.Report(1)
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
	rep := a.Report(30)
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
	rep := a.Report(1)
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
	if rep := a.Report(1); rep.Classes != nil {
		t.Fatalf("no-op sheds leaked into report: %+v", rep.Classes)
	}
}
