package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mudi/internal/obs"
	"mudi/internal/span"
	"mudi/internal/timeline"
)

func get(t *testing.T, opts Options, path string) *httptest.ResponseRecorder {
	t.Helper()
	h := Handler(opts)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func TestMetricsPrometheusText(t *testing.T) {
	sink := obs.NewSink()
	sink.Counter("cluster_windows_total").Add(42)
	sink.Gauge("cluster_sm_util").Set(0.75)
	h := sink.Histogram(obs.Labeled("inf_latency_ms", "gpu0000", "bert"), []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)

	rec := get(t, Options{Sink: sink}, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE cluster_windows_total counter\n",
		"cluster_windows_total 42\n",
		"# TYPE cluster_sm_util gauge\n",
		"cluster_sm_util 0.75\n",
		"# TYPE inf_latency_ms histogram\n",
		`inf_latency_ms_bucket{device="gpu0000",service="bert",le="10"} 1` + "\n",
		`inf_latency_ms_bucket{device="gpu0000",service="bert",le="100"} 2` + "\n",
		`inf_latency_ms_bucket{device="gpu0000",service="bert",le="+Inf"} 3` + "\n",
		`inf_latency_ms_sum{device="gpu0000",service="bert"} 555` + "\n",
		`inf_latency_ms_count{device="gpu0000",service="bert"} 3` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

func TestMetricsEmptySink(t *testing.T) {
	rec := get(t, Options{}, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("expected empty body, got %q", rec.Body.String())
	}
}

func TestSLOReportJSON(t *testing.T) {
	attr := span.NewAttributor(0)
	log := span.NewLog(0, span.DefSpanCap, attr)
	// One violation on a device with an overlapping outage: the report
	// must classify it device_fault.
	log.Add(span.Record{Act: span.ActOutage, Time: 5, Device: "gpu0000"})
	attr.Observe(span.Sample{
		Time: 10, Device: "gpu0000", Service: "bert",
		LatencyMs: 200, BudgetMs: 100, QPS: 50, BaseQPS: 100,
	})
	log.Add(span.Record{Act: span.ActRecovered, Time: 40, Device: "gpu0000"})

	rec := get(t, Options{Log: log}, "/slo")
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var rep span.SLOReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, rec.Body.String())
	}
	if rep.Total != 1 || len(rep.Services) != 1 {
		t.Fatalf("report %+v", rep)
	}
	svc := rep.Services[0]
	if svc.Service != "bert" || svc.Causes["device_fault"] != 1 {
		t.Fatalf("service rollup %+v", svc)
	}
}

func TestSLOEmptyWhenDisabled(t *testing.T) {
	rec := get(t, Options{}, "/slo")
	var rep span.SLOReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if rep.Total != 0 || rep.WindowSec != span.WindowSec {
		t.Fatalf("report %+v", rep)
	}
}

// tinyLog is a record log whose event view, span view and violation
// list each overflow by one.
func tinyLog() *span.Log {
	attr := span.NewAttributor(1)
	log := span.NewLog(1, 1, attr)
	log.Add(span.Record{Act: span.ActRetune, Device: "gpu0000"})
	log.Add(span.Record{Act: span.ActBOIter, Device: "gpu0000"})
	log.Add(span.Record{Act: span.ActBatch, Device: "gpu0000"})
	attr.Observe(span.Sample{Time: 1, Device: "gpu0000", Service: "bert"})
	attr.Observe(span.Sample{Time: 2, Device: "gpu0000", Service: "bert"})
	return log
}

func TestHealthz(t *testing.T) {
	rec := get(t, Options{Log: tinyLog(), Version: "test"}, "/healthz")
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var h map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if h["status"] != "ok" || h["version"] != "test" || h["spans"] != float64(1) {
		t.Fatalf("health %v", h)
	}
	for _, name := range []string{"events_dropped", "spans_dropped", "violations_dropped"} {
		if h[name] != float64(1) {
			t.Errorf("%s = %v, want 1 (health %v)", name, h[name], h)
		}
	}
}

// TestMetricsReportDrops: /metrics carries the record log's drop
// counts beside the registry's instruments.
func TestMetricsReportDrops(t *testing.T) {
	body := get(t, Options{Log: tinyLog()}, "/metrics").Body.String()
	for _, name := range []string{"obs_events_dropped_total", "obs_spans_dropped_total", "obs_violations_dropped_total"} {
		if !strings.Contains(body, "# TYPE "+name+" counter\n"+name+" 1\n") {
			t.Errorf("missing %s 1 in:\n%s", name, body)
		}
	}
}

func TestDebugEndpointsRegistered(t *testing.T) {
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		rec := get(t, Options{}, path)
		if rec.Code != 200 {
			t.Errorf("%s: status %d", path, rec.Code)
		}
	}
}

func TestTimelineDisabled(t *testing.T) {
	for _, path := range []string{"/timeline", "/watch"} {
		rec := get(t, Options{}, path)
		if rec.Code != 404 {
			t.Errorf("%s with no store: status %d, want 404", path, rec.Code)
		}
	}
}

// tlStore builds a store with two service-QPS series and a fleet gauge,
// 20 windows each.
func tlStore(t *testing.T) *timeline.Store {
	t.Helper()
	st := timeline.New(timeline.Defaults())
	bert := st.Series(timeline.ServiceQPS, "bert")
	gpt := st.Series(timeline.ServiceQPS, "gpt2")
	util := st.Series(timeline.FleetSMUtil, "")
	for i := 0; i < 20; i++ {
		at := float64(i)
		bert.Add(at, 100+at)
		gpt.Add(at, 50)
		util.Add(at, 0.5)
	}
	return st
}

func TestTimelineIndex(t *testing.T) {
	rec := get(t, Options{Timeline: tlStore(t)}, "/timeline")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var keys []timeline.KeyInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &keys); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, rec.Body.String())
	}
	if len(keys) != 3 {
		t.Fatalf("index %+v, want 3 series", keys)
	}
	// Sorted by (kind, scope); every series saw 20 samples.
	if keys[0].Kind != "fleet_sm_util" || keys[1].Scope != "bert" || keys[2].Scope != "gpt2" {
		t.Fatalf("index order %+v", keys)
	}
	for _, k := range keys {
		if k.Samples != 20 {
			t.Errorf("series %s/%s samples = %d, want 20", k.Kind, k.Scope, k.Samples)
		}
	}
}

func TestTimelineRangeQuery(t *testing.T) {
	opts := Options{Timeline: tlStore(t)}
	rec := get(t, opts, "/timeline?series=service_qps:bert&from=5&to=10")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var got struct {
		Kind    string            `json:"kind"`
		Scope   string            `json:"scope"`
		Stride  int               `json:"stride"`
		Buckets []timeline.Bucket `json:"buckets"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Kind != "service_qps" || got.Scope != "bert" || got.Stride != 1 {
		t.Fatalf("range %+v", got)
	}
	if len(got.Buckets) != 6 || got.Buckets[0].Start != 5 {
		t.Fatalf("buckets %+v, want 6 starting at t=5", got.Buckets)
	}
	// &scope= is the alternative to the kind:scope form.
	rec2 := get(t, opts, "/timeline?series=service_qps&scope=bert&from=5&to=10")
	if rec2.Code != 200 || rec2.Body.String() != rec.Body.String() {
		t.Fatalf("scope param form differs: %d %s", rec2.Code, rec2.Body.String())
	}
}

func TestTimelineResample(t *testing.T) {
	rec := get(t, Options{Timeline: tlStore(t)}, "/timeline?series=service_qps:bert&res=4")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var got struct {
		Times  []float64 `json:"times"`
		Values []float64 `json:"values"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Times) != 4 || len(got.Values) != 4 {
		t.Fatalf("resample %+v, want 4 points", got)
	}
	for i := 1; i < len(got.Values); i++ {
		if got.Values[i] <= got.Values[i-1] {
			t.Fatalf("resampled ramp not increasing: %v", got.Values)
		}
	}
}

func TestTimelineBadRequests(t *testing.T) {
	opts := Options{Timeline: tlStore(t)}
	for path, want := range map[string]int{
		"/timeline?series=nope":                     400,
		"/timeline?series=service_qps:bert&from=x":  400,
		"/timeline?series=service_qps:bert&to=x":    400,
		"/timeline?series=service_qps:bert&res=0":   400,
		"/timeline?series=service_qps:bert&res=x":   400,
		"/timeline?series=service_qps:absent":       404,
		"/timeline?series=service_qps:absent&res=4": 404,
	} {
		if rec := get(t, opts, path); rec.Code != want {
			t.Errorf("%s: status %d, want %d", path, rec.Code, want)
		}
	}
}

// TestWatchSSE drives the live stream end to end over a real
// connection: events arrive in seq order, carry incrementing SSE ids,
// and samples recorded after the subscription turn up on a later poll.
func TestWatchSSE(t *testing.T) {
	st := timeline.New(timeline.Defaults())
	sr := st.Series(timeline.ServiceQPS, "bert")
	sr.Add(0, 100)
	sr.Add(1, 110)
	srv := httptest.NewServer(Handler(Options{Timeline: st, WatchPollInterval: 5 * time.Millisecond}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	type event struct {
		id     uint64
		sample timeline.Sample
	}
	events := make(chan event, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var id uint64
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				id, _ = strconv.ParseUint(line[4:], 10, 64)
			case strings.HasPrefix(line, "data: "):
				var smp timeline.Sample
				if err := json.Unmarshal([]byte(line[6:]), &smp); err != nil {
					return
				}
				events <- event{id, smp}
			}
		}
	}()
	recv := func() event {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("stream closed early")
			}
			return ev
		case <-ctx.Done():
			t.Fatal("timed out waiting for SSE event")
		}
		panic("unreachable")
	}

	first, second := recv(), recv()
	if first.sample.Value != 100 || second.sample.Value != 110 {
		t.Fatalf("backlog out of order: %+v then %+v", first.sample, second.sample)
	}
	if first.id != first.sample.Seq || second.id <= first.id {
		t.Fatalf("ids not increasing with seq: %d then %d", first.id, second.id)
	}
	// A sample recorded after subscription arrives on a later poll.
	sr.Add(2, 120)
	third := recv()
	if third.sample.Value != 120 || third.sample.Kind != "service_qps" || third.sample.Scope != "bert" {
		t.Fatalf("live sample %+v", third.sample)
	}
	cancel()

	// Resume past the first two events: ?after replays only the tail.
	rec := httptest.NewRecorder()
	rctx, rcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer rcancel()
	req2 := httptest.NewRequest("GET", "/watch?after="+strconv.FormatUint(second.id, 10), nil).WithContext(rctx)
	Handler(Options{Timeline: st, WatchPollInterval: 5 * time.Millisecond}).ServeHTTP(rec, req2)
	body := rec.Body.String()
	if strings.Contains(body, `"value":100`) || strings.Contains(body, `"value":110`) {
		t.Fatalf("resume replayed acknowledged events:\n%s", body)
	}
	if !strings.Contains(body, `"value":120`) {
		t.Fatalf("resume missed the tail:\n%s", body)
	}

	if rec := get(t, Options{Timeline: st}, "/watch?after=x"); rec.Code != 400 {
		t.Errorf("bad after: status %d, want 400", rec.Code)
	}
}

// TestMetricsClassLabels pins the per-class Prometheus surface: the
// class-labelled counters the simulation registers on class-aware runs
// render as one family with a class label per series.
func TestMetricsClassLabels(t *testing.T) {
	sink := obs.NewSink()
	sink.Counter(obs.ClassLabeled("cluster_class_shed_requests_total", "sheddable")).Add(480)
	sink.Counter(obs.ClassLabeled("cluster_class_shed_requests_total", "background")).Add(120)
	sink.Counter(obs.ClassLabeled("cluster_class_windows_total", "critical")).Add(900)
	sink.Counter(obs.ClassLabeled("cluster_class_slo_violations_total", "critical")).Add(3)

	body := get(t, Options{Sink: sink}, "/metrics").Body.String()
	for _, want := range []string{
		"# TYPE cluster_class_shed_requests_total counter\n",
		`cluster_class_shed_requests_total{class="background"} 120` + "\n",
		`cluster_class_shed_requests_total{class="sheddable"} 480` + "\n",
		`cluster_class_windows_total{class="critical"} 900` + "\n",
		`cluster_class_slo_violations_total{class="critical"} 3` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

// TestSLOClassBlock: the /slo report carries the per-class roll-up on
// class-aware runs.
func TestSLOClassBlock(t *testing.T) {
	attr := span.NewAttributor(0)
	attr.Observe(span.Sample{
		Time: 10, Device: "gpu0000", Service: "bert", Class: "critical",
		LatencyMs: 200, BudgetMs: 100, QPS: 50, BaseQPS: 100,
	})
	log := span.NewLog(0, 0, attr)
	log.Add(span.Record{Act: span.ActLoadShed, Time: 10, Device: "gpu0001", Value: 480 / span.WindowSec, Cause: "sheddable"})

	rec := get(t, Options{Log: log}, "/slo")
	var rep span.SLOReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, rec.Body.String())
	}
	if len(rep.Classes) != 2 {
		t.Fatalf("classes %+v, want critical + sheddable", rep.Classes)
	}
	byClass := map[string]span.ClassSLO{}
	for _, c := range rep.Classes {
		byClass[c.Class] = c
	}
	if byClass["critical"].Violations != 1 || byClass["sheddable"].ShedRequests != 480 {
		t.Fatalf("class roll-up %+v", byClass)
	}
}
