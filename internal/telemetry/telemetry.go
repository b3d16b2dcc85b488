// Package telemetry serves the simulator's observability surfaces over
// HTTP while a run is in flight: a Prometheus text exposition of the
// obs registry (/metrics), the live SLO-violation attribution report
// (/slo), timeline range queries (/timeline) and a server-sent-events
// sample stream (/watch), a liveness probe (/healthz), and the stdlib
// debug endpoints (expvar under /debug/vars, pprof under
// /debug/pprof/). Everything is read-only and snapshot-based —
// handlers never block the simulation, they read the concurrency-safe
// instruments on demand.
//
// The package is stdlib-only by design: the Prometheus text format is
// simple enough to render by hand, and the repo's no-new-dependencies
// rule rules out the client library.
package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"mudi/internal/obs"
	"mudi/internal/span"
	"mudi/internal/timeline"
)

// Options wires the live components into the handler. Every field is
// optional: a nil Sink serves an empty /metrics page, a Log without an
// attributor an empty /slo report.
type Options struct {
	Sink *obs.Sink
	// Log is the run's control-plane record log: its attributor serves
	// /slo, and its drop counts (and the attributor's) feed /metrics
	// and /healthz.
	Log *span.Log
	// Timeline supplies the multi-resolution series behind /timeline
	// and /watch; nil serves 404 on both.
	Timeline *timeline.Store
	// WatchPollInterval is the SSE poll cadence for /watch (default
	// 200 ms; tests shorten it).
	WatchPollInterval time.Duration
}

// Handler returns the telemetry mux.
func Handler(opts Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeProm(w, opts.Sink.Snapshot())
		for _, d := range drops(opts.Log) {
			fmt.Fprintf(w, "# TYPE obs_%[1]s_total counter\nobs_%[1]s_total %[2]d\n", d.name, d.n)
		}
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		rep := opts.Log.Attributor().Report(span.WindowSec)
		if rep == nil {
			rep = &span.SLOReport{WindowSec: span.WindowSec}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		h := map[string]any{"status": "ok"}
		if opts.Log != nil {
			_, sp := opts.Log.Views()
			h["spans"] = sp.Len
		}
		for _, d := range drops(opts.Log) {
			h[d.name] = d.n
		}
		_ = json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/timeline", func(w http.ResponseWriter, r *http.Request) {
		serveTimeline(w, r, opts.Timeline)
	})
	mux.HandleFunc("/watch", func(w http.ResponseWriter, r *http.Request) {
		serveWatch(w, r, opts.Timeline, opts.WatchPollInterval)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

type drop struct {
	name string
	n    int
}

// drops lists what the record log's capped views and its attributor's
// per-violation list left out (nothing without a log).
func drops(l *span.Log) []drop {
	if l == nil {
		return nil
	}
	ev, sp := l.Views()
	return []drop{{"events_dropped", ev.Dropped}, {"spans_dropped", sp.Dropped}, {"violations_dropped", l.Attributor().Dropped()}}
}

// serveTimeline answers timeline range queries. With no parameters it
// returns the series index (timeline.KeyInfo list). With
// ?series=kind[:scope] (or a separate &scope=) it returns the series
// over [from, to]: the finest retained resolution level by default
// ({kind, scope, stride, buckets}), or &res=N for an N-point mean
// resample ({kind, scope, times, values}).
func serveTimeline(w http.ResponseWriter, r *http.Request, st *timeline.Store) {
	if st == nil {
		http.Error(w, "timeline recording disabled", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	series := q.Get("series")
	if series == "" {
		w.Header().Set("Content-Type", "application/json")
		keys := st.Keys()
		if keys == nil {
			keys = []timeline.KeyInfo{}
		}
		_ = json.NewEncoder(w).Encode(keys)
		return
	}
	kindName, scope := series, q.Get("scope")
	if i := strings.IndexByte(series, ':'); i >= 0 {
		kindName, scope = series[:i], series[i+1:]
	}
	kind, err := timeline.ParseKind(kindName)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	from, to := 0.0, math.Inf(1)
	if s := q.Get("from"); s != "" {
		if from, err = strconv.ParseFloat(s, 64); err != nil {
			http.Error(w, "bad from: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	if s := q.Get("to"); s != "" {
		if to, err = strconv.ParseFloat(s, 64); err != nil {
			http.Error(w, "bad to: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if s := q.Get("res"); s != "" {
		res, err := strconv.Atoi(s)
		if err != nil || res <= 0 {
			http.Error(w, "bad res: want a positive integer", http.StatusBadRequest)
			return
		}
		times, values, ok := st.Resample(kind, scope, from, to, res)
		if !ok {
			http.Error(w, "no such series", http.StatusNotFound)
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{
			"kind": kind.String(), "scope": scope,
			"times": times, "values": values,
		})
		return
	}
	lv, ok := st.Range(kind, scope, from, to)
	if !ok {
		http.Error(w, "no such series", http.StatusNotFound)
		return
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"kind": kind.String(), "scope": scope,
		"stride": lv.Stride, "buckets": lv.Buckets,
	})
}

// serveWatch streams timeline samples as server-sent events: one
// `id: <seq>` + `data: <sample JSON>` event per recorded sample, in
// store order, polled at the configured cadence. ?after=<seq> resumes
// past a known sequence number (the SSE Last-Event-ID pattern); the
// backlog is bounded by the store's Recent ring, so long-disconnected
// watchers skip ahead rather than blocking the simulation.
func serveWatch(w http.ResponseWriter, r *http.Request, st *timeline.Store, poll time.Duration) {
	if st == nil {
		http.Error(w, "timeline recording disabled", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	var after uint64
	if s := r.URL.Query().Get("after"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad after: "+err.Error(), http.StatusBadRequest)
			return
		}
		after = v
	} else if s := r.Header.Get("Last-Event-ID"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			after = v
		}
	}
	fmt.Fprint(w, ": timeline stream\n\n")
	fl.Flush()
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	ctx := r.Context()
	var buf []timeline.Sample
	for {
		buf = st.Since(after, buf[:0])
		for _, smp := range buf {
			b, err := json.Marshal(smp)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", smp.Seq, b)
			after = smp.Seq
		}
		if len(buf) > 0 {
			fl.Flush()
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// splitName separates a registry name built by obs.Labeled into the
// bare metric name and the label list (brace contents, no braces).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// promLine renders one sample, splicing extra labels (e.g. le) into
// the metric's existing label set.
func promLine(w *strings.Builder, base, labels, extra string, value string) {
	w.WriteString(base)
	if labels != "" || extra != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		if labels != "" && extra != "" {
			w.WriteByte(',')
		}
		w.WriteString(extra)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

func formatVal(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeProm renders the snapshot in the Prometheus text exposition
// format, deterministically ordered: families sorted by bare name,
// samples inside a family by full registry name.
func writeProm(w http.ResponseWriter, m *obs.Metrics) {
	if m == nil {
		return
	}
	var b strings.Builder
	renderScalar := func(vals map[string]float64, typ string) {
		fams := make(map[string][]string, len(vals))
		for name := range vals {
			base, _ := splitName(name)
			fams[base] = append(fams[base], name)
		}
		for _, base := range sortedFamilyKeys(fams) {
			fmt.Fprintf(&b, "# TYPE %s %s\n", base, typ)
			names := fams[base]
			sort.Strings(names)
			for _, name := range names {
				_, labels := splitName(name)
				promLine(&b, base, labels, "", formatVal(vals[name]))
			}
		}
	}
	renderScalar(m.Counters, "counter")
	renderScalar(m.Gauges, "gauge")

	hfams := make(map[string][]string, len(m.Histograms))
	for name := range m.Histograms {
		base, _ := splitName(name)
		hfams[base] = append(hfams[base], name)
	}
	for _, base := range sortedFamilyKeys(hfams) {
		fmt.Fprintf(&b, "# TYPE %s histogram\n", base)
		names := hfams[base]
		sort.Strings(names)
		for _, name := range names {
			_, labels := splitName(name)
			h := m.Histograms[name]
			for _, bk := range h.Buckets {
				le := `le="` + formatVal(bk.Le) + `"`
				promLine(&b, base+"_bucket", labels, le, strconv.FormatUint(bk.Count, 10))
			}
			promLine(&b, base+"_bucket", labels, `le="+Inf"`, strconv.FormatUint(h.Count, 10))
			promLine(&b, base+"_sum", labels, "", formatVal(h.Sum))
			promLine(&b, base+"_count", labels, "", strconv.FormatUint(h.Count, 10))
		}
	}
	_, _ = w.Write([]byte(b.String()))
}

func sortedFamilyKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
