package cluster

import (
	"encoding/json"
	"testing"

	"mudi/internal/obs"
	"mudi/internal/span"
)

// TestCappedViewsCountDrops forces tiny caps on the record log's event
// and span views and on the attributor's per-violation list, and checks
// that a faulted, bursty, classed run surfaces every drop on the Result:
// each capped view is exactly the prefix of the uncapped run's view,
// its drop count is the remainder, and the SLO report's total and
// roll-ups still count every violation.
func TestCappedViewsCountDrops(t *testing.T) {
	const events, spans, violations = 16, 16, 4
	full := shardRun(t, 7, 6, 8, func(o *Options) {
		burstFaultWorkload(o)
		o.Log = span.NewRunLog(true, true, nil)
	})
	observed := 0
	capped := shardRun(t, 7, 6, 8, func(o *Options) {
		burstFaultWorkload(o)
		o.Log = span.NewLog(events, spans, span.NewAttributor(violations))
		o.Log.Observer = func(obs.Event) { observed++ }
	})
	if full.EventsDropped != 0 || full.SpansDropped != 0 || full.ViolationsDropped != 0 {
		t.Fatalf("default caps dropped %d events, %d spans, %d violations on a small run",
			full.EventsDropped, full.SpansDropped, full.ViolationsDropped)
	}
	rep, fullRep := capped.SLOReport, full.SLOReport
	if observed != len(full.Events) || fullRep.Total <= violations {
		t.Fatalf("workload too small to overflow: %d events, %d violations", len(full.Events), fullRep.Total)
	}
	asJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, c := range []struct {
		name          string
		got, want     any
		dropped, over int
	}{
		{"events", capped.Events, full.Events[:events], capped.EventsDropped, len(full.Events) - events},
		{"spans", capped.Spans, full.Spans[:spans], capped.SpansDropped, len(full.Spans) - spans},
		{"violations", rep.Violations, fullRep.Violations[:violations], capped.ViolationsDropped, fullRep.Total - violations},
	} {
		if asJSON(c.got) != asJSON(c.want) {
			t.Errorf("capped %s are not the uncapped run's prefix", c.name)
		}
		if c.dropped != c.over {
			t.Errorf("%s dropped = %d, want %d", c.name, c.dropped, c.over)
		}
	}
	if rep.Total != fullRep.Total || asJSON(rep.Services) != asJSON(fullRep.Services) || asJSON(rep.Classes) != asJSON(fullRep.Classes) {
		t.Errorf("capped report's total and roll-ups differ from the uncapped report's")
	}
	if capped.Summary() != full.Summary() {
		t.Error("capping the record log perturbed the summary")
	}
}
