package obs_test

import (
	"testing"

	"mudi/internal/obs"
	"mudi/internal/span"
)

// TestEventLogBounded: a run's event view keeps events up to its cap,
// counts the rest as dropped, and hands out copies.
func TestEventLogBounded(t *testing.T) {
	l := span.NewLog(2, 0, nil)
	for i := 0; i < 5; i++ {
		l.Add(span.Record{Act: span.ActRetune, Time: float64(i), Device: "gpu-0"})
	}
	ev, _ := l.Views()
	if ev.Len != 2 {
		t.Fatalf("len = %d, want 2", ev.Len)
	}
	if ev.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", ev.Dropped)
	}
	evs := l.Events()
	if len(evs) != 2 || evs[0].Type != obs.EventRetune || evs[1].Time != 1 {
		t.Fatalf("events = %+v, want the first two retunes", evs)
	}
	evs[0].Time = 99 // copies, not aliases
	if l.Events()[0].Time != 0 {
		t.Fatal("Events() must return a copy")
	}
}

// TestSinkEmitFansOut: an event-only run log hands each event to its
// Observer as the record is added and keeps it in its event view.
func TestSinkEmitFansOut(t *testing.T) {
	var seen []obs.Event
	l := span.NewRunLog(true, false, func(e obs.Event) { seen = append(seen, e) })
	l.Add(span.Record{Act: span.ActBatch, Time: 1, Device: "gpu-0", Value: 128})
	ev, sp := l.Views()
	if len(seen) != 1 || ev.Len != 1 {
		t.Fatalf("observer saw %d, log has %d; want 1/1", len(seen), ev.Len)
	}
	if seen[0] != l.Events()[0] || seen[0].Type != obs.EventBatchChanged || seen[0].Value != 128 {
		t.Fatalf("observer saw %+v, log holds %+v", seen[0], l.Events()[0])
	}
	if sp != (span.View{}) || l.Attributor() != nil {
		t.Fatalf("event-only run log has a span view %+v or an attributor", sp)
	}
}
