package mudi

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"testing"
)

// small returns quick simulation options shared by the observation
// tests.
func small() SimOptions {
	return SimOptions{Devices: 4, Tasks: 5, MeanGapSec: 5, IterScale: 0.001}
}

// TestObserverDoesNotPerturbSummary is the observability layer's core
// contract: an observed run and an unobserved run of the same options
// produce byte-identical Result summaries. Each run gets a fresh
// System: the Mudi policy learns co-location profiles online, so a
// shared System is stateful across Simulate calls by design.
func TestObserverDoesNotPerturbSummary(t *testing.T) {
	newSys := func() *System {
		sys, err := NewSystem(SystemConfig{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	plain, err := newSys().Simulate(small())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []Event
	opts := small()
	opts.Observer = func(e Event) {
		mu.Lock()
		seen = append(seen, e)
		mu.Unlock()
	}
	observed, err := newSys().Simulate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Summary() != observed.Summary() {
		t.Error("observation perturbed Result.Summary()")
	}
	if len(seen) == 0 {
		t.Fatal("observer saw no events")
	}
	if len(observed.Events) != len(seen) {
		t.Errorf("log kept %d events, observer saw %d", len(observed.Events), len(seen))
	}
	if observed.Metrics == nil {
		t.Fatal("observed run has no metrics snapshot")
	}
	if plain.Events != nil || plain.Metrics != nil {
		t.Error("unobserved run collected observability state")
	}
}

// TestObserveWithoutObserver: Observe=true alone fills Result.Events /
// Result.Metrics, and both exports render NDJSON.
func TestObserveWithoutObserver(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	opts := small()
	opts.Observe = true
	res, err := sys.Simulate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 || res.Metrics == nil {
		t.Fatalf("Observe=true collected events=%d metrics=%v", len(res.Events), res.Metrics != nil)
	}
	var ev, met bytes.Buffer
	if err := WriteEventsNDJSON(&ev, res.Events); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetricsNDJSON(&met, res.Metrics); err != nil {
		t.Fatal(err)
	}
	if ev.Len() == 0 || met.Len() == 0 {
		t.Fatalf("NDJSON exports empty: events=%d metrics=%d", ev.Len(), met.Len())
	}
	// The taxonomy must include at least a placement and a retune on any
	// non-trivial run.
	types := make(map[EventType]bool)
	for _, e := range res.Events {
		types[e.Type] = true
	}
	for _, want := range []EventType{EventTaskPlaced, EventRetune} {
		if !types[want] {
			t.Errorf("event stream missing %v", want)
		}
	}
}

// TestSimulateContextCancel: a pre-cancelled context aborts the run
// with ctx.Err() instead of a result.
func TestSimulateContextCancel(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.SimulateContext(ctx, small()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestValidate exercises the typed option errors.
func TestValidate(t *testing.T) {
	cases := []struct {
		name  string
		opts  SimOptions
		field string
	}{
		{"mig-high", SimOptions{MIGSlices: 8}, "MIGSlices"},
		{"mig-negative", SimOptions{MIGSlices: -1}, "MIGSlices"},
		{"load-negative", SimOptions{LoadFactor: -0.5}, "LoadFactor"},
		{"devices-negative", SimOptions{Devices: -3}, "Devices"},
		{"tasks-negative", SimOptions{Tasks: -1}, "Tasks"},
		{"gap-negative", SimOptions{MeanGapSec: -1}, "MeanGapSec"},
		{"iter-negative", SimOptions{IterScale: -0.1}, "IterScale"},
		{"queue-unknown", SimOptions{Queue: "lifo"}, "Queue"},
		{"burst-bad", SimOptions{Bursts: []Burst{{Start: 10, End: 5}}}, "Bursts"},
		{"burst-nan", SimOptions{Bursts: []Burst{{Start: math.NaN(), End: 5, Factor: 2}}}, "Bursts"},
		{"burst-end-nan", SimOptions{Bursts: []Burst{{Start: 1, End: math.NaN(), Factor: 2}}}, "Bursts"},
		{"burst-start-inf", SimOptions{Bursts: []Burst{{Start: math.Inf(1), End: math.Inf(1), Factor: 2}}}, "Bursts"},
		{"load-nan", SimOptions{LoadFactor: math.NaN()}, "LoadFactor"},
		{"load-inf", SimOptions{LoadFactor: math.Inf(1)}, "LoadFactor"},
		{"gap-nan", SimOptions{MeanGapSec: math.NaN()}, "MeanGapSec"},
		{"gap-inf", SimOptions{MeanGapSec: math.Inf(1)}, "MeanGapSec"},
		{"iter-nan", SimOptions{IterScale: math.NaN()}, "IterScale"},
		{"iter-inf", SimOptions{IterScale: math.Inf(1)}, "IterScale"},
		{"arrival-negative", SimOptions{Arrivals: []TaskArrival{{At: 0}, {At: -1}}}, "Arrivals"},
		{"arrival-nan", SimOptions{Arrivals: []TaskArrival{{At: math.NaN()}}}, "Arrivals"},
		{"arrival-inf", SimOptions{Arrivals: []TaskArrival{{At: math.Inf(1)}}}, "Arrivals"},
		{"faults-mtbf-nan", SimOptions{Faults: &FaultConfig{DeviceMTBFSec: math.NaN()}}, "Faults"},
		{"faults-mttr-nan", SimOptions{Faults: &FaultConfig{DeviceMTBFSec: 100, DeviceMTTRSec: math.NaN()}}, "Faults"},
		{"faults-measure-nan", SimOptions{Faults: &FaultConfig{MeasureErrRate: math.NaN()}}, "Faults"},
		{"faults-spinup-nan", SimOptions{Faults: &FaultConfig{SpinUpFailRate: math.NaN()}}, "Faults"},
		{"faults-pcie-nan", SimOptions{Faults: &FaultConfig{PCIeDegradeFactor: math.NaN()}}, "Faults"},
		{"faults-pcie-mtbf-nan", SimOptions{Faults: &FaultConfig{PCIeDegradeFactor: 4, PCIeMTBFSec: math.NaN()}}, "Faults"},
		{"faults-pcie-mttr-nan", SimOptions{Faults: &FaultConfig{PCIeDegradeFactor: 4, PCIeMTTRSec: math.NaN()}}, "Faults"},
		{"faults-mtbf-inf", SimOptions{Faults: &FaultConfig{DeviceMTBFSec: math.Inf(1)}}, "Faults"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("err = %v, want *OptionError", err)
			}
			if oe.Field != tc.field {
				t.Errorf("field = %q, want %q", oe.Field, tc.field)
			}
			if oe.Error() == "" {
				t.Error("empty error message")
			}
		})
	}
	// Zero options are all-defaults and must validate.
	if err := (SimOptions{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	// A burst with End +Inf lasts to the end of the run.
	if err := (SimOptions{Bursts: []Burst{{Start: 5, End: math.Inf(1), Factor: 2}}}).Validate(); err != nil {
		t.Errorf("open-ended burst rejected: %v", err)
	}
}

// TestTypedBaselineAndQueueIDs drives the typed constants through a
// simulation.
func TestTypedBaselineAndQueueIDs(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range Baselines() {
		p, err := sys.BaselinePolicy(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if p.Name() == "" {
			t.Fatalf("%s has no name", id)
		}
	}
	if _, err := sys.BaselinePolicy("bogus"); err == nil {
		t.Fatal("bogus baseline accepted")
	}
	gslice, err := sys.BaselinePolicy(BaselineGSLICE)
	if err != nil {
		t.Fatal(err)
	}
	opts := small()
	opts.Policy = gslice
	opts.Queue = QueueSJF
	res, err := sys.Simulate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "gslice" {
		t.Fatalf("policy %q", res.Policy)
	}
	if len(QueuePolicies()) != 4 {
		t.Fatalf("queue policies %v", QueuePolicies())
	}
}
