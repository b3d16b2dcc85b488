package faults

import (
	"math"
	"testing"
)

func TestZeroConfigDisabled(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Fatal("zero config reports enabled")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	inj, err := New(c, 1, 1000)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if inj != nil {
		t.Fatal("disabled config returned a non-nil injector")
	}
}

func TestValidateRejectsBadRanges(t *testing.T) {
	bad := []Config{
		{DeviceMTBFSec: -1},
		{DeviceMTTRSec: -1},
		{MeasureErrRate: -0.1},
		{MeasureErrRate: 1},
		{MeasureErrRate: 0.1, MeasureRetries: -1},
		{SpinUpFailRate: 1.5},
		{PCIeDegradeFactor: 0.5},
		{PCIeDegradeFactor: 4, PCIeMTBFSec: -1},
		{DeviceMTBFSec: math.NaN()},
		{DeviceMTBFSec: 100, DeviceMTTRSec: math.NaN()},
		{MeasureErrRate: math.NaN()},
		{SpinUpFailRate: math.NaN()},
		{PCIeDegradeFactor: math.NaN()},
		{PCIeDegradeFactor: 4, PCIeMTBFSec: math.NaN()},
		{PCIeDegradeFactor: 4, PCIeMTTRSec: math.NaN()},
		{DeviceMTBFSec: math.Inf(1)},
		{PCIeDegradeFactor: math.Inf(1)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, c)
		}
		if _, err := New(c, 1, 1000); err == nil {
			t.Errorf("case %d: New accepted %+v", i, c)
		}
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var inj *Injector
	if inj.MeasureFails("gpu0000") {
		t.Fatal("nil injector failed a measurement")
	}
	if inj.SpinUpFails("gpu0000") {
		t.Fatal("nil injector failed a spin-up")
	}
	if got := inj.PCIeScale(10); got != 1 {
		t.Fatalf("nil injector PCIeScale = %v, want 1", got)
	}
	if w := inj.DeviceWindows("gpu0000", 1000); w != nil {
		t.Fatalf("nil injector drew windows: %v", w)
	}
	if inj.Retries() != 0 || inj.BackoffMs(1) != 0 {
		t.Fatal("nil injector has a retry budget")
	}
}

func mustNew(t *testing.T, cfg Config, seed uint64, horizon float64) *Injector {
	t.Helper()
	inj, err := New(cfg, seed, horizon)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if inj == nil {
		t.Fatalf("New returned nil injector for enabled config %+v", cfg)
	}
	return inj
}

func TestDeviceWindowsDeterministicAndOrdered(t *testing.T) {
	cfg := Config{DeviceMTBFSec: 300, DeviceMTTRSec: 45}
	a := mustNew(t, cfg, 7, 10000)
	b := mustNew(t, cfg, 7, 10000)
	wa := a.DeviceWindows("gpu0001", 10000)
	wb := b.DeviceWindows("gpu0001", 10000)
	if len(wa) == 0 {
		t.Fatal("no failure windows over a 10000 s horizon with MTBF 300")
	}
	if len(wa) != len(wb) {
		t.Fatalf("window counts differ: %d vs %d", len(wa), len(wb))
	}
	prevEnd := 0.0
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("window %d differs: %+v vs %+v", i, wa[i], wb[i])
		}
		if wa[i].Start <= prevEnd && i > 0 {
			t.Fatalf("window %d overlaps previous: %+v", i, wa[i])
		}
		if wa[i].End <= wa[i].Start {
			t.Fatalf("window %d empty: %+v", i, wa[i])
		}
		if wa[i].Start >= 10000 {
			t.Fatalf("window %d starts past horizon: %+v", i, wa[i])
		}
		prevEnd = wa[i].End
	}
	// Distinct devices draw from distinct substreams.
	other := a.DeviceWindows("gpu0002", 10000)
	same := len(other) == len(wa)
	if same {
		for i := range other {
			if other[i] != wa[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("two devices drew identical failure schedules")
	}
	// Re-drawing the same device is stable (pure function of seed+id).
	again := a.DeviceWindows("gpu0001", 10000)
	for i := range again {
		if again[i] != wa[i] {
			t.Fatalf("re-drawn window %d differs: %+v vs %+v", i, again[i], wa[i])
		}
	}
}

func TestMeasureAndSpinStreamsDeterministic(t *testing.T) {
	cfg := Config{MeasureErrRate: 0.3, SpinUpFailRate: 0.3}
	a := mustNew(t, cfg, 42, 1000)
	b := mustNew(t, cfg, 42, 1000)
	var fails int
	for i := 0; i < 200; i++ {
		ma, mb := a.MeasureFails("gpu0000"), b.MeasureFails("gpu0000")
		if ma != mb {
			t.Fatalf("measure draw %d differs", i)
		}
		if ma {
			fails++
		}
		if a.SpinUpFails("gpu0000") != b.SpinUpFails("gpu0000") {
			t.Fatalf("spin draw %d differs", i)
		}
	}
	if fails == 0 || fails == 200 {
		t.Fatalf("measure fault rate degenerate: %d/200 at rate 0.3", fails)
	}
}

func TestBackoffCapped(t *testing.T) {
	inj := mustNew(t, Config{MeasureErrRate: 0.5}, 1, 1000)
	if got := inj.Retries(); got != 3 {
		t.Fatalf("default retries = %d, want 3", got)
	}
	if got := inj.BackoffMs(1); got != 50 {
		t.Fatalf("BackoffMs(1) = %v, want 50", got)
	}
	if got := inj.BackoffMs(2); got != 100 {
		t.Fatalf("BackoffMs(2) = %v, want 100", got)
	}
	if got := inj.BackoffMs(10); got != 1000 {
		t.Fatalf("BackoffMs(10) = %v, want cap 1000", got)
	}
}

func TestPCIeScaleWindows(t *testing.T) {
	cfg := Config{PCIeDegradeFactor: 4, PCIeMTBFSec: 100, PCIeMTTRSec: 50}
	inj := mustNew(t, cfg, 9, 5000)
	if len(inj.pcie) == 0 {
		t.Fatal("no PCIe degrade windows over 5000 s with MTBF 100")
	}
	w := inj.pcie[0]
	if got := inj.PCIeScale(w.Start - 1e-6); got != 1 {
		t.Fatalf("scale before window = %v, want 1", got)
	}
	if got := inj.PCIeScale((w.Start + w.End) / 2); got != 4 {
		t.Fatalf("scale inside window = %v, want 4", got)
	}
	if got := inj.PCIeScale(w.End + 1e-6); got == 4 && len(inj.pcie) == 1 {
		t.Fatalf("scale after only window = %v, want 1", got)
	}
	// Past the horizon the link is healthy.
	if got := inj.PCIeScale(1e9); got != 1 {
		t.Fatalf("scale past horizon = %v, want 1", got)
	}
}
