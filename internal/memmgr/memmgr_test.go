package memmgr

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestAllocFitsOnDevice(t *testing.T) {
	p := NewPool(1000)
	if err := p.Alloc(0, "inf", PriorityInference, 400); err != nil {
		t.Fatal(err)
	}
	if err := p.Alloc(0, "tr", PriorityTraining, 500); err != nil {
		t.Fatal(err)
	}
	if got := p.DeviceUsedMB(); got != 900 {
		t.Fatalf("device used %v", got)
	}
	if got := p.HostUsedMB(); got != 0 {
		t.Fatalf("host used %v", got)
	}
}

func TestTrainingSwappedForInference(t *testing.T) {
	p := NewPool(1000)
	if err := p.Alloc(0, "tr", PriorityTraining, 800); err != nil {
		t.Fatal(err)
	}
	// Inference arrives needing 600: training must give up 400.
	if err := p.Alloc(1, "inf", PriorityInference, 600); err != nil {
		t.Fatal(err)
	}
	if got := p.DeviceUsedMB(); got != 1000 {
		t.Fatalf("device used %v", got)
	}
	out, err := p.SwappedOutMB("tr")
	if err != nil {
		t.Fatal(err)
	}
	if out != 400 {
		t.Fatalf("training swapped out %v, want 400", out)
	}
	// Inference must be fully resident.
	if out, _ := p.SwappedOutMB("inf"); out != 0 {
		t.Fatalf("inference swapped out %v", out)
	}
}

func TestInferenceOverCapacity(t *testing.T) {
	p := NewPool(1000)
	if err := p.Alloc(0, "inf1", PriorityInference, 700); err != nil {
		t.Fatal(err)
	}
	err := p.Alloc(0, "inf2", PriorityInference, 500)
	if !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("err = %v, want ErrOverCapacity", err)
	}
	// The failed allocation must not linger.
	if _, err := p.SwappedOutMB("inf2"); !errors.Is(err, ErrUnknownAlloc) {
		t.Fatal("failed allocation left residue")
	}
}

func TestTrainingOverCapacityPartiallyResident(t *testing.T) {
	p := NewPool(1000)
	if err := p.Alloc(0, "tr", PriorityTraining, 1500); err != nil {
		t.Fatal(err)
	}
	if got := p.DeviceUsedMB(); got != 1000 {
		t.Fatalf("device used %v", got)
	}
	if out, _ := p.SwappedOutMB("tr"); out != 500 {
		t.Fatalf("swapped out %v, want 500", out)
	}
}

func TestResizeGrowTriggersSwap(t *testing.T) {
	p := NewPool(1000)
	p.Alloc(0, "tr", PriorityTraining, 600)
	p.Alloc(0, "inf", PriorityInference, 300)
	// Inference batch grows: demand 300 → 700.
	if err := p.Resize(5, "inf", 700); err != nil {
		t.Fatal(err)
	}
	if out, _ := p.SwappedOutMB("tr"); out != 300 {
		t.Fatalf("training swapped %v, want 300", out)
	}
	if out, _ := p.SwappedOutMB("inf"); out != 0 {
		t.Fatal("inference should be fully resident after grow")
	}
}

func TestResizeShrinkReleases(t *testing.T) {
	p := NewPool(1000)
	p.Alloc(0, "inf", PriorityInference, 800)
	if err := p.Resize(1, "inf", 200); err != nil {
		t.Fatal(err)
	}
	if got := p.DeviceUsedMB(); got != 200 {
		t.Fatalf("device used after shrink %v", got)
	}
}

func TestTouchBringsBack(t *testing.T) {
	p := NewPool(1000)
	p.Alloc(0, "tr", PriorityTraining, 900)
	p.Alloc(1, "inf", PriorityInference, 500) // pushes 400 of tr out
	p.Resize(2, "inf", 100)                   // QPS dropped; release
	ms, err := p.Touch(3, "tr")
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := p.SwappedOutMB("tr"); out != 0 {
		t.Fatalf("still swapped out %v after Touch", out)
	}
	want := TransferTimeMs(400)
	if math.Abs(ms-want) > 1e-9 {
		t.Fatalf("transfer time %v, want %v", ms, want)
	}
	// Touch when resident is free.
	ms, err = p.Touch(4, "tr")
	if err != nil || ms != 0 {
		t.Fatalf("resident Touch = %v, %v", ms, err)
	}
}

func TestFree(t *testing.T) {
	p := NewPool(1000)
	p.Alloc(0, "a", PriorityTraining, 500)
	if err := p.Free(1, "a"); err != nil {
		t.Fatal(err)
	}
	if p.DeviceUsedMB() != 0 {
		t.Fatal("memory not released")
	}
	if err := p.Free(1, "a"); !errors.Is(err, ErrUnknownAlloc) {
		t.Fatal("double free accepted")
	}
}

func TestAllocValidation(t *testing.T) {
	p := NewPool(100)
	if err := p.Alloc(0, "", PriorityTraining, 10); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := p.Alloc(0, "a", PriorityTraining, -1); err == nil {
		t.Fatal("negative size accepted")
	}
	p.Alloc(0, "a", PriorityTraining, 10)
	if err := p.Alloc(0, "a", PriorityTraining, 10); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := p.Resize(0, "nope", 5); !errors.Is(err, ErrUnknownAlloc) {
		t.Fatal("resize unknown accepted")
	}
	if err := p.Resize(0, "a", -5); err == nil {
		t.Fatal("negative resize accepted")
	}
	if _, err := p.Touch(0, "nope"); !errors.Is(err, ErrUnknownAlloc) {
		t.Fatal("touch unknown accepted")
	}
}

func TestSwapEventsRecorded(t *testing.T) {
	p := NewPool(1000)
	p.Alloc(0, "tr", PriorityTraining, 800)
	p.Alloc(10, "inf", PriorityInference, 600) // evicts 400 MB of tr
	count := func() (toHost, toDevice int) {
		for _, e := range p.Events() {
			if e.MB <= 0 || e.TransferMs <= 0 {
				t.Fatalf("bad event %+v", e)
			}
			if e.ToHost {
				toHost++
			} else {
				toDevice++
			}
		}
		return
	}
	toHost, toDevice := count()
	if toHost == 0 {
		t.Fatal("no host-bound swap recorded")
	}
	// First-touch allocations materialize on the device; only bytes
	// that were actually host-resident count as swap-in traffic.
	if toDevice != 0 {
		t.Fatalf("first-touch allocation recorded %d device-bound bursts", toDevice)
	}
	// Touching the evicted bytes back in is real host→device traffic.
	if err := p.Resize(20, "inf", 100); err != nil {
		t.Fatal(err)
	}
	if ms, err := p.Touch(30, "tr"); err != nil || ms <= 0 {
		t.Fatalf("touch: ms=%v err=%v", ms, err)
	}
	if _, toDevice = count(); toDevice == 0 {
		t.Fatal("no device-bound transfer recorded after touch")
	}
}

func TestFirstTouchGrowRecordsNoSwapIn(t *testing.T) {
	p := NewPool(1000)
	if err := p.Alloc(0, "tr", PriorityTraining, 200); err != nil {
		t.Fatal(err)
	}
	if err := p.Resize(5, "tr", 600); err != nil {
		t.Fatal(err)
	}
	if n := len(p.Events()); n != 0 {
		t.Fatalf("first-touch alloc+grow recorded %d swap events", n)
	}
}

func TestFailedPinnedGrowRollsBackWithoutEvictions(t *testing.T) {
	p := NewPool(1000)
	if err := p.Alloc(0, "inf", PriorityInference, 500); err != nil {
		t.Fatal(err)
	}
	if err := p.Alloc(0, "tr", PriorityTraining, 300); err != nil {
		t.Fatal(err)
	}
	// Growing inference to 1400 MB needs 400 MB more than evicting all
	// of tr can free: the grow must fail atomically.
	err := p.Resize(10, "inf", 1400)
	if !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("err = %v, want ErrOverCapacity", err)
	}
	if out, err := p.SwappedOutMB("tr"); err != nil || out != 0 {
		t.Fatalf("failed pinned grow evicted training memory: swapped %v MB (err %v)", out, err)
	}
	if total, err := p.SwappedOutMB("inf"); err != nil || total != 0 {
		t.Fatalf("inf residency inconsistent after rollback: %v (err %v)", total, err)
	}
	if n := len(p.Events()); n != 0 {
		t.Fatalf("failed pinned grow recorded %d swap events", n)
	}
	if got := p.DeviceUsedMB(); got != 800 {
		t.Fatalf("device use after rollback = %v, want 800", got)
	}
	// The pool is still fully functional for a feasible grow.
	if err := p.Resize(20, "inf", 700); err != nil {
		t.Fatal(err)
	}
}

func TestFailedPinnedAllocLeavesResidency(t *testing.T) {
	p := NewPool(1000)
	if err := p.Alloc(0, "tr", PriorityTraining, 300); err != nil {
		t.Fatal(err)
	}
	if err := p.Alloc(5, "inf", PriorityInference, 1400); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("err = %v, want ErrOverCapacity", err)
	}
	if out, _ := p.SwappedOutMB("tr"); out != 0 {
		t.Fatalf("failed pinned alloc evicted %v MB of training memory", out)
	}
	if n := len(p.Events()); n != 0 {
		t.Fatalf("failed pinned alloc recorded %d swap events", n)
	}
}

func TestTransferScaleDegradesPCIe(t *testing.T) {
	p := NewPool(1000)
	p.SetTransferScale(func(now float64) float64 {
		if now >= 100 {
			return 4
		}
		return 1
	})
	p.Alloc(0, "tr", PriorityTraining, 800)
	p.Alloc(10, "inf", PriorityInference, 600) // evict at healthy bandwidth
	base := p.Events()
	if len(base) == 0 {
		t.Fatal("no eviction events")
	}
	for _, e := range base {
		if math.Abs(e.TransferMs-TransferTimeMs(e.MB)) > 1e-9 {
			t.Fatalf("healthy-window transfer %v ms, want %v", e.TransferMs, TransferTimeMs(e.MB))
		}
	}
	if err := p.Resize(100, "inf", 100); err != nil {
		t.Fatal(err)
	}
	ms, err := p.Touch(150, "tr") // inside the degraded window
	if err != nil {
		t.Fatal(err)
	}
	want := TransferTimeMs(400) * 4
	if math.Abs(ms-want) > 1e-9 {
		t.Fatalf("degraded touch = %v ms, want %v", ms, want)
	}
	events := p.Events()[len(base):]
	for _, e := range events {
		if math.Abs(e.TransferMs-4*TransferTimeMs(e.MB)) > 1e-9 {
			t.Fatalf("degraded burst %v ms, want %v", e.TransferMs, 4*TransferTimeMs(e.MB))
		}
	}
}

func TestSwapFraction(t *testing.T) {
	p := NewPool(1000)
	p.Alloc(0, "tr", PriorityTraining, 800)
	if got := p.SwapFraction(100); got != 0 {
		t.Fatalf("fraction before swaps %v", got)
	}
	p.Alloc(100, "inf", PriorityInference, 600) // swap begins at t=100
	if got := p.SwapFraction(200); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("fraction %v, want 0.5", got)
	}
	// Inference shrinks at t=200 and training is touched back in.
	p.Resize(200, "inf", 100)
	if _, err := p.Touch(200, "tr"); err != nil {
		t.Fatal(err)
	}
	if got := p.SwapFraction(400); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("fraction %v, want 0.25", got)
	}
}

func TestEvictionOrderDeterministic(t *testing.T) {
	run := func() []SwapEvent {
		p := NewPool(1000)
		p.Alloc(0, "tr-b", PriorityTraining, 300)
		p.Alloc(0, "tr-a", PriorityTraining, 300)
		p.Alloc(0, "tr-c", PriorityTraining, 300)
		p.Alloc(1, "inf", PriorityInference, 700)
		return p.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("event counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestTransferTimeModel(t *testing.T) {
	// 16384 MB at 16 GB/s is one second.
	if got := TransferTimeMs(16384); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("TransferTimeMs(16384) = %v, want 1000", got)
	}
}

func TestDefaultCapacity(t *testing.T) {
	p := NewPool(0)
	if p.CapacityMB() != 40960 {
		t.Fatalf("default capacity %v", p.CapacityMB())
	}
}

// TestDeviceUsedSumsInAllocationOrder pins the pool's summation order.
// Float addition is not associative — (0.1+0.3)+0.2 and (0.3+0.2)+0.1
// differ in the last bit — so a sum over a Go map could change from
// call to call. Every call must add in allocation order, before and
// after a Free.
func TestDeviceUsedSumsInAllocationOrder(t *testing.T) {
	p := NewPool(1000)
	for i, mb := range []float64{0.1, 0.3, 0.2} {
		if err := p.Alloc(0, fmt.Sprintf("tr%d", i), PriorityTraining, mb); err != nil {
			t.Fatal(err)
		}
	}
	check := func(want float64) {
		t.Helper()
		for i := 0; i < 200; i++ {
			if got := p.DeviceUsedMB(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("call %d: DeviceUsedMB = %v, want the allocation-order sum %v", i, got, want)
			}
		}
	}
	// Summed at run time: Go folds a constant expression exactly.
	sum := 0.0
	sum += 0.1
	sum += 0.3
	sum += 0.2
	check(sum)
	if err := p.Free(1, "tr1"); err != nil {
		t.Fatal(err)
	}
	sum = 0
	sum += 0.1
	sum += 0.2
	check(sum)
}
