package cluster

import (
	"errors"
	"strings"
	"testing"

	"mudi/internal/baselines"
	"mudi/internal/core"
	"mudi/internal/memmgr"
	"mudi/internal/model"
	"mudi/internal/perf"
	"mudi/internal/span"
	"mudi/internal/trace"
)

// lostPinPolicy is GSLICE that, at its first Configure of a device with
// a resident task, frees the device's pinned inference memory behind
// the cluster's back and moves the batch, so applying the decision
// resizes an allocation that no longer exists. The device is kept in
// lost.
type lostPinPolicy struct {
	*baselines.GSLICE
	sim  *Sim
	lost string
}

func (*lostPinPolicy) Name() string { return "lost-pin" }

func (p *lostPinPolicy) Configure(v core.DeviceView, m core.Measurer) (core.Decision, error) {
	dec, err := p.GSLICE.Configure(v, m)
	if err != nil || p.lost != "" || len(v.ResidentTasks) == 0 {
		return dec, err
	}
	for _, d := range p.sim.devices {
		if d.v.ID == v.ID {
			if ferr := d.pool.Free(0, "svc"); ferr != nil {
				return dec, ferr
			}
		}
	}
	p.lost = v.ID
	dec.Batch = 16
	if v.Batch == 16 {
		dec.Batch = 32
	}
	return dec, nil
}

// TestLostPoolAllocationStopsRun pins that a memory-pool error cannot
// vanish: resizing the service's pinned memory after it was lost stops
// Run with memmgr.ErrUnknownAlloc, naming the device.
func TestLostPoolAllocationStopsRun(t *testing.T) {
	p := &lostPinPolicy{GSLICE: baselines.NewGSLICE()}
	sim, err := New(Options{Policy: p, Oracle: perf.NewOracle(1), Seed: 1, Devices: 2, Arrivals: smallArrivals(t, 6, 1)})
	if err != nil {
		t.Fatal(err)
	}
	p.sim = sim
	res, err := sim.Run()
	if p.lost == "" {
		t.Fatal("no device lost its pinned memory")
	}
	if !errors.Is(err, memmgr.ErrUnknownAlloc) {
		t.Fatalf("Run error %v, want memmgr.ErrUnknownAlloc", err)
	}
	if res != nil {
		t.Fatal("Run returned a result after a pool error")
	}
	if !strings.Contains(err.Error(), p.lost) {
		t.Fatalf("error %q does not name device %s", err, p.lost)
	}
}

// lostTrainPolicy is GSLICE that, at its first Configure of a device
// with a resident task, frees that task's training memory behind the
// cluster's back. It keeps the allocation's id and the clock then.
type lostTrainPolicy struct {
	*baselines.GSLICE
	sim    *Sim
	lost   string
	lostAt float64
}

func (*lostTrainPolicy) Name() string { return "lost-train" }

func (p *lostTrainPolicy) Configure(v core.DeviceView, m core.Measurer) (core.Decision, error) {
	if p.lost == "" && len(v.ResidentTasks) > 0 {
		for _, d := range p.sim.devices {
			if d.v.ID == v.ID {
				id := d.training[0].allocID
				if err := d.pool.Free(0, id); err != nil {
					return core.Decision{}, err
				}
				p.lost, p.lostAt = id, p.sim.sh.Now()
			}
		}
	}
	return p.GSLICE.Configure(v, m)
}

// TestLostTrainingAllocationStopsRun pins that the window path cannot
// read past a lost pool allocation: once a resident training task's
// memory is freed behind the cluster's back, the next window's read of
// it stops Run with memmgr.ErrUnknownAlloc, naming the allocation.
func TestLostTrainingAllocationStopsRun(t *testing.T) {
	task, _ := model.TaskByName("YOLOv5")
	p := &lostTrainPolicy{GSLICE: baselines.NewGSLICE()}
	sim, err := New(Options{
		Policy: p, Oracle: perf.NewOracle(1), Seed: 1, Devices: 1,
		Arrivals:      []trace.TaskArrival{{ID: 0, At: 5, Task: task, Iters: 100000, GPUsReq: 1}},
		MaxHorizonSec: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.sim = sim
	res, err := sim.Run()
	if p.lost == "" {
		t.Fatal("no training allocation was lost")
	}
	if !errors.Is(err, memmgr.ErrUnknownAlloc) {
		t.Fatalf("Run error %v, want memmgr.ErrUnknownAlloc", err)
	}
	if res != nil {
		t.Fatal("Run returned a result after a pool error")
	}
	if !strings.Contains(err.Error(), p.lost) {
		t.Fatalf("error %q does not name allocation %s", err, p.lost)
	}
	if at := sim.sh.Now(); at <= p.lostAt || at > p.lostAt+span.WindowSec {
		t.Fatalf("Run stopped at %v, want the first window after the loss at %v", at, p.lostAt)
	}
}
