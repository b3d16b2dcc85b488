package cluster

import (
	"errors"
	"strings"
	"testing"

	"mudi/internal/baselines"
	"mudi/internal/core"
	"mudi/internal/memmgr"
	"mudi/internal/perf"
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
		if d.dev.ID == v.ID {
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
