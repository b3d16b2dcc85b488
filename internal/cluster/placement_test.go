package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mudi/internal/baselines"
	"mudi/internal/core"
	"mudi/internal/faults"
	"mudi/internal/model"
	"mudi/internal/perf"
)

// strayPolicy is GSLICE whose placement may name a device outside the
// candidates: stray returns that device's ID, or "" to let GSLICE pick.
// The first stray ID it returns is kept in strayed.
type strayPolicy struct {
	*baselines.GSLICE
	stray   func(views []core.DeviceView) string
	strayed string
}

func (*strayPolicy) Name() string { return "stray" }

func (p *strayPolicy) SelectDevice(task model.TrainingTask, views []core.DeviceView, m map[string]core.Measurer) (string, bool) {
	if id := p.stray(views); id != "" {
		if p.strayed == "" {
			p.strayed = id
		}
		return id, true
	}
	return p.GSLICE.SelectDevice(task, views, m)
}

// runStray runs 12 tasks on devices under p and checks that Run fails
// with ErrPlacement naming the policy and the stray ID.
func runStray(t *testing.T, p *strayPolicy, devices int, fc *faults.Config) {
	t.Helper()
	sim, err := New(Options{
		Policy: p, Oracle: perf.NewOracle(1), Seed: 1, Devices: devices,
		Arrivals: smallArrivals(t, 12, 1), Faults: fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if p.strayed == "" {
		t.Fatal("the policy never named a device outside its candidates")
	}
	if !errors.Is(err, ErrPlacement) {
		t.Fatalf("Run error %v, want ErrPlacement", err)
	}
	if res != nil {
		t.Fatal("Run returned a result with ErrPlacement")
	}
	for _, want := range []string{`"` + p.strayed + `"`, "stray"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
}

// TestPlacementOutsideCandidatesFails pins that a placement cannot
// vanish: a policy that picks a device ID the cluster does not have,
// or a device of the cluster that is not among its candidates (here,
// one that is down), stops Run with ErrPlacement.
func TestPlacementOutsideCandidatesFails(t *testing.T) {
	t.Run("unknown", func(t *testing.T) {
		p := &strayPolicy{GSLICE: baselines.NewGSLICE(), stray: func([]core.DeviceView) string { return "ghost" }}
		runStray(t, p, 2, nil)
	})
	t.Run("down", func(t *testing.T) {
		const devices = 4
		all := make([]string, devices)
		for i := range all {
			all[i] = fmt.Sprintf("gpu%04d", i) // gpu.FleetDevice's ID
		}
		p := &strayPolicy{GSLICE: baselines.NewGSLICE(), stray: func(views []core.DeviceView) string {
			for _, id := range all {
				if !slices.ContainsFunc(views, func(v core.DeviceView) bool { return v.ID == id }) {
					return id
				}
			}
			return ""
		}}
		runStray(t, p, devices, &faults.Config{DeviceMTBFSec: 20, DeviceMTTRSec: 200})
	})
}
