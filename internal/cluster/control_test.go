package cluster

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"mudi/internal/baselines"
	"mudi/internal/core"
	"mudi/internal/model"
	"mudi/internal/obs"
	"mudi/internal/perf"
	"mudi/internal/span"
	"mudi/internal/trace"
)

// burstOptions is the Monitor-trigger workload: 12 Philly tasks at a
// 5 s mean gap on 6 devices, with a 3× QPS burst over 40–90 s and the
// event log on.
func burstOptions(t testing.TB, seed uint64) Options {
	t.Helper()
	oracle := perf.NewOracle(seed)
	arrivals, err := trace.PhillyTrace(trace.PhillyConfig{
		Count: 12, MeanGapSec: 5, ScaleIters: 0.002, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Policy:   mustBuild(t, oracle, seed),
		Oracle:   oracle,
		Seed:     seed,
		Devices:  6,
		Arrivals: arrivals,
		Bursts:   []trace.Burst{{Start: 40, End: 90, Factor: 3}},
		Obs:      obs.NewSink(),
		Log:      span.NewRunLog(true, false, nil),
	}
}

// retuneCauses counts the run's retune events by cause.
func retuneCauses(res *Result) map[string]int {
	causes := map[string]int{}
	for _, e := range res.Events {
		if e.Type == obs.EventRetune {
			causes[e.Cause]++
		}
	}
	return causes
}

// TestMonitorTriggers pins the device window's three Monitor triggers
// (§5.3.2, §6): a QPS swing retunes (qps-change), a paused device
// periodically probes for resumption (resume-probe), and a violated
// window retunes (slo-risk).
func TestMonitorTriggers(t *testing.T) {
	sim, err := New(burstOptions(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Admitted {
		t.Fatalf("completed %d of %d", res.Completed, res.Admitted)
	}
	on := retuneCauses(res)
	t.Logf("retune causes: %v", on)
	for _, cause := range []string{"qps-change", "resume-probe", "slo-risk"} {
		if on[cause] == 0 {
			t.Errorf("no %s retune under a 3x burst (causes %v)", cause, on)
		}
	}
}

// failingPolicy fails every k-th Configure after the first skip calls
// (the per-device initial episodes, whose error aborts Run). Embedding
// keeps Mudi's online learning and eval hook in play.
type failingPolicy struct {
	*core.Mudi
	skip, k       int
	calls, failed int
}

var errInjectedConfigure = errors.New("injected configure failure")

func (p *failingPolicy) Configure(view core.DeviceView, m core.Measurer) (core.Decision, error) {
	p.calls++
	if n := p.calls - p.skip; n > 0 && n%p.k == 0 {
		p.failed++
		return core.Decision{}, errInjectedConfigure
	}
	return p.Mudi.Configure(view, m)
}

// TestConfigureErrorsCounted checks that failed tuning episodes surface
// in Result.ConfigureErrors, the JSON and Summary(), and that the run
// still completes every task on the previous configurations.
func TestConfigureErrorsCounted(t *testing.T) {
	opts := burstOptions(t, 3)
	fp := &failingPolicy{Mudi: opts.Policy.(*core.Mudi), skip: opts.Devices, k: 4}
	opts.Policy = fp
	sim, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fp.failed == 0 {
		t.Fatalf("wrapper never failed (%d calls)", fp.calls)
	}
	if res.ConfigureErrors != fp.failed {
		t.Fatalf("ConfigureErrors %d, injected failures %d", res.ConfigureErrors, fp.failed)
	}
	if res.Completed != len(opts.Arrivals) || res.Admitted != len(opts.Arrivals) {
		t.Fatalf("completed %d / admitted %d of %d tasks", res.Completed, res.Admitted, len(opts.Arrivals))
	}
	n := strconv.Itoa(fp.failed)
	if want := "configure_errors=" + n + "\n"; !strings.Contains(res.Summary(), want) {
		t.Fatalf("Summary() lacks %q", want)
	}
	var js strings.Builder
	if err := res.WriteJSON(&js, 0); err != nil {
		t.Fatal(err)
	}
	if want := `"configure_errors": ` + n; !strings.Contains(js.String(), want) {
		t.Fatalf("JSON lacks %q", want)
	}
}

// wideDeltaPolicy is GSLICE, except that the first Configure after skip
// calls that sees a residentless device returns a feasible Δ of 1.5,
// beyond Eq. 4's share budget. After that it records the largest Δ any
// view shows it.
type wideDeltaPolicy struct {
	*baselines.GSLICE
	skip, calls int
	overshot    bool
	maxDelta    float64
}

func (p *wideDeltaPolicy) see(view core.DeviceView) {
	if p.overshot && view.Delta > p.maxDelta {
		p.maxDelta = view.Delta
	}
}

func (p *wideDeltaPolicy) SelectDevice(task model.TrainingTask, views []core.DeviceView, m map[string]core.Measurer) (string, bool) {
	for _, v := range views {
		p.see(v)
	}
	return p.GSLICE.SelectDevice(task, views, m)
}

func (p *wideDeltaPolicy) Configure(view core.DeviceView, m core.Measurer) (core.Decision, error) {
	p.see(view)
	p.calls++
	if !p.overshot && p.calls > p.skip && len(view.ResidentTasks) == 0 {
		p.overshot = true
		return core.Decision{Feasible: true, Batch: view.Batch, Delta: 1.5}, nil
	}
	return p.GSLICE.Configure(view, m)
}

// TestConfigureRejectsDeltaAboveOne pins the share budget on decisions:
// a feasible Δ > 1 is a failed tuning episode. On the initial deployment
// it fails Run; on a later retune it is counted in ConfigureErrors and
// the device keeps its Δ, so no later view shows more than the device.
func TestConfigureRejectsDeltaAboveOne(t *testing.T) {
	const devices = 2
	oracle := perf.NewOracle(1)
	opts := func(p core.Policy) Options {
		return Options{Policy: p, Oracle: oracle, Seed: 1, Devices: devices, Arrivals: smallArrivals(t, 6, 1)}
	}

	sim, err := New(opts(&wideDeltaPolicy{GSLICE: baselines.NewGSLICE()}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("initial Δ=1.5 decision: Run succeeded")
	}

	p := &wideDeltaPolicy{GSLICE: baselines.NewGSLICE(), skip: devices}
	sim, err = New(opts(p))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !p.overshot {
		t.Fatalf("no residentless retune after the initial deployment (%d calls)", p.calls)
	}
	if res.ConfigureErrors < 1 {
		t.Fatalf("ConfigureErrors %d after a Δ=1.5 decision", res.ConfigureErrors)
	}
	if p.maxDelta > 1 {
		t.Fatalf("a later view shows Δ=%v", p.maxDelta)
	}
	if res.Completed != res.Admitted {
		t.Fatalf("completed %d of %d", res.Completed, res.Admitted)
	}
}
