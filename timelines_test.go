package mudi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"
)

// classedSmall is the timeline tests' workload: the small options with
// an SLO-class mix and a burst, so service, class, and fleet series all
// record.
func classedSmall() SimOptions {
	opts := small()
	opts.ClassMix = []SLOClass{SLOCritical, SLOSheddable, SLOBackground}
	opts.Bursts = []Burst{{Start: 20, End: 60, Factor: 4}}
	opts.Timelines = true
	return opts
}

// TestTimelinesDoNotPerturbSummary is the timeline layer's core
// contract: recording is passive. A run with Timelines on produces a
// byte-identical Result summary, and only that run carries series.
func TestTimelinesDoNotPerturbSummary(t *testing.T) {
	newSys := func() *System {
		sys, err := NewSystem(SystemConfig{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	base := classedSmall()
	base.Timelines = false
	plain, err := newSys().Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	timed, err := newSys().Simulate(classedSmall())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Summary() != timed.Summary() {
		t.Error("timeline recording perturbed Result.Summary()")
	}
	if len(timed.Timelines) == 0 {
		t.Fatal("Timelines=true recorded no series")
	}
	if plain.Timelines != nil {
		t.Error("Timelines=false collected series")
	}
}

// TestTimelinesDeterministic: two fresh systems over the same seed and
// options produce byte-identical non-profile snapshots — the public
// fingerprint is reproducible.
func TestTimelinesDeterministic(t *testing.T) {
	run := func() []Timeline {
		sys, err := NewSystem(SystemConfig{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Simulate(classedSmall())
		if err != nil {
			t.Fatal(err)
		}
		return res.Timelines
	}
	a, b := TimelineFingerprint(run()), TimelineFingerprint(run())
	if a != b {
		t.Errorf("fingerprint not reproducible: %s vs %s", a, b)
	}
}

// TestTimelinesNDJSON: the export renders one well-formed JSON object
// per series, every kind parses back through ParseTimelineKind, and the
// classed run covers all three scope families (service, class, fleet).
func TestTimelinesNDJSON(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Simulate(classedSmall())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTimelines(&buf, res.Timelines); err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<24)
	lines := 0
	for sc.Scan() {
		lines++
		var tl Timeline
		if err := json.Unmarshal(sc.Bytes(), &tl); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		kind, err := ParseTimelineKind(tl.Kind)
		if err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if len(tl.Levels) == 0 || len(tl.Levels[0].Buckets) == 0 {
			t.Fatalf("series %s/%s exported empty", tl.Kind, tl.Scope)
		}
		switch {
		case kind.Workload() && tl.Scope != "":
			families["scoped-workload"] = true
		case kind.Profile():
			families["profile"] = true
		case tl.Scope == "":
			families["fleet"] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != len(res.Timelines) {
		t.Errorf("exported %d lines for %d series", lines, len(res.Timelines))
	}
	for _, fam := range []string{"scoped-workload", "profile", "fleet"} {
		if !families[fam] {
			t.Errorf("classed run exported no %s series", fam)
		}
	}
}

// TestTimelinesNDJSONGolden pins the non-profile timeline export of a
// seeded classed run byte-for-byte. A diff is either an intentional
// taxonomy/format change (regenerate with -update) or a determinism
// regression. Profile kinds are wall-clock and excluded.
func TestTimelinesNDJSONGolden(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Simulate(classedSmall())
	if err != nil {
		t.Fatal(err)
	}
	var det []Timeline
	for _, tl := range res.Timelines {
		kind, err := ParseTimelineKind(tl.Kind)
		if err != nil {
			t.Fatal(err)
		}
		if !kind.Profile() {
			det = append(det, tl)
		}
	}
	var buf bytes.Buffer
	if err := WriteTimelines(&buf, det); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "timelines_small.golden")
	if *updateTraceGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("timeline NDJSON differs from %s (got %d bytes, want %d); regenerate with -update if the taxonomy changed",
			golden, buf.Len(), len(want))
	}
}

// TestTelemetryCarriesTimelines: a run attached to a Telemetry records
// into its timeline store — the same store /timeline and /watch serve —
// and the snapshot still lands on the Result.
func TestTelemetryCarriesTimelines(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry()
	opts := classedSmall()
	opts.Timelines = false // implied by Telemetry
	opts.Telemetry = tel
	res, err := sys.Simulate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timelines) == 0 {
		t.Fatal("telemetry run recorded no timeline series")
	}
	if tel.TimelineStore().Seq() == 0 {
		t.Fatal("telemetry's live store saw no samples")
	}
}

// TestTimelinesOffAllocsMatchObsOff pins the zero-overhead-when-
// disabled contract at benchmark granularity: the TimelinesOff harness
// (which routes through exp.Config.Timelines and the cluster wiring)
// must allocate exactly what the ObsOff harness does — one nil check
// per recording site, nothing more. A drift here means the timeline
// plumbing allocates when disabled.
func TestTimelinesOffAllocsMatchObsOff(t *testing.T) {
	if testing.Short() {
		t.Skip("two benchmark-scale suite runs in -short")
	}
	// A collection empties sync.Pools (fmt's printer pool among them),
	// which then refill, so GC timing moves a few dozen allocations
	// between identical runs; with collection off for both harnesses
	// they agree to within a handful.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	obsOff := testing.Benchmark(BenchmarkSimObsOff)
	tlOff := testing.Benchmark(BenchmarkSimTimelinesOff)
	got, want := tlOff.AllocsPerOp(), obsOff.AllocsPerOp()
	// A real disabled-path leak costs at least one allocation per
	// device-window — tens of thousands at this scale — so a 0.01% band
	// pins the contract without flaking.
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	t.Logf("allocs/op: TimelinesOff %d, ObsOff %d", got, want)
	if tol := want / 10000; diff > tol {
		t.Errorf("TimelinesOff allocs/op = %d, ObsOff = %d (diff %d > tolerance %d); disabled timelines must be free",
			got, want, diff, tol)
	}
}
