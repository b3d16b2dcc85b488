package timeline

import (
	"math"
	"strings"
	"testing"
)

func TestNilStoreIsNoOp(t *testing.T) {
	var st *Store
	sr := st.Series(ServiceQPS, "svc")
	if sr != nil {
		t.Fatalf("nil store handed out a live handle")
	}
	sr.Add(1, 2) // must not panic
	if got := st.Snapshot(true); got != nil {
		t.Fatalf("nil store snapshot = %v", got)
	}
	if got := st.Keys(); got != nil {
		t.Fatalf("nil store keys = %v", got)
	}
	if _, ok := st.Range(ServiceQPS, "svc", 0, 10); ok {
		t.Fatalf("nil store range reported data")
	}
	if got := st.Since(0, nil); got != nil {
		t.Fatalf("nil store since = %v", got)
	}
	if st.Seq() != 0 {
		t.Fatalf("nil store seq = %d", st.Seq())
	}
}

// TestNeverWrittenSeriesOmitted: Series() registers a handle eagerly,
// but a handle that never records (e.g. a service whose conditional
// kinds never fire) must not surface as an empty series in the
// snapshot, the export, or the index.
func TestNeverWrittenSeriesOmitted(t *testing.T) {
	st := New(Config{Cap: 16, Levels: 2, Fanout: 4})
	st.Series(ServiceP99, "idle") // registered, never written
	live := st.Series(ServiceQPS, "busy")
	live.Add(0, 1)
	snap := st.Snapshot(true)
	if len(snap) != 1 || snap[0].Kind != ServiceQPS.String() {
		t.Fatalf("snapshot = %+v, want only the written series", snap)
	}
	keys := st.Keys()
	if len(keys) != 1 || keys[0].Kind != ServiceQPS.String() {
		t.Fatalf("keys = %+v, want only the written series", keys)
	}
	if _, ok := st.Range(ServiceP99, "idle", 0, 10); ok {
		t.Fatal("range reported data for a never-written series")
	}
}

func TestCascadeMergesMinMaxSumCount(t *testing.T) {
	st := New(Config{Cap: 16, Levels: 3, Fanout: 4, Recent: 8})
	sr := st.Series(ServiceQPS, "svc")
	for i := 0; i < 16; i++ {
		sr.Add(float64(i), float64(i))
	}
	snap := st.Snapshot(true)
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d series, want 1", len(snap))
	}
	tl := snap[0]
	if len(tl.Levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(tl.Levels))
	}
	if got := len(tl.Levels[0].Buckets); got != 16 {
		t.Fatalf("raw buckets = %d, want 16", got)
	}
	// Tier 1: 16 samples / fanout 4 = 4 complete buckets.
	t1 := tl.Levels[1]
	if t1.Stride != 4 || len(t1.Buckets) != 4 {
		t.Fatalf("tier1 stride=%d buckets=%d, want 4/4", t1.Stride, len(t1.Buckets))
	}
	b := t1.Buckets[1] // samples 4..7
	if b.Min != 4 || b.Max != 7 || b.Sum != 4+5+6+7 || b.Count != 4 || b.Start != 4 || b.End != 7 {
		t.Fatalf("tier1 bucket = %+v", b)
	}
	// Tier 2: one complete bucket of 16 samples.
	t2 := tl.Levels[2]
	if t2.Stride != 16 || len(t2.Buckets) != 1 {
		t.Fatalf("tier2 stride=%d buckets=%d, want 16/1", t2.Stride, len(t2.Buckets))
	}
	if b := t2.Buckets[0]; b.Min != 0 || b.Max != 15 || b.Count != 16 || b.Sum != 120 {
		t.Fatalf("tier2 bucket = %+v", b)
	}
}

func TestPendingBucketAppearsInSnapshot(t *testing.T) {
	st := New(Config{Cap: 16, Levels: 2, Fanout: 4})
	sr := st.Series(FleetSMUtil, "")
	for i := 0; i < 6; i++ { // one complete tier bucket + 2 pending kids
		sr.Add(float64(i), 1)
	}
	tl := st.Snapshot(true)[0]
	t1 := tl.Levels[1]
	if len(t1.Buckets) != 2 {
		t.Fatalf("tier1 buckets = %d, want 1 complete + 1 pending", len(t1.Buckets))
	}
	if t1.Buckets[1].Count != 2 {
		t.Fatalf("pending bucket count = %d, want 2", t1.Buckets[1].Count)
	}
}

func TestRingEvictionKeepsNewest(t *testing.T) {
	st := New(Config{Cap: 8, Levels: 1, Fanout: 2})
	sr := st.Series(FleetQueueDepth, "")
	for i := 0; i < 20; i++ {
		sr.Add(float64(i), float64(i))
	}
	tl := st.Snapshot(true)[0]
	raw := tl.Levels[0].Buckets
	if len(raw) != 8 {
		t.Fatalf("raw buckets = %d, want 8", len(raw))
	}
	if raw[0].Start != 12 || raw[7].Start != 19 {
		t.Fatalf("retained range [%v, %v], want [12, 19]", raw[0].Start, raw[7].Start)
	}
}

func TestRangePrefersFinestCoveringLevel(t *testing.T) {
	st := New(Config{Cap: 8, Levels: 2, Fanout: 4})
	sr := st.Series(ServiceP99, "svc")
	for i := 0; i < 40; i++ {
		sr.Add(float64(i), float64(i))
	}
	// Raw retains [32, 39]; tier 1 (stride 4) retains buckets back to 8.
	lv, ok := st.Range(ServiceP99, "svc", 33, 100)
	if !ok || lv.Stride != 1 {
		t.Fatalf("recent range picked stride %d (ok=%v), want raw", lv.Stride, ok)
	}
	lv, ok = st.Range(ServiceP99, "svc", 10, 100)
	if !ok || lv.Stride != 4 {
		t.Fatalf("old range picked stride %d (ok=%v), want 4", lv.Stride, ok)
	}
	for _, b := range lv.Buckets {
		if b.End < 10 {
			t.Fatalf("bucket %+v outside [10, 100]", b)
		}
	}
}

func TestResampleUsesStatsDownsample(t *testing.T) {
	st := New(Defaults())
	sr := st.Series(ServiceQPS, "svc")
	for i := 0; i < 10; i++ {
		sr.Add(float64(i), float64(i*10))
	}
	times, values, ok := st.Resample(ServiceQPS, "svc", 0, 10, 5)
	if !ok || len(times) != 5 || len(values) != 5 {
		t.Fatalf("resample: ok=%v len=%d/%d", ok, len(times), len(values))
	}
	if values[0] != 0 || values[4] != 80 {
		t.Fatalf("resampled values = %v", values)
	}
	if _, _, ok := st.Resample(ServiceQPS, "missing", 0, 10, 5); ok {
		t.Fatalf("resample invented a missing series")
	}
	// Open-ended to: resolves to the newest sample.
	if _, _, ok := st.Resample(ServiceQPS, "svc", 0, math.Inf(1), 4); !ok {
		t.Fatalf("open-ended resample failed")
	}
}

func TestSinceAndSeq(t *testing.T) {
	st := New(Config{Recent: 4})
	sr := st.Series(FleetSMUtil, "")
	for i := 0; i < 10; i++ {
		sr.Add(float64(i), float64(i))
	}
	if st.Seq() != 10 {
		t.Fatalf("seq = %d, want 10", st.Seq())
	}
	got := st.Since(0, nil)
	if len(got) != 4 { // ring keeps the newest 4
		t.Fatalf("since(0) = %d samples, want 4", len(got))
	}
	for i, s := range got {
		if s.Seq != uint64(7+i) {
			t.Fatalf("sample %d has seq %d, want %d", i, s.Seq, 7+i)
		}
	}
	if got := st.Since(9, nil); len(got) != 1 || got[0].Seq != 10 {
		t.Fatalf("since(9) = %+v, want one sample with seq 10", got)
	}
	if got := st.Since(10, nil); len(got) != 0 {
		t.Fatalf("since(10) = %+v, want empty", got)
	}
}

func TestFingerprintExcludesProfileKinds(t *testing.T) {
	base := New(Defaults())
	base.Series(ServiceQPS, "svc").Add(1, 2)
	withProf := New(Defaults())
	withProf.Series(ServiceQPS, "svc").Add(1, 2)
	withProf.Series(EngineDrainMs, "").Add(1, 123.456)
	withProf.Series(EngineHeapBytes, "").Add(1, 9e9)
	if base.Fingerprint() != withProf.Fingerprint() {
		t.Fatalf("profiling series perturbed the fingerprint")
	}
	other := New(Defaults())
	other.Series(ServiceQPS, "svc").Add(1, 3)
	if base.Fingerprint() == other.Fingerprint() {
		t.Fatalf("fingerprint ignored a data difference")
	}
}

func TestSnapshotWithProfileFlag(t *testing.T) {
	st := New(Defaults())
	st.Series(ServiceQPS, "svc").Add(1, 2)
	st.Series(EngineMail, "").Add(1, 7)
	if got := len(st.Snapshot(false)); got != 1 {
		t.Fatalf("snapshot(false) has %d series, want 1", got)
	}
	if got := len(st.Snapshot(true)); got != 2 {
		t.Fatalf("snapshot(true) has %d series, want 2", got)
	}
}

func TestWriteNDJSONShape(t *testing.T) {
	st := New(Defaults())
	st.Series(ServiceQPS, "b").Add(1, 2)
	st.Series(ServiceQPS, "a").Add(1, 2)
	var sb strings.Builder
	if err := WriteNDJSON(&sb, st.Snapshot(true)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("ndjson lines = %d, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"scope":"a"`) || !strings.Contains(lines[1], `"scope":"b"`) {
		t.Fatalf("ndjson not in (kind, scope) order: %v", lines)
	}
	if !strings.Contains(lines[0], `"kind":"service_qps"`) {
		t.Fatalf("ndjson missing kind: %s", lines[0])
	}
}

func TestParseKindRoundTrips(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatalf("ParseKind accepted garbage")
	}
	if _, err := ParseKind("unknown"); err == nil {
		t.Fatalf("ParseKind accepted the zero kind's name")
	}
}

func TestWorkloadAndProfileClasses(t *testing.T) {
	for _, k := range Kinds() {
		if k.Workload() && k.Profile() {
			t.Fatalf("%v is both workload and profile", k)
		}
	}
	if !ServiceQPS.Workload() || !FleetDownDevices.Workload() {
		t.Fatalf("workload kinds misclassified")
	}
	if !EngineDrainMs.Profile() || !EngineWindowMs.Profile() || ServiceP99.Profile() {
		t.Fatalf("profile kinds misclassified")
	}
}

func TestAddAllocFree(t *testing.T) {
	st := New(Config{Cap: 64, Levels: 3, Fanout: 4, Recent: 64})
	sr := st.Series(ServiceQPS, "svc")
	// Warm the rings past their caps so append growth is done.
	for i := 0; i < 1024; i++ {
		sr.Add(float64(i), 1)
	}
	n := testing.AllocsPerRun(200, func() {
		sr.Add(2000, 1)
	})
	if n != 0 {
		t.Fatalf("Add allocates %.1f per call after warm-up, want 0", n)
	}
}

// TestAddAllMatchesAdd checks that one AddAll per window records what
// an Add per sample does: the same snapshot and the same live stream,
// in entry order, across ring wrap-around.
func TestAddAllMatchesAdd(t *testing.T) {
	cfg := Config{Cap: 8, Levels: 2, Fanout: 4, Recent: 16}
	one, all := New(cfg), New(cfg)
	kinds := []Kind{ServiceQPS, ServiceBatch, FleetSMUtil}
	var es []Entry
	for w := 0; w < 20; w++ {
		at := float64(w)
		es = es[:0]
		for i, k := range kinds {
			v := float64(w*10 + i)
			one.Series(k, "s").Add(at, v)
			es = append(es, Entry{Series: all.Series(k, "s"), Value: v})
		}
		all.AddAll(at, es)
	}
	if a, b := one.Fingerprint(), all.Fingerprint(); a != b {
		t.Fatalf("fingerprints differ: Add %s, AddAll %s", a, b)
	}
	a, b := one.Since(0, nil), all.Since(0, nil)
	if len(a) != 16 || len(a) != len(b) {
		t.Fatalf("since(0): Add %d samples, AddAll %d, want 16", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("live sample %d: Add %+v, AddAll %+v", i, a[i], b[i])
		}
	}
}
