package trace

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"mudi/internal/xrand"
)

// referenceFluctuatingAt is FluctuatingQPS.At before the forward
// cursor, kept verbatim as the oracle: extend, then binary-search.
func referenceFluctuatingAt(f *FluctuatingQPS, t float64) float64 {
	if t < 0 {
		t = 0
	}
	for f.times[len(f.times)-1] < t {
		f.extend()
	}
	idx := sort.SearchFloat64s(f.times, t)
	if idx == len(f.times) || f.times[idx] > t {
		idx--
	}
	return f.levels[idx]
}

// TestFluctuatingCursorMatchesSearchProperty: At with its cursor
// returns the same bits as the binary search on random query
// sequences — forward steps, repeats, exact segment edges, backward
// jumps, negative t, NaN and far-future t. Two traces share one RNG and
// their queries interleave, so each extends the other's stream
// mid-sequence; the cursor and the reference see the same extension
// order only if they extend at the same queries.
func TestFluctuatingCursorMatchesSearchProperty(t *testing.T) {
	f := func(seed uint64) bool {
		qrng := xrand.New(seed)
		cursorRNG, refRNG := xrand.New(seed^0x9e37), xrand.New(seed^0x9e37)
		cursor := [2]*FluctuatingQPS{NewFluctuatingQPS(200, cursorRNG), NewFluctuatingQPS(50, cursorRNG)}
		ref := [2]*FluctuatingQPS{NewFluctuatingQPS(200, refRNG), NewFluctuatingQPS(50, refRNG)}
		var ts [2]float64
		for q := 0; q < 300; q++ {
			k := qrng.Intn(2)
			at := ts[k]
			switch qrng.Intn(10) {
			case 0, 1, 2:
				at += qrng.Range(0, 4) // within a segment or into the next
			case 3:
				at += qrng.Range(0, 25)
			case 4: // repeat
			case 5:
				at = 10 * math.Floor(at/10+float64(qrng.Intn(3))) // a segment edge
			case 6:
				at = qrng.Range(-20, at) // backwards, sometimes negative
			case 7:
				at += qrng.Range(100, 5000) // far future: extends many segments
			case 8:
				at = math.NaN()
			default:
				at = -qrng.Range(0, 10)
			}
			got, want := cursor[k].At(at), referenceFluctuatingAt(ref[k], at)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("seed %d query %d: At(%v) = %v, search gives %v", seed, q, at, got, want)
				return false
			}
			if !math.IsNaN(at) {
				ts[k] = math.Max(at, 0)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
