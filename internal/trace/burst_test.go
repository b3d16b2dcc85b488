package trace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// linearBurstyAt is the reference burst overlay: a scan of the list in
// order, multiplying by every burst that covers t.
func linearBurstyAt(inner QPSTrace, bursts []Burst, t float64) float64 {
	v := inner.At(t)
	for _, b := range bursts {
		if t >= b.Start && t < b.End {
			v *= b.Factor
		}
	}
	return v
}

// burstList is a random burst list for quick.Check: edges come from a
// coarse grid, so bursts overlap, share edges and are zero-length or
// reversed often; factors are arbitrary, so the order of the
// multiplies shows in the result's bits.
type burstList []Burst

func (burstList) Generate(r *rand.Rand, size int) reflect.Value {
	edge := func() float64 {
		if r.Intn(4) == 0 {
			return r.Float64() * 20
		}
		return float64(r.Intn(9)) * 2.5
	}
	bs := make(burstList, r.Intn(size+1))
	for i := range bs {
		start := edge()
		end := start
		switch r.Intn(5) {
		case 0: // zero-length
		case 1:
			end = edge() // may precede start
		default:
			end = start + float64(1+r.Intn(4))*2.5
		}
		bs[i] = Burst{Start: start, End: end, Factor: 0.3 + 3*r.Float64()}
	}
	return reflect.ValueOf(bs)
}

// TestBurstScheduleMatchesLinearScan checks the indexed schedule
// against the linear scan, bit for bit, at every edge, just before and
// just after each, and outside the edge range.
func TestBurstScheduleMatchesLinearScan(t *testing.T) {
	inner := ConstantQPS(123.456)
	prop := func(bs burstList) bool {
		q := NewBurstyQPS(inner, NewBurstSchedule(bs))
		ts := []float64{math.Inf(-1), -1, 100, math.Inf(1), math.NaN()}
		for _, b := range bs {
			for _, e := range []float64{b.Start, b.End} {
				ts = append(ts, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
			}
		}
		for _, at := range ts {
			got, want := q.At(at), linearBurstyAt(inner, bs, at)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("bursts %v: At(%v) = %v, linear scan %v", bs, at, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
