// Package stats provides the descriptive statistics used throughout the
// simulator and the evaluation harness: percentiles, CDFs, online
// moments, and time-weighted utilization series.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs using
// linear interpolation between closest ranks. It returns 0 for an empty
// slice and does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// PercentileSorted returns the p-th percentile of an ascending-sorted
// slice with the same closest-rank interpolation as Percentile, without
// copying or re-sorting. It returns 0 for an empty slice. Callers that
// need several percentiles of one dataset should sort once and query
// through this.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return percentileSorted(sorted, p)
}

// Scratch computes percentiles by selection (quickselect) over a
// reusable internal buffer: O(n) expected time instead of O(n·log n),
// and zero allocations once the buffer has grown to the largest input
// seen. Results are bit-identical to Percentile — selection yields the
// same order statistics a full sort would, and the interpolation
// arithmetic is shared. The zero value is ready to use. Not safe for
// concurrent use; give each goroutine its own Scratch.
type Scratch struct {
	buf []float64
}

// Percentile returns the p-th percentile of xs (same contract as the
// package-level Percentile; xs is not modified).
func (s *Scratch) Percentile(xs []float64, p float64) float64 {
	copy(s.Buffer(len(xs)), xs)
	var out [1]float64
	s.Percentiles([]float64{p}, out[:])
	return out[0]
}

// Buffer returns the scratch buffer resized to n elements, for a caller
// that writes its data there in place of handing Percentile a slice to
// copy; Percentiles then reads it.
func (s *Scratch) Buffer(n int) []float64 {
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	s.buf = s.buf[:n]
	return s.buf
}

// Percentiles sets out[i] to the ps[i]-th percentile of the values in
// the buffer (see Buffer), each equal to what Percentile reports for
// them. It reads every percentile from the one buffer, reordering it:
// each selection runs on the side of the previous one's order
// statistic that holds the next, so ascending ps cost one pass over a
// shrinking tail rather than a copy and a full selection each. An
// empty buffer reads 0.
func (s *Scratch) Percentiles(ps, out []float64) {
	buf := s.buf
	n := len(buf)
	// buf[sel] holds its order statistic, with buf[:sel] ≤ it ≤
	// buf[sel+1:]; -1 before any selection.
	sel := -1
	for i, p := range ps {
		switch {
		case n == 0:
			out[i] = 0
			continue
		case p <= 0:
			out[i] = Min(buf)
			continue
		case p >= 100:
			out[i] = Max(buf)
			continue
		}
		rank := p / 100 * float64(n-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		var v float64
		switch {
		case lo > sel:
			v = selectKth(buf[sel+1:], lo-sel-1)
		case lo < sel:
			v = selectKth(buf[:sel], lo)
		default:
			v = buf[lo]
		}
		sel = lo
		if lo == hi {
			out[i] = v
			continue
		}
		// Every element past index lo is ≥ v, so the next order
		// statistic is the minimum of that tail.
		next := Min(buf[lo+1:])
		frac := rank - float64(lo)
		out[i] = v*(1-frac) + next*frac
	}
}

// P99 is shorthand for Percentile(xs, 99) on the scratch buffer.
func (s *Scratch) P99(xs []float64) float64 { return s.Percentile(xs, 99) }

// selectKth partially orders buf so buf[k] holds the k-th smallest
// element (0-based), with everything before it ≤ and everything after
// it ≥, and returns it. Deterministic median-of-three quickselect.
func selectKth(buf []float64, k int) float64 {
	lo, hi := 0, len(buf)-1
	for lo < hi {
		p := partition(buf, lo, hi)
		switch {
		case k < p:
			hi = p - 1
		case k > p:
			lo = p + 1
		default:
			return buf[k]
		}
	}
	return buf[k]
}

// partition Lomuto-partitions buf[lo..hi] around a median-of-three
// pivot and returns the pivot's final index.
func partition(buf []float64, lo, hi int) int {
	mid := int(uint(lo+hi) >> 1)
	if buf[mid] < buf[lo] {
		buf[mid], buf[lo] = buf[lo], buf[mid]
	}
	if buf[hi] < buf[lo] {
		buf[hi], buf[lo] = buf[lo], buf[hi]
	}
	if buf[mid] < buf[hi] {
		buf[mid], buf[hi] = buf[hi], buf[mid]
	}
	pivot := buf[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if buf[j] < pivot {
			buf[i], buf[j] = buf[j], buf[i]
			i++
		}
	}
	buf[i], buf[hi] = buf[hi], buf[i]
	return i
}

// TimeSeries records (time, value) points and computes time-weighted
// averages — used for SM/memory utilization curves (Fig. 10). Points
// must be appended in non-decreasing time order.
type TimeSeries struct {
	ts []float64
	vs []float64
}

// NewTimeSeries returns an empty series.
func NewTimeSeries() *TimeSeries { return &TimeSeries{} }

// Add appends a point. It returns an error if t precedes the last point.
func (s *TimeSeries) Add(t, v float64) error {
	if n := len(s.ts); n > 0 && t < s.ts[n-1] {
		return fmt.Errorf("stats: time %v before last point %v", t, s.ts[len(s.ts)-1])
	}
	s.ts = append(s.ts, t)
	s.vs = append(s.vs, v)
	return nil
}

// Len returns the number of points.
func (s *TimeSeries) Len() int { return len(s.ts) }

// Points returns copies of the time and value slices.
func (s *TimeSeries) Points() (times, values []float64) {
	times = make([]float64, len(s.ts))
	values = make([]float64, len(s.vs))
	copy(times, s.ts)
	copy(values, s.vs)
	return times, values
}

// TimeAverage returns the time-weighted average of the step function
// defined by the points over [from, to]. Each point's value holds until
// the next point; the last value extends to `to`. Returns 0 when the
// series is empty or the interval is degenerate.
func (s *TimeSeries) TimeAverage(from, to float64) float64 {
	if len(s.ts) == 0 || to <= from {
		return 0
	}
	var area float64
	for i := 0; i < len(s.ts); i++ {
		start := s.ts[i]
		end := to
		if i+1 < len(s.ts) {
			end = s.ts[i+1]
		}
		if end <= from || start >= to {
			continue
		}
		if start < from {
			start = from
		}
		if end > to {
			end = to
		}
		area += s.vs[i] * (end - start)
	}
	return area / (to - from)
}

// Downsample returns n evenly spaced (time, value) samples of the step
// function over [from, to] — convenient for plotting-style output.
func (s *TimeSeries) Downsample(from, to float64, n int) (times, values []float64) {
	if n <= 0 || to <= from {
		return nil, nil
	}
	times = make([]float64, n)
	values = make([]float64, n)
	for i := 0; i < n; i++ {
		t := from + (to-from)*float64(i)/float64(n)
		times[i] = t
		values[i] = s.valueAt(t)
	}
	return times, values
}

func (s *TimeSeries) valueAt(t float64) float64 {
	if len(s.ts) == 0 || t < s.ts[0] {
		return 0
	}
	idx := sort.SearchFloat64s(s.ts, t)
	if idx == len(s.ts) || s.ts[idx] > t {
		idx--
	}
	return s.vs[idx]
}

// MAPE returns the mean absolute percentage error |pred-true|/|true|
// averaged over pairs, skipping entries where the truth is zero. This is
// the paper's prediction-error metric (Fig. 11/12). It panics if the
// slices have different lengths.
func MAPE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("stats: MAPE length mismatch")
	}
	var sum float64
	var n int
	for i := range pred {
		if truth[i] == 0 {
			continue
		}
		sum += math.Abs(pred[i]-truth[i]) / math.Abs(truth[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Histogram counts samples into fixed-width bins over [Lo, Hi);
// samples outside the range count toward the total but no bin. It
// backs the distribution summaries in the evaluation harness.
type Histogram struct {
	Lo, Hi float64
	bins   []int
	n      int
}

// NewHistogram returns a histogram with the given bin count over
// [lo, hi). It panics if bins <= 0 or hi <= lo — both are programming
// errors, not data conditions.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: bad histogram [%v,%v)/%d", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, bins: make([]int, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.n++
	if x < h.Lo || x >= h.Hi {
		return
	}
	idx := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.bins)))
	if idx >= len(h.bins) {
		idx = len(h.bins) - 1
	}
	h.bins[idx]++
}

// Fractions returns each bin's share of all samples (including
// outliers in the denominator).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.bins))
	if h.n == 0 {
		return out
	}
	for i, c := range h.bins {
		out[i] = float64(c) / float64(h.n)
	}
	return out
}
