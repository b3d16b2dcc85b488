package cluster

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"

	"mudi/internal/stats"
)

// Summary renders the deterministic portion of a Result as a canonical
// string, byte-identical for identical simulations. It leaves out the
// two Fig. 18 inputs: PlacementOverheadMs, the one wall-clock
// (non-simulated) field, and BOIterations, whose counts the retune
// spans also carry. It iterates maps in sorted key order, so two runs
// of the same seed compare equal regardless of worker count,
// scheduling, or host speed. The determinism regression test diffs
// these strings across -parallel settings.
func (r *Result) Summary() string {
	var b strings.Builder
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	floats := func(name string, vs []float64) {
		b.WriteString(name)
		b.WriteByte('=')
		for i, v := range vs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f(v))
		}
		b.WriteByte('\n')
	}
	sortedMap := func(name string, m map[string]float64) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(name)
		b.WriteByte('=')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k)
			b.WriteByte(':')
			b.WriteString(f(m[k]))
		}
		b.WriteByte('\n')
	}
	series := func(name string, s *stats.TimeSeries) {
		if s == nil {
			b.WriteString(name + "=\n")
			return
		}
		ts, vs := s.Points()
		b.WriteString(name)
		b.WriteByte('=')
		for i := range ts {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f(ts[i]))
			b.WriteByte('@')
			b.WriteString(f(vs[i]))
		}
		b.WriteByte('\n')
	}
	b.WriteString("policy=" + r.Policy + "\n")
	sortedMap("slo_violation", r.SLOViolation)
	sortedMap("mean_p99_ms", r.MeanP99)
	floats("cts", r.CTs)
	floats("waiting", r.WaitingT)
	b.WriteString("makespan=" + f(r.Makespan) + "\n")
	b.WriteString("completed=" + strconv.Itoa(r.Completed) + "\n")
	b.WriteString("admitted=" + strconv.Itoa(r.Admitted) + "\n")
	series("sm_util", r.SMUtil)
	series("mem_util", r.MemUtil)
	b.WriteString("swap_events=" + strconv.Itoa(r.SwapEvents) + "\n")
	sortedMap("swap_fraction", r.SwapFraction)
	b.WriteString("avg_transfer_ms=" + f(r.AvgTransferMs) + "\n")
	b.WriteString("reconfigs=" + strconv.Itoa(r.Reconfigs) + "\n")
	b.WriteString("paused_episodes=" + strconv.Itoa(r.PausedEpisodes) + "\n")
	// Fault accounting appears only when the injector actually fired,
	// so unfaulted runs stay byte-identical to pre-fault summaries.
	if r.DeviceFailures+r.DeviceRecoveries+r.Failovers+r.FailedSpinUps+r.MeasureRetries > 0 {
		b.WriteString("faults=failed:" + strconv.Itoa(r.DeviceFailures) +
			",recovered:" + strconv.Itoa(r.DeviceRecoveries) +
			",failovers:" + strconv.Itoa(r.Failovers) +
			",spinup_failed:" + strconv.Itoa(r.FailedSpinUps) +
			",measure_retries:" + strconv.Itoa(r.MeasureRetries) + "\n")
	}
	// Likewise failed tuning episodes: a clean run prints no line.
	if r.ConfigureErrors > 0 {
		b.WriteString("configure_errors=" + strconv.Itoa(r.ConfigureErrors) + "\n")
	}
	// SLO-class accounting appears only when a run is class-aware, so
	// classless runs stay byte-identical to pre-class summaries.
	if len(r.ClassViolation) > 0 {
		sortedMap("class_slo_violation", r.ClassViolation)
	}
	if len(r.ShedRequests) > 0 {
		sortedMap("shed_requests", r.ShedRequests)
		b.WriteString("shed_windows=" + strconv.Itoa(r.ShedWindows) + "\n")
	}
	return b.String()
}

// resultJSON is the machine-readable projection of a Result: scalars,
// per-service maps, and the utilization series downsampled to a fixed
// number of points.
type resultJSON struct {
	Policy            string             `json:"policy"`
	SLOViolation      map[string]float64 `json:"slo_violation"`
	MeanSLOViolation  float64            `json:"mean_slo_violation"`
	MeanP99Ms         map[string]float64 `json:"mean_p99_ms"`
	MeanCTSec         float64            `json:"mean_ct_sec"`
	P90CTSec          float64            `json:"p90_ct_sec"`
	MeanWaitingSec    float64            `json:"mean_waiting_sec"`
	MakespanSec       float64            `json:"makespan_sec"`
	Completed         int                `json:"completed"`
	Admitted          int                `json:"admitted"`
	SMUtilAvg         float64            `json:"sm_util_avg"`
	MemUtilAvg        float64            `json:"mem_util_avg"`
	SMUtilSeries      []float64          `json:"sm_util_series,omitempty"`
	MemUtilSeries     []float64          `json:"mem_util_series,omitempty"`
	SwapEvents        int                `json:"swap_events"`
	SwapFraction      map[string]float64 `json:"swap_fraction"`
	AvgTransferMs     float64            `json:"avg_transfer_ms"`
	Reconfigs         int                `json:"reconfigs"`
	PausedEpisodes    int                `json:"paused_episodes"`
	DeviceFailures    int                `json:"device_failures,omitempty"`
	DeviceRecoveries  int                `json:"device_recoveries,omitempty"`
	Failovers         int                `json:"failovers,omitempty"`
	FailedSpinUps     int                `json:"failed_spinups,omitempty"`
	MeasureRetries    int                `json:"measure_retries,omitempty"`
	ConfigureErrors   int                `json:"configure_errors,omitempty"`
	ClassViolation    map[string]float64 `json:"class_slo_violation,omitempty"`
	ShedRequests      map[string]float64 `json:"shed_requests,omitempty"`
	ShedWindows       int                `json:"shed_windows,omitempty"`
	PlacementP50Ms    float64            `json:"placement_p50_ms"`
	PlacementP99Ms    float64            `json:"placement_p99_ms"`
	UtilSeriesPoints  int                `json:"util_series_points,omitempty"`
	UtilSeriesSpanSec float64            `json:"util_series_span_sec,omitempty"`
}

// WriteJSON emits the result in a machine-readable form for downstream
// analysis and plotting. The utilization series are downsampled to
// seriesPoints samples over [0, makespan] (0 omits them).
func (r *Result) WriteJSON(w io.Writer, seriesPoints int) error {
	// Sort the placement overheads once and answer both percentile
	// queries from the sorted copy.
	placement := append([]float64(nil), r.PlacementOverheadMs...)
	sort.Float64s(placement)
	out := resultJSON{
		Policy:           r.Policy,
		SLOViolation:     r.SLOViolation,
		MeanSLOViolation: r.MeanSLOViolation(),
		MeanP99Ms:        r.MeanP99,
		MeanCTSec:        r.MeanCT(),
		P90CTSec:         stats.Percentile(r.CTs, 90),
		MeanWaitingSec:   r.MeanWaiting(),
		MakespanSec:      r.Makespan,
		Completed:        r.Completed,
		Admitted:         r.Admitted,
		SMUtilAvg:        r.SMUtil.TimeAverage(0, r.Makespan),
		MemUtilAvg:       r.MemUtil.TimeAverage(0, r.Makespan),
		SwapEvents:       r.SwapEvents,
		SwapFraction:     r.SwapFraction,
		AvgTransferMs:    r.AvgTransferMs,
		Reconfigs:        r.Reconfigs,
		PausedEpisodes:   r.PausedEpisodes,
		DeviceFailures:   r.DeviceFailures,
		DeviceRecoveries: r.DeviceRecoveries,
		Failovers:        r.Failovers,
		FailedSpinUps:    r.FailedSpinUps,
		MeasureRetries:   r.MeasureRetries,
		ConfigureErrors:  r.ConfigureErrors,
		ClassViolation:   r.ClassViolation,
		ShedRequests:     r.ShedRequests,
		ShedWindows:      r.ShedWindows,
		PlacementP50Ms:   stats.PercentileSorted(placement, 50),
		PlacementP99Ms:   stats.PercentileSorted(placement, 99),
	}
	if seriesPoints > 0 && r.Makespan > 0 {
		_, out.SMUtilSeries = r.SMUtil.Downsample(0, r.Makespan, seriesPoints)
		_, out.MemUtilSeries = r.MemUtil.Downsample(0, r.Makespan, seriesPoints)
		out.UtilSeriesPoints = seriesPoints
		out.UtilSeriesSpanSec = r.Makespan
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
