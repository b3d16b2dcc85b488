// Package baselines implements the comparison systems of §7.1 as
// core.Policy instances:
//
//   - GSLICE [14]: per-device feedback-driven GPU partitioning for
//     inference, extended (as the paper does) with a simple training
//     tuning loop; placement is least-utilized-first, with no
//     cluster-wide interference awareness.
//   - gpulets [7]: discrete "gpulet" partitions chosen from solo-run
//     profiles (interference-oblivious); best-fit placement.
//   - MuxFlow [82]: pre-profiled interference for the observed task
//     types and matching-based placement; unseen tasks fall back to the
//     average profile, which is what the paper blames for its SLO
//     violations.
//   - Random: random eligible device, even static split (§7.4).
//   - Optimal: exhaustive search over placements and configurations
//     using the oracle's true curves — the §5.4/§7.2 upper bound.
//
// GSLICE, gpulets and MuxFlow place one training task per GPU. Every
// policy caps the inference partition at tuner.MaxDelta.
package baselines

import (
	"fmt"
	"math"

	"mudi/internal/core"
	"mudi/internal/model"
	"mudi/internal/opt"
	"mudi/internal/perf"
	"mudi/internal/piecewise"
	"mudi/internal/tuner"
	"mudi/internal/xrand"
)

// New builds the comparison system named name: "gslice", "gpulets",
// "muxflow", "random" or "optimal". Gpulets' profiling noise and
// Random's placement draw from streams offset from the run's seed.
// maxTrain caps co-located training tasks for Random and Optimal; the
// other three place one task per GPU.
func New(name string, oracle *perf.Oracle, seed uint64, maxTrain int) (core.Policy, error) {
	switch name {
	case "gslice":
		return NewGSLICE(), nil
	case "gpulets":
		return NewGpulets(oracle, xrand.New(seed+7))
	case "muxflow":
		return NewMuxFlow(oracle), nil
	case "random":
		return NewRandom(xrand.New(seed+11), maxTrain), nil
	case "optimal":
		return NewOptimal(oracle, maxTrain), nil
	}
	return nil, fmt.Errorf("baselines: unknown policy %q", name)
}

// maxTrainPerGPU is the per-GPU training cap of GSLICE, gpulets and
// MuxFlow: each places one task per GPU.
const maxTrainPerGPU = 1

// ---------------------------------------------------------------------------
// GSLICE

// GSLICE adjusts the inference partition by feedback on observed
// latency versus the SLO budget and grows the batch while feasible.
type GSLICE struct{}

// gsliceStep is GSLICE's feedback step on the inference partition.
const gsliceStep = 0.1

// NewGSLICE returns the baseline with the paper-matched extension for
// training co-location.
func NewGSLICE() *GSLICE { return &GSLICE{} }

// Name implements core.Policy.
func (g *GSLICE) Name() string { return "gslice" }

// SelectDevice implements core.Policy: least SM-utilized eligible
// device — capacity-driven, interference-blind.
func (g *GSLICE) SelectDevice(task model.TrainingTask, views []core.DeviceView, _ map[string]core.Measurer) (string, bool) {
	return core.PickMin(views, maxTrainPerGPU, func(v *core.DeviceView) (float64, bool) { return v.SMUtil, true })
}

// Configure implements core.Policy: feedback control on measurements.
func (g *GSLICE) Configure(view core.DeviceView, meas core.Measurer) (core.Decision, error) {
	if meas == nil {
		return core.Decision{}, fmt.Errorf("baselines: gslice needs a measurer")
	}
	maxDelta := tuner.MaxDelta(len(view.ResidentTasks) > 0)
	delta := view.Delta
	if delta <= 0 {
		delta = 0.5
	}
	if delta > maxDelta {
		delta = maxDelta
	}
	batch := view.Batch
	if batch <= 0 {
		batch = 64
	}
	// One feedback step per invocation: a reactive controller only
	// observes the latency the deployed configuration produced since
	// the last decision, so each Configure call moves Δ by at most one
	// step and grows the batch by at most one notch.
	budget := opt.Budget(view.SLOms, batch, view.QPS)
	lat, err := meas.InfLatencyMs(batch, delta)
	if err != nil {
		return core.Decision{}, err
	}
	switch {
	case lat > 0.9*budget && delta < maxDelta:
		delta = math.Min(delta+gsliceStep, maxDelta)
	case lat < 0.5*budget && delta > gsliceStep:
		delta -= gsliceStep
	}
	for _, b := range model.BatchSizes() {
		if b <= batch {
			continue
		}
		grownBudget := opt.Budget(view.SLOms, b, view.QPS)
		grownLat, err := meas.InfLatencyMs(b, delta)
		if err != nil {
			return core.Decision{}, err
		}
		if grownLat <= 0.8*grownBudget {
			batch = b
		}
		break // one notch per decision
	}
	// Feasibility check at the final configuration.
	finalBudget := opt.Budget(view.SLOms, batch, view.QPS)
	finalLat, err := meas.InfLatencyMs(batch, delta)
	if err != nil {
		return core.Decision{}, err
	}
	if finalLat > finalBudget && delta >= maxDelta {
		return core.Decision{Feasible: false}, nil
	}
	return core.Decision{Batch: batch, Delta: delta, Feasible: true}, nil
}

// ---------------------------------------------------------------------------
// gpulets

// Gpulets picks a discrete partition from solo-run profiles: it ignores
// co-location interference entirely when sizing.
type Gpulets struct {
	oracle     *perf.Oracle
	soloCurves map[string]map[int]piecewise.Func
}

// NewGpulets profiles the solo curves up front (the system's offline
// "gpulet" catalog).
func NewGpulets(oracle *perf.Oracle, rng *xrand.Rand) (*Gpulets, error) {
	g := &Gpulets{oracle: oracle, soloCurves: make(map[string]map[int]piecewise.Func)}
	for _, svc := range model.Services() {
		g.soloCurves[svc.Name] = make(map[int]piecewise.Func)
		for _, b := range model.BatchSizes() {
			curve, err := oracle.SoloCurve(svc.Name, b)
			if err != nil {
				return nil, err
			}
			// Solo curves are measured, so add sampling error.
			noisy := curve
			noisy.L0 *= perf.Noise(rng)
			g.soloCurves[svc.Name][b] = noisy
		}
	}
	return g, nil
}

// Name implements core.Policy.
func (g *Gpulets) Name() string { return "gpulets" }

// SelectDevice implements core.Policy: best-fit on free share.
func (g *Gpulets) SelectDevice(task model.TrainingTask, views []core.DeviceView, _ map[string]core.Measurer) (string, bool) {
	return core.PickMin(views, maxTrainPerGPU, func(v *core.DeviceView) (float64, bool) { return v.FreeShare, true })
}

// gpuletSizes are the discrete partitions the system allocates.
var gpuletSizes = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

// Configure implements core.Policy: smallest gpulet whose *solo* curve
// meets the budget, the largest batch feasible under it, plus — the
// paper's fairness extension ("we have incorporated a tuning mechanism
// for training in these baselines") — one corrective step to the next
// gpulet size when the measured co-located latency misses the budget.
func (g *Gpulets) Configure(view core.DeviceView, meas core.Measurer) (core.Decision, error) {
	curves, ok := g.soloCurves[view.ServiceName]
	if !ok {
		return core.Decision{}, fmt.Errorf("baselines: no solo profile for %s", view.ServiceName)
	}
	maxDelta := tuner.MaxDelta(len(view.ResidentTasks) > 0)
	best := core.Decision{}
	for _, b := range model.BatchSizes() {
		budget := opt.Budget(view.SLOms, b, view.QPS)
		for _, size := range gpuletSizes {
			if size > maxDelta+1e-9 {
				continue
			}
			if curves[b].Eval(size) <= budget {
				if !best.Feasible || b > best.Batch || (b == best.Batch && size < best.Delta) {
					best = core.Decision{Batch: b, Delta: size, Feasible: true}
				}
				break // smallest feasible gpulet for this batch
			}
		}
	}
	if !best.Feasible {
		return core.Decision{Feasible: false}, nil
	}
	// Keep the current (possibly feedback-grown) gpulet if it is larger
	// than the solo-profile answer, then apply one measured step.
	if view.Delta > best.Delta && view.Batch == best.Batch {
		best.Delta = snapGpulet(view.Delta, maxDelta)
	}
	if meas != nil {
		budget := opt.Budget(view.SLOms, best.Batch, view.QPS)
		lat, err := meas.InfLatencyMs(best.Batch, best.Delta)
		if err != nil {
			return core.Decision{}, err
		}
		if lat > budget {
			grown := nextGpulet(best.Delta)
			if grown > maxDelta+1e-9 {
				return core.Decision{Feasible: false, Batch: best.Batch}, nil
			}
			best.Delta = grown
		}
	}
	return best, nil
}

// snapGpulet rounds a partition up to the nearest gpulet size ≤ max.
func snapGpulet(delta, max float64) float64 {
	out := gpuletSizes[0]
	for _, size := range gpuletSizes {
		if size <= max+1e-9 && size <= delta+1e-9 {
			out = size
		}
	}
	return out
}

// nextGpulet returns the next larger discrete size.
func nextGpulet(delta float64) float64 {
	for _, size := range gpuletSizes {
		if size > delta+1e-9 {
			return size
		}
	}
	return 2 // beyond any valid size: forces infeasibility
}

// ---------------------------------------------------------------------------
// MuxFlow

// MuxFlow carries true pre-profiles for the observed tasks; for unseen
// tasks it substitutes the mean observed profile.
type MuxFlow struct {
	oracle   *perf.Oracle
	observed map[string]bool
	meanTask model.TrainingTask
}

// NewMuxFlow builds the baseline with profiles for the observed tasks.
func NewMuxFlow(oracle *perf.Oracle) *MuxFlow {
	m := &MuxFlow{oracle: oracle, observed: make(map[string]bool)}
	var mean model.Arch
	obs := model.ObservedTasks()
	for _, t := range obs {
		m.observed[t.Name] = true
		mean = mean.Add(t.Arch)
	}
	for i := range mean {
		mean[i] /= len(obs)
	}
	m.meanTask = model.TrainingTask{Name: "muxflow-mean", Arch: mean}
	return m
}

// Name implements core.Policy.
func (m *MuxFlow) Name() string { return "muxflow" }

// profileTask maps a task onto what MuxFlow believes about it.
func (m *MuxFlow) profileTask(t model.TrainingTask) model.TrainingTask {
	if m.observed[t.Name] {
		return t
	}
	return m.meanTask // unseen: fall back to the average profile
}

// SelectDevice implements core.Policy: matching-based — the device
// whose service suffers the least *believed* interference.
func (m *MuxFlow) SelectDevice(task model.TrainingTask, views []core.DeviceView, _ map[string]core.Measurer) (string, bool) {
	believed := m.profileTask(task)
	return core.PickMin(views, maxTrainPerGPU, func(v *core.DeviceView) (float64, bool) {
		f, err := m.oracle.TrainColocFactor(v.ServiceName, 64, append(believedSlice(v.ResidentTasks, m), believed))
		return f, err == nil
	})
}

func believedSlice(tasks []model.TrainingTask, m *MuxFlow) []model.TrainingTask {
	out := make([]model.TrainingTask, len(tasks))
	for i, t := range tasks {
		out[i] = m.profileTask(t)
	}
	return out
}

// Configure implements core.Policy: static SM allocation from the
// believed profile (Eq. 4 with the believed curve, no BO), plus one
// measured correction step — the believed profile is wrong for unseen
// tasks, which is exactly what the paper blames for MuxFlow's SLO
// violations, but the system still reacts to observed latency.
func (m *MuxFlow) Configure(view core.DeviceView, meas core.Measurer) (core.Decision, error) {
	believed := believedSlice(view.ResidentTasks, m)
	maxDelta := tuner.MaxDelta(len(view.ResidentTasks) > 0)
	best := core.Decision{}
	for _, b := range model.BatchSizes() {
		curve, err := m.oracle.TrainColocCurve(view.ServiceName, b, believed)
		if err != nil {
			return core.Decision{}, err
		}
		res, err := opt.MinPartition(opt.ScaleRequest{
			QPS: view.QPS, Batch: b, SLO: view.SLOms, Latency: curve, MaxDelta: maxDelta,
		})
		if err != nil || !res.Feasible {
			continue
		}
		if !best.Feasible || b > best.Batch {
			best = core.Decision{Batch: b, Delta: res.Delta, Feasible: true}
		}
	}
	if !best.Feasible {
		return core.Decision{Feasible: false}, nil
	}
	// Preserve an already feedback-grown partition at the same batch.
	if view.Batch == best.Batch && view.Delta > best.Delta && view.Delta <= maxDelta {
		best.Delta = view.Delta
	}
	if meas != nil {
		budget := opt.Budget(view.SLOms, best.Batch, view.QPS)
		lat, err := meas.InfLatencyMs(best.Batch, best.Delta)
		if err != nil {
			return core.Decision{}, err
		}
		if lat > budget {
			grown := best.Delta + 0.1
			if grown > maxDelta {
				return core.Decision{Feasible: false, Batch: best.Batch}, nil
			}
			best.Delta = grown
		}
	}
	return best, nil
}

// ---------------------------------------------------------------------------
// Random

// Random places on a random eligible device and splits the GPU evenly.
type Random struct {
	maxTrain int
	rng      *xrand.Rand
}

// NewRandom returns the random-placement baseline of §7.4.
func NewRandom(rng *xrand.Rand, maxTrain int) *Random {
	if maxTrain <= 0 {
		maxTrain = 1
	}
	return &Random{maxTrain: maxTrain, rng: rng}
}

// Name implements core.Policy.
func (r *Random) Name() string { return "random" }

// SelectDevice implements core.Policy.
func (r *Random) SelectDevice(task model.TrainingTask, views []core.DeviceView, _ map[string]core.Measurer) (string, bool) {
	var ids []string
	for _, v := range views {
		if core.Eligible(&v, r.maxTrain) {
			ids = append(ids, v.ID)
		}
	}
	if len(ids) == 0 {
		return "", false
	}
	return ids[r.rng.Intn(len(ids))], true
}

// Configure implements core.Policy: even split among all residents.
func (r *Random) Configure(view core.DeviceView, _ core.Measurer) (core.Decision, error) {
	n := len(view.ResidentTasks) + 1
	batch := view.Batch
	if batch <= 0 {
		batch = 64
	}
	return core.Decision{Batch: batch, Delta: 1 / float64(n), Feasible: true}, nil
}

// ---------------------------------------------------------------------------
// Optimal

// Optimal exhaustively searches placements and configurations with the
// oracle's true curves and iteration times — unattainable in practice,
// used as the §5.4 reference.
type Optimal struct {
	maxTrain int
	oracle   *perf.Oracle
}

// NewOptimal returns the exhaustive baseline.
func NewOptimal(oracle *perf.Oracle, maxTrain int) *Optimal {
	if maxTrain <= 0 {
		maxTrain = 1
	}
	return &Optimal{maxTrain: maxTrain, oracle: oracle}
}

// Name implements core.Policy.
func (o *Optimal) Name() string { return "optimal" }

// BestOnDevice returns the true-iteration-minimizing feasible
// configuration of task on the device, or ok=false. It is the §5.4
// exhaustive optimum that Mudi's device selection is judged against.
func (o *Optimal) BestOnDevice(task model.TrainingTask, v core.DeviceView) (core.Decision, bool) {
	coloc := append(append([]model.TrainingTask(nil), v.ResidentTasks...), task)
	best := core.Decision{}
	bestIter := math.Inf(1)
	for _, b := range model.BatchSizes() {
		curve, err := o.oracle.TrainColocCurve(v.ServiceName, b, coloc)
		if err != nil {
			continue
		}
		res, err := opt.MinPartition(opt.ScaleRequest{
			QPS: v.QPS, Batch: b, SLO: v.SLOms, Latency: curve, MaxDelta: tuner.MaxDelta(true),
		})
		if err != nil || !res.Feasible {
			continue
		}
		share := (1 - res.Delta) / float64(len(coloc))
		iter, err := o.oracle.TrueIteration(task, share, v.ServiceName, b, res.Delta)
		if err != nil {
			continue
		}
		if iter < bestIter {
			bestIter = iter
			best = core.Decision{Batch: b, Delta: res.Delta, Feasible: true, TrainIterMs: iter}
		}
	}
	return best, best.Feasible
}

// SelectDevice implements core.Policy: the device minimizing the true
// achievable iteration time.
func (o *Optimal) SelectDevice(task model.TrainingTask, views []core.DeviceView, _ map[string]core.Measurer) (string, bool) {
	return core.PickMin(views, o.maxTrain, func(v *core.DeviceView) (float64, bool) {
		dec, ok := o.BestOnDevice(task, *v)
		return dec.TrainIterMs, ok
	})
}

// Configure implements core.Policy: the true-optimal configuration for
// the device's current residents.
func (o *Optimal) Configure(view core.DeviceView, _ core.Measurer) (core.Decision, error) {
	maxDelta := tuner.MaxDelta(len(view.ResidentTasks) > 0)
	best := core.Decision{}
	bestIter := math.Inf(1)
	for _, b := range model.BatchSizes() {
		curve, err := o.oracle.TrainColocCurve(view.ServiceName, b, view.ResidentTasks)
		if err != nil {
			return core.Decision{}, err
		}
		res, err := opt.MinPartition(opt.ScaleRequest{
			QPS: view.QPS, Batch: b, SLO: view.SLOms, Latency: curve, MaxDelta: maxDelta,
		})
		if err != nil || !res.Feasible {
			continue
		}
		if len(view.ResidentTasks) == 0 {
			if !best.Feasible || b > best.Batch {
				best = core.Decision{Batch: b, Delta: res.Delta, Feasible: true}
			}
			continue
		}
		share := (1 - res.Delta) / float64(len(view.ResidentTasks))
		var total float64
		for _, task := range view.ResidentTasks {
			iter, err := o.oracle.TrueIteration(task, share, view.ServiceName, b, res.Delta)
			if err != nil {
				total = math.Inf(1)
				break
			}
			total += iter
		}
		if total < bestIter {
			bestIter = total
			best = core.Decision{Batch: b, Delta: res.Delta, Feasible: true, TrainIterMs: total}
		}
	}
	if !best.Feasible {
		return core.Decision{Feasible: false}, nil
	}
	return best, nil
}

// Interface checks.
var (
	_ core.Policy = (*GSLICE)(nil)
	_ core.Policy = (*Gpulets)(nil)
	_ core.Policy = (*MuxFlow)(nil)
	_ core.Policy = (*Random)(nil)
	_ core.Policy = (*Optimal)(nil)
)
