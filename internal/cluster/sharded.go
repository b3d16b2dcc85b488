package cluster

import (
	"fmt"

	"mudi/internal/obs"
	"mudi/internal/opt"
	"mudi/internal/perf"
	"mudi/internal/shard"
	"mudi/internal/span"
)

// This file is the window clock's per-device work. Devices are
// partitioned into contiguous lanes, each lane steps its devices'
// windows in device order at every window end, and everything that
// crosses a lane boundary — retunes, completions, evictions,
// placement, faults, arrivals — happens at the barrier, either as
// mailbox mail or as a control-plane event.
//
// The determinism contract is lane-count and worker-count invariance.
// Three rules deliver it:
//
//   - measurement noise draws from per-device streams (d.winRNG), so a
//     device's draw sequence does not depend on which other devices
//     share its lane;
//   - control-plane reactions (qps-change / resume-probe / slo-risk
//     retunes, pause evictions, completions) are posted to the barrier
//     and apply in (device, emission) order;
//   - cluster float sums (MeanP99, shed totals, utilization) aggregate
//     per device first and merge in global device order.
//
// Inside a lane, windows touch only lane-owned state: the device, its
// pool, its service (including the qps trace's per-device walk and its
// recorder stream), its winRNG, and its window record d.rec. That is
// the one observation path: a window's observation is its device's
// first mail, which publishes the record's events, metrics and swap
// bursts ahead of the reactions the window posted, and barrierTick's
// one walk over the devices feeds violations to the attributor and
// sums the records into the fleet series and timelines — so observed
// runs step in parallel like unobserved ones.

// deviceWindow is one device's control window: the lane-local work
// runs inline, every cross-lane reaction is posted to the mailbox, and
// what the window observed lands in d.rec, which the device's first
// mail publishes.
func (s *Sim) deviceWindow(now float64, lane *shard.Lane, d *deviceState) {
	w := span.WindowSec
	r := &d.rec
	if d.down {
		// A failed device serves nothing and burns nothing: it publishes
		// zero utilization for the barrier sums, an empty record, and
		// accrues no SLO windows during the outage.
		*r = winRecord{residents: r.residents[:0]}
		d.v.SMUtil = 0
		return
	}
	if d.observe != nil {
		lane.Post(d.observe)
	}
	svc := d.svc
	qps := svc.qpsTrace.At(now)
	*r = winRecord{at: now, offered: qps, residents: r.residents[:0]}

	// Admission control (class-aware runs only): a shed-eligible
	// service's offered load is capped at AdmitFactor × nominal QPS
	// (span.BurstFactor by default), and the excess is dropped at the
	// door instead of driving the window budget (and the co-located
	// critical services' retunes) into the ground. Critical/standard
	// load is never shed; batch defers but keeps every request. Shed
	// totals accumulate per device and merge at finalize in device order.
	if svc.info.Class.SheddableLoad() {
		admitCap := s.opts.AdmitFactor * svc.info.BaseQPS * s.opts.LoadFactor
		if admitCap > 0 && qps > admitCap {
			r.shed = qps - admitCap
			qps = admitCap
			svc.shedReq += r.shed * w
			svc.shedWins++
		}
	}
	r.qps = qps

	// Monitor: retune on a large QPS change (§5.3.2 case 2), or
	// periodically probe whether a paused device can resume
	// multiplexing. Triggers update the view's QPS inline (device-local)
	// and post the configure to the barrier — Configure walks the
	// policy's shared learner state, which only the global phase may
	// touch.
	if relChange(d.v.QPS, qps) >= qpsChangeFrac {
		s.postRetune(lane, d, qps, retuneQPSChange)
	} else if d.v.Paused && now-d.lastResumeTry >= resumeRetrySec {
		d.lastResumeTry = now
		s.postRetune(lane, d, qps, retuneResumeProbe)
	}
	// Pause evictions requeue through the scheduler — barrier work. The
	// message revalidates: an earlier message at the same barrier (a
	// resume-probe retune) may have unpaused the task.
	for _, t := range d.training {
		if t.paused && now-t.pausedAt >= pauseEvictSec {
			lane.Post(func(at float64) {
				if !d.down && t.paused {
					s.requeue(at, d, t)
				}
			})
		}
	}

	// SLO accounting with the true co-located latency plus noise drawn
	// from this device's own stream. The curve comes from the device's
	// memo, so the oracle is asked only when the configuration changed;
	// the one evaluation feeds both the measurement and the utilization.
	var trueLat float64
	curve, err := d.latencyCurve(s.opts.Oracle)
	if err == nil {
		trueLat = curve.Eval(d.v.Delta)
		lat := trueLat * perf.Noise(d.winRNG)
		budget := opt.Budget(svc.info.SLOms, d.v.Batch, qps)
		svc.totalWin++
		r.ok, r.lat, r.budget = true, lat, budget
		r.batch, r.delta = d.v.Batch, d.v.Delta
		if s.tl != nil {
			for _, t := range d.training {
				out, err := d.pool.SwappedOutMB(t.allocID)
				if err != nil {
					s.postPoolErr(lane, d, "reading "+t.allocID, err)
				}
				r.swapped += out
			}
			r.paused = d.v.Paused
		}
		if lat > budget {
			r.viol = true
			svc.violWin++
			for _, t := range d.training {
				if !t.paused {
					r.residents = append(r.residents, t.task.Name)
				}
			}
			// Monitor: "In cases where the Monitor detects that the
			// SLO is at risk of being violated, it triggers adaptive
			// batching or resource scaling accordingly" (§6).
			s.postRetune(lane, d, qps, retuneSLORisk)
		}
		svc.latSum += lat
	}

	// Training progress. A finished task leaves d.training inline
	// (device-local), compacted in place, so the slice is rewritten only
	// when some task finished; the completion itself — result appends,
	// memory release, queue usage, the follow-up retune and placement —
	// lands at the barrier in device order.
	share := d.trainShare()
	kept := 0
	for i, t := range d.training {
		if !t.paused && share > 0 && s.progress(now, lane, d, t, share) {
			lane.Post(func(float64) { s.complete(t.finishAt, d, t) })
			continue
		}
		if kept != i {
			d.training[kept] = t
		}
		kept++
	}
	if kept < len(d.training) {
		clear(d.training[kept:])
		d.training = d.training[:kept]
		d.snapshotResidents()
	}

	// Memory reclamation (Fig. 16's reclaim at QPS drop): touch swapped
	// training back in when the device has headroom, one reclaim per
	// window. Pool state is lane-owned, so this runs inline; the
	// observation mail publishes the swap bursts it records.
	if d.pool.CapacityMB()-d.pool.DeviceUsedMB() > 1024 {
		for _, t := range d.training {
			out, err := d.pool.SwappedOutMB(t.allocID)
			if err == nil && out > 0 {
				_, err = d.pool.Touch(now, t.allocID)
			}
			if err != nil {
				s.postPoolErr(lane, d, "reclaiming "+t.allocID, err)
			}
			if err != nil || out > 0 {
				break
			}
		}
	}

	// Utilization (Fig. 10): the service keeps its partition busy for
	// the fraction of time batches are in flight; active training burns
	// its share fully. Published per device; the barrier sums in device
	// order.
	busy := (qps / float64(d.v.Batch)) * (trueLat / 1000)
	if busy > 1 {
		busy = 1
	}
	trainBusy := 0.0
	for _, t := range d.training {
		if !t.paused {
			trainBusy += share
		}
	}
	d.v.SMUtil = min(d.v.Delta*busy+trainBusy, 1)
	r.memFrac = min(d.pool.DeviceUsedMB(), d.pool.CapacityMB()) / d.pool.CapacityMB()
}

// progress advances executing task t by one window at the given train
// share and reports whether it finished, stamping finishAt if so. A
// window whose iteration time the oracle cannot give leaves t as it
// was. A lost pool allocation is posted to the barrier, which stops
// the run.
func (s *Sim) progress(now float64, lane *shard.Lane, d *deviceState, t *taskState, share float64) bool {
	iter, err := t.trueIteration(s.opts.Oracle, share, d.svc.info.Name, d.v.Batch, d.v.Delta)
	if err != nil {
		return false
	}
	out, err := d.pool.SwappedOutMB(t.allocID)
	if err != nil {
		s.postPoolErr(lane, d, "reading "+t.allocID, err)
	} else if m := t.task.MemoryMB(); m > 0 {
		frac := out / m
		iter *= 1 + 0.5*frac
	}
	t.itersDone += span.WindowSec * 1000 / iter
	if t.itersDone < float64(t.iters) {
		return false
	}
	t.finishAt = now + span.WindowSec
	return true
}

// postPoolErr is poolErr from a device window: a lane may not stop the
// run, so it posts the error to the barrier, where the first one in
// device order stops Run.
func (s *Sim) postPoolErr(lane *shard.Lane, d *deviceState, op string, err error) {
	lane.Post(func(float64) { s.poolErr(d, op, err) })
}

// retuneCause is a Monitor trigger's cause, indexing retuneLabels.
type retuneCause int

const (
	retuneQPSChange retuneCause = iota
	retuneResumeProbe
	retuneSLORisk
	numRetuneCauses
)

// retuneLabels labels each cause's retune events.
var retuneLabels = [numRetuneCauses]string{"qps-change", "resume-probe", "slo-risk"}

// postRetune is a Monitor trigger: it makes qps the view's current
// rate inline and posts the retune to the barrier, where Configure may
// touch the policy's shared learner state. A device that is down by
// then skips it. The mail reads nothing from the window, so each
// (device, cause) binds its function once, on first use.
func (s *Sim) postRetune(lane *shard.Lane, d *deviceState, qps float64, cause retuneCause) {
	d.v.QPS = qps
	fn := d.retune[cause]
	if fn == nil {
		label := retuneLabels[cause]
		fn = func(at float64) {
			if !d.down {
				_ = s.configure(at, d, label)
			}
		}
		d.retune[cause] = fn
	}
	lane.Post(fn)
}

// observeWindow is a live device's observation mail, bound once per
// device when a record log is on and posted ahead of the window's other
// mail: it publishes the device's window record (its latency joins the
// window's batch, then load_shed, then slo_violation) and then the swap
// bursts its window recorded, so each device's window events precede
// its own reactions. barrierTick hands the batch to the sink.
func (s *Sim) observeWindow(d *deviceState) {
	r := &d.rec
	if r.ok && s.obsv != nil {
		s.obsv.latencies = append(s.obsv.latencies, obs.Entry{Histogram: d.obsv.latency, Value: r.lat})
		if cc := d.obsv.cls; cc != nil {
			cc.windows.Inc()
		}
	}
	if r.shed > 0 {
		s.record(d, span.Record{Act: span.ActLoadShed, Time: r.at, Value: r.shed, Cause: d.svc.info.Class.String()})
	}
	if r.viol {
		s.record(d, span.Record{Act: span.ActSLOViolation, Time: r.at, Value: r.lat, Cause: "window-budget"})
	}
	if d.swapSeen < len(d.pool.Events()) {
		s.flushSwaps(d)
	}
}

// flushSwaps publishes the pool's swap bursts recorded since the last
// flush (mem_swap records and the transfer histogram) and refreshes
// the swapped-MB gauge. The observation mail flushes lane windows'
// bursts; barrier-time code flushes right after each pool Alloc, Resize
// or Free, so bursts publish in the order they happened.
func (s *Sim) flushSwaps(d *deviceState) {
	if s.rec == nil {
		return
	}
	evs := d.pool.Events()
	for _, e := range evs[d.swapSeen:] {
		dir := "to-device"
		if e.ToHost {
			dir = "to-host"
		}
		if s.obsv != nil {
			d.obsv.swapXfer.Observe(e.TransferMs)
		}
		s.record(d, span.Record{Act: span.ActMemSwap, Time: e.Time, End: e.Time + e.TransferMs/1000, Task: e.Alloc, Value: e.MB, Cause: dir})
	}
	d.swapSeen = len(evs)
	if s.obsv != nil {
		d.obsv.swapped.Set(d.pool.HostUsedMB())
	}
}

// barrierTick is the global control-plane window: the window's
// latencies handed to the sink in one batch, the cancellation check,
// and one walk over the devices in global order that hands the
// window's violations to the attributor and sums the fleet utilization
// and the timeline roll-ups; then the fleet series and the all-done
// stop. It runs after the mailbox applied and the events at this time
// fired, so every completion at this window is already counted in
// res.Completed, every retune, rescale or outage that reacts to a
// violated window is already in the attributor's state, and a device
// that failed at this barrier counts as down.
func (s *Sim) barrierTick(now float64) {
	if o := s.obsv; o != nil {
		s.opts.Obs.ObserveAll(o.latencies)
		o.latencies = o.latencies[:0]
	}
	if s.opts.Ctx != nil && s.opts.Ctx.Err() != nil {
		s.sh.Stop()
		return
	}
	var smSum, memSum float64
	memHot := 0
	for _, d := range s.devices {
		if r := &d.rec; s.attr != nil && r.viol {
			s.attr.Observe(span.Sample{
				Time: r.at, Device: d.v.ID, Service: d.svc.info.Name,
				LatencyMs: r.lat, BudgetMs: r.budget, QPS: r.qps,
				BaseQPS:   d.svc.info.BaseQPS * s.opts.LoadFactor,
				Residents: append(make([]string, 0, len(r.residents)), r.residents...),
				Class:     d.svc.info.Class.String(), ShedQPS: r.shed,
			})
		}
		smSum += d.v.SMUtil
		memSum += d.rec.memFrac
		if d.rec.memFrac > memPressureFrac {
			memHot++
		}
		if s.tl != nil {
			s.tl.device(d)
		}
	}
	n := float64(len(s.devices))
	if err := s.res.SMUtil.Add(now, smSum/n); err != nil {
		s.stop(fmt.Errorf("cluster: fleet SM utilization: %w", err))
	}
	if err := s.res.MemUtil.Add(now, memSum/n); err != nil {
		s.stop(fmt.Errorf("cluster: fleet memory utilization: %w", err))
	}
	if s.tl != nil {
		s.tl.window(now, smSum/n, memSum/n, memHot, s.queue.Len())
	}
	if s.obsv != nil {
		s.obsv.windows.Inc()
		s.obsv.smUtil.Set(smSum / n)
		s.obsv.memUtil.Set(memSum / n)
		s.obsv.queueDepth.Set(float64(s.queue.Len()))
	}
	if s.res.Completed == len(s.opts.Arrivals) && s.queue.Len() == 0 {
		s.sh.Stop()
	}
}
