package cluster

import (
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
// the one observation path: the barrier reads every record back in
// global device order — fold publishes events, metrics, attribution
// and swap bursts, barrierTick rolls the records into timelines — so
// observed runs step in parallel like unobserved ones.

// deviceWindow is one device's control window: the lane-local work
// runs inline, every cross-lane reaction is posted to the mailbox, and
// what the window observed lands in d.rec.
func (s *Sim) deviceWindow(now float64, lane *shard.Lane, d *deviceState) {
	w := span.WindowSec
	r := &d.rec
	if d.down {
		// A failed device serves nothing and burns nothing: it publishes
		// zero utilization for the barrier sums, an empty record, and
		// accrues no SLO windows during the outage.
		d.smUtil = 0
		d.memFrac = 0
		*r = winRecord{residents: r.residents[:0]}
		return
	}
	svc := d.svc
	qps := svc.qpsTrace.At(now)
	*r = winRecord{at: now, fresh: true, offered: qps, residents: r.residents[:0]}

	// Admission control (class-aware runs only): a shed-eligible
	// service's offered load is capped at AdmitFactor × nominal QPS
	// (span.BurstFactor by default), and the excess is dropped at the
	// door instead of driving the window budget (and the co-located
	// critical services' retunes) into the ground. Critical/standard
	// load is never shed; batch defers but keeps every request. Shed
	// totals accumulate per device and merge at finalize in device order.
	if s.classAware && svc.info.Class.SheddableLoad() {
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
	// multiplexing. Triggers update curQPS inline (device-local) and
	// post the configure to the barrier — Configure walks the policy's
	// shared learner state, which only the global phase may touch.
	if relChange(svc.curQPS, qps) >= qpsChangeFrac {
		svc.curQPS = qps
		lane.Post(func(at float64) {
			if !d.down {
				_ = s.configure(at, d, "qps-change")
			}
		})
	} else if d.hasPaused() && now-d.lastResumeTry >= resumeRetrySec {
		d.lastResumeTry = now
		svc.curQPS = qps
		lane.Post(func(at float64) {
			if !d.down {
				_ = s.configure(at, d, "resume-probe")
			}
		})
	}
	// Pause evictions requeue through the scheduler — barrier work. The
	// message revalidates: an earlier message at the same barrier (a
	// resume-probe retune) may have unpaused the task.
	for _, t := range d.training {
		t := t
		if !t.done && t.paused && now-t.pausedAt >= pauseEvictSec {
			lane.Post(func(at float64) {
				if !d.down && !t.done && t.paused {
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
		trueLat = curve.Eval(svc.delta)
		lat := trueLat * perf.Noise(d.winRNG)
		budget := svc.info.SLOms * float64(svc.batch) / qps
		svc.totalWin++
		r.ok, r.lat, r.budget = true, lat, budget
		r.batch, r.delta = svc.batch, svc.delta
		if s.tl != nil {
			for _, t := range d.training {
				if out, err := d.pool.SwappedOutMB(t.allocID); err == nil {
					r.swapped += out
				}
			}
			r.paused = d.hasPaused()
		}
		if lat > budget {
			r.viol = true
			svc.violWin++
			for _, t := range d.training {
				if !t.done && !t.paused {
					r.residents = append(r.residents, t.task.Name)
				}
			}
			// Monitor: "In cases where the Monitor detects that the
			// SLO is at risk of being violated, it triggers adaptive
			// batching or resource scaling accordingly" (§6).
			svc.curQPS = qps
			lane.Post(func(at float64) {
				if !d.down {
					_ = s.configure(at, d, "slo-risk")
				}
			})
		}
		svc.latSum += lat
	}

	// Training progress. Completion flags flip inline (device-local),
	// the completion itself — result appends, queue usage, the
	// follow-up retune and placement — lands at the barrier in device
	// order. No snapshot needed: nothing mutates d.training inline.
	share := d.trainShare()
	for _, t := range d.training {
		t := t
		if t.done || t.paused || share <= 0 {
			continue
		}
		iter, err := t.trueIteration(s.opts.Oracle, share, svc.info.Name, svc.batch, svc.delta)
		if err != nil {
			continue
		}
		if out, err := d.pool.SwappedOutMB(t.allocID); err == nil && t.task.MemoryMB() > 0 {
			frac := out / t.task.MemoryMB()
			iter *= 1 + 0.5*frac
		}
		t.itersDone += w * 1000 / iter
		if t.itersDone >= float64(t.iters) {
			t.done = true
			t.finishAt = now + w
			lane.Post(func(float64) { s.complete(t.finishAt, d, t) })
		}
	}

	// Memory reclamation (Fig. 16's reclaim at QPS drop): touch swapped
	// training back in when the device has headroom, one reclaim per
	// window. Pool state is lane-owned, so this runs inline; the fold
	// publishes the swap bursts it records.
	if d.pool.CapacityMB()-d.pool.DeviceUsedMB() > 1024 {
		for _, t := range d.training {
			if t.done {
				continue
			}
			if out, err := d.pool.SwappedOutMB(t.allocID); err == nil && out > 0 {
				_, _ = d.pool.Touch(now, t.allocID)
				break
			}
		}
	}

	// Utilization (Fig. 10): the service keeps its partition busy for
	// the fraction of time batches are in flight; active training burns
	// its share fully. Published per device; the barrier sums in device
	// order.
	busy := (qps / float64(svc.batch)) * (trueLat / 1000)
	if busy > 1 {
		busy = 1
	}
	trainBusy := 0.0
	for _, t := range d.training {
		if !t.done && !t.paused {
			trainBusy += share
		}
	}
	d.smUtil = svc.delta*busy + trainBusy
	if d.smUtil > 1 {
		d.smUtil = 1
	}
	d.memFrac = min(d.pool.DeviceUsedMB(), d.pool.CapacityMB()) / d.pool.CapacityMB()
}

// fold is the engine's once-per-window read-back, installed only when
// a record log is on. It walks devices in global order and publishes
// each device's fresh window record (latency, load_shed, then
// violation), then the swap bursts its window recorded — the order a
// one-lane sequential step would emit them in.
func (s *Sim) fold(float64) {
	for _, d := range s.devices {
		if d.rec.fresh {
			d.rec.fresh = false
			s.observeWindow(d)
		}
		if d.swapSeen < len(d.pool.Events()) {
			s.flushSwaps(d)
		}
	}
}

// observeWindow fans one device's window record out to the
// attributor, the metrics and the record log.
func (s *Sim) observeWindow(d *deviceState) {
	r, svc := &d.rec, d.svc
	class := svc.info.Class.String()
	if r.viol && s.attr != nil {
		s.attr.Observe(span.Sample{
			Time: r.at, Device: d.dev.ID, Service: svc.info.Name,
			LatencyMs: r.lat, BudgetMs: r.budget, QPS: r.qps,
			BaseQPS:   svc.info.BaseQPS * s.opts.LoadFactor,
			Residents: append(make([]string, 0, len(r.residents)), r.residents...),
			Class:     class, ShedQPS: r.shed,
		})
	}
	if r.ok && s.obsv != nil {
		d.obsv.latency.Observe(r.lat)
		if cc := d.obsv.cls; cc != nil {
			cc.windows.Inc()
		}
	}
	if r.shed > 0 {
		s.record(d, span.Record{Act: span.ActLoadShed, Time: r.at, Value: r.shed, Cause: class})
	}
	if r.viol {
		s.record(d, span.Record{Act: span.ActSLOViolation, Time: r.at, Value: r.lat, Cause: "window-budget"})
	}
}

// flushSwaps publishes the pool's swap bursts recorded since the last
// flush (mem_swap records and the transfer histogram) and refreshes
// the swapped-MB gauge. The fold flushes lane windows' bursts;
// barrier-time code flushes right after each pool Alloc, Resize or
// Free, so bursts publish in the order they happened.
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

// barrierTick is the global control-plane window: cancellation check,
// cluster utilization sums over the values the lanes just published,
// and the all-done stop. It runs after the mailbox applied, so every
// completion at this window is already counted in res.Completed.
func (s *Sim) barrierTick(now float64) {
	if s.opts.Ctx != nil && s.opts.Ctx.Err() != nil {
		s.sh.Stop()
		return
	}
	var smSum, memSum float64
	memHot := 0
	for _, d := range s.devices {
		smSum += d.smUtil
		memSum += d.memFrac
		if d.memFrac > memPressureFrac {
			memHot++
		}
	}
	n := float64(len(s.devices))
	_ = s.res.SMUtil.Add(now, smSum/n)
	_ = s.res.MemUtil.Add(now, memSum/n)
	if s.tl != nil {
		s.tl.window(s, now, smSum/n, memSum/n, memHot)
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
