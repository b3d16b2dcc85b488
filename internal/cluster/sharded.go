package cluster

import (
	"mudi/internal/obs"
	"mudi/internal/span"
)

// This file is the event engine's per-window work. Devices are
// partitioned into contiguous lanes, each lane drains its own calendar
// of per-device window ticks, and everything that crosses a lane
// boundary — retunes, completions, evictions, placement, faults,
// arrivals — happens at a barrier, either as a sequenced mailbox
// message or as a global calendar event.
//
// The determinism contract is lane-count and worker-count invariance.
// Three rules deliver it:
//
//   - measurement noise draws from per-device streams (d.winRNG), so a
//     device's draw sequence does not depend on which other devices
//     share its lane;
//   - control-plane reactions (qps-change / resume-probe / slo-risk
//     retunes, pause evictions, completions) are posted to the barrier
//     and apply in (time, device, emission) order;
//   - cluster float sums (MeanP99, shed totals, utilization) aggregate
//     per device first and merge in global device order.
//
// Inside a lane, handlers touch only lane-owned state: the device, its
// pool, its service (including the qps trace's per-device walk), and
// its winRNG. Shared sinks (obs/trace/attr/record) force workers=1 at
// construction, in which case lanes drain inline in index order and
// every emission lands in global device order anyway.

// deviceWindow is one device's control window: the lane-local work
// runs inline, and every cross-lane reaction is posted to the mailbox.
func (s *Sim) deviceWindow(now float64, d *deviceState) {
	w := s.opts.WindowSec
	if d.down {
		// A failed device serves nothing and burns nothing: it publishes
		// zero utilization for the barrier sums and accrues no SLO
		// windows during the outage.
		d.smUtil = 0
		d.memFrac = 0
		d.winQPS, d.winShed, d.winLat = 0, 0, 0
		d.winOK, d.winViol = false, false
		return
	}
	svc := d.svc
	lane := s.sh.Lane(d.lane)
	qps := svc.qpsTrace.At(now)
	offered := qps

	// Admission control (class-aware runs only): a shed-eligible
	// service's offered load is capped at AdmitFactor × nominal QPS
	// (span.BurstFactor by default), and the excess is dropped at the
	// door instead of driving the window budget (and the co-located
	// critical services' retunes) into the ground. Critical/standard
	// load is never shed; batch defers but keeps every request. Shed
	// totals accumulate per device and merge at finalize in device order.
	var shedQPS float64
	if s.classAware && svc.info.Class.SheddableLoad() {
		admitCap := s.opts.AdmitFactor * svc.info.BaseQPS * s.opts.LoadFactor
		if admitCap > 0 && qps > admitCap {
			shedQPS = qps - admitCap
			qps = admitCap
			svc.shedReq += shedQPS * w
			svc.shedWins++
			if s.attr != nil {
				s.attr.ObserveShed(svc.info.Class.String(), shedQPS*w)
			}
			if s.obsv != nil {
				s.obsv.sheds.Inc()
				if cc := d.obsv.cls; cc != nil {
					cc.shed.Add(shedQPS * w)
				}
				s.obsv.sink.Emit(obs.Event{
					Time: now, Type: obs.EventLoadShed, Device: d.dev.ID,
					Service: svc.info.Name, Value: shedQPS, Cause: svc.info.Class.String(),
				})
			}
		}
	}

	// Monitor: retune on a large QPS change (§5.3.2 case 2), or
	// periodically probe whether a paused device can resume
	// multiplexing. Triggers update curQPS inline (device-local) and
	// post the configure to the barrier — Configure walks the policy's
	// shared learner state, which only the global phase may touch.
	if !s.opts.DisableRetune && relChange(svc.curQPS, qps) >= s.opts.QPSChangeThreshold {
		svc.curQPS = qps
		lane.Post(now, d.gidx, func(at float64) {
			if !d.down {
				_ = s.configure(at, d, false, "qps-change")
			}
		})
	} else if d.hasPaused() && now-d.lastResumeTry >= resumeRetrySec {
		d.lastResumeTry = now
		svc.curQPS = qps
		lane.Post(now, d.gidx, func(at float64) {
			if !d.down {
				_ = s.configure(at, d, false, "resume-probe")
			}
		})
	}
	// Pause evictions requeue through the scheduler — barrier work. The
	// message revalidates: an earlier message at the same barrier (a
	// resume-probe retune) may have unpaused the task.
	for _, t := range d.training {
		t := t
		if !t.done && t.paused && now-t.pausedAt >= pauseEvictSec {
			lane.Post(now, d.gidx, func(at float64) {
				if !d.down && !t.done && t.paused {
					s.requeue(at, d, t)
				}
			})
		}
	}

	// SLO accounting with the true co-located latency plus noise drawn
	// from this device's own stream.
	coloc := d.activeScratch()
	lat, err := s.opts.Oracle.MeasureLatency(svc.info.Name, svc.batch, svc.delta, coloc, d.winRNG)
	violated := false
	if err == nil {
		budget := svc.info.SLOms * float64(svc.batch) / qps
		svc.totalWin++
		if d.gidx == s.opts.TraceDeviceIdx-1 {
			var swapped float64
			for _, t := range d.training {
				if out, err := d.pool.SwappedOutMB(t.allocID); err == nil {
					swapped += out
				}
			}
			s.res.Trace = append(s.res.Trace, TracePoint{
				Time: now, QPS: qps, Batch: svc.batch, Delta: svc.delta,
				LatencyMs: lat, BudgetMs: budget, Violated: lat > budget,
				SwappedMB: swapped, Paused: d.hasPaused(),
			})
		}
		if s.obsv != nil {
			d.obsv.latency.Observe(lat)
			if cc := d.obsv.cls; cc != nil {
				cc.windows.Inc()
			}
		}
		if lat > budget {
			violated = true
			svc.violWin++
			if s.attr != nil {
				residents := make([]string, len(coloc))
				for ri, ct := range coloc {
					residents[ri] = ct.Name
				}
				s.attr.Observe(span.Sample{
					Time: now, Device: d.dev.ID, Service: svc.info.Name,
					LatencyMs: lat, BudgetMs: budget, QPS: qps,
					BaseQPS:   svc.info.BaseQPS * s.opts.LoadFactor,
					Residents: residents,
					Class:     svc.info.Class.String(),
					ShedQPS:   shedQPS,
				})
			}
			if s.obsv != nil {
				s.obsv.violations.Inc()
				d.obsv.violations.Inc()
				if cc := d.obsv.cls; cc != nil {
					cc.violations.Inc()
				}
				s.obsv.sink.Emit(obs.Event{
					Time: now, Type: obs.EventSLOViolation, Device: d.dev.ID,
					Service: svc.info.Name, Value: lat, Cause: "window-budget",
				})
			}
			// Monitor: "In cases where the Monitor detects that the
			// SLO is at risk of being violated, it triggers adaptive
			// batching or resource scaling accordingly" (§6).
			if !s.opts.DisableRetune {
				svc.curQPS = qps
				lane.Post(now, d.gidx, func(at float64) {
					if !d.down {
						_ = s.configure(at, d, false, "slo-risk")
					}
				})
			}
		}
		svc.latSum += lat
	}
	// Timeline scratch: lane-local writes only; the barrier tick folds
	// them into series in global device order.
	if s.tl != nil {
		d.winQPS, d.winShed = offered, shedQPS
		d.winOK, d.winLat, d.winViol = err == nil, lat, violated
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
		iter, err := s.opts.Oracle.TrueIteration(t.task, share, svc.info.Name, svc.batch, svc.delta)
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
			lane.Post(now, d.gidx, func(float64) { s.complete(t.finishAt, d, t) })
		}
	}

	// Memory reclamation (Fig. 16's reclaim at QPS drop): touch swapped
	// training back in when the device has headroom, one reclaim per
	// window. Pool state is lane-owned, so this runs inline.
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
	busy := (qps / float64(svc.batch)) * (latOrZero(s.opts.Oracle, svc, coloc) / 1000)
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
	d.memFrac = minf(d.pool.DeviceUsedMB(), d.pool.CapacityMB()) / d.pool.CapacityMB()
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
	_ = s.res.SMUtil.Add(now, smSum/float64(len(s.devices)))
	_ = s.res.MemUtil.Add(now, memSum/float64(len(s.devices)))
	if s.tl != nil {
		n := float64(len(s.devices))
		s.tl.window(s, now, smSum/n, memSum/n, memHot)
	}
	if s.obsv != nil {
		s.obsv.windows.Inc()
		s.obsv.smUtil.Set(smSum / float64(len(s.devices)))
		s.obsv.memUtil.Set(memSum / float64(len(s.devices)))
		s.obsv.queueDepth.Set(float64(s.queue.Len()))
	}
	if s.res.Completed == len(s.opts.Arrivals) && s.queue.Len() == 0 {
		s.sh.Stop()
	}
}
