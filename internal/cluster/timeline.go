package cluster

import (
	"runtime/metrics"
	"time"

	"mudi/internal/model"
	"mudi/internal/timeline"
)

// This file is the cluster's timeline-recording layer (Options.Timeline
// runs only). The discipline mirrors the other observability sinks —
// handles resolve once at construction, every hot-path site guards on
// one nil check, recording never feeds back into simulation state —
// with one deliberate difference: timelines do NOT force the sharded
// engine to a single worker. Lane handlers only write per-device
// scratch fields (deviceState.win*); all Series.Add calls happen in the
// global barrier phase, iterating devices in global order, so the
// recorded series are invariant to lane and worker counts.

// tlSvcSeries caches one catalog service's per-window series handles.
type tlSvcSeries struct {
	qps      *timeline.Series
	admitted *timeline.Series
	shed     *timeline.Series
	p99      *timeline.Series
	viol     *timeline.Series
}

// tlClassSeries caches one SLO class's roll-up handles.
type tlClassSeries struct {
	qps  *timeline.Series
	shed *timeline.Series
	viol *timeline.Series
}

// tlAccum is the per-window per-service scratch: sums over the devices
// hosting the service, accumulated in global device order.
type tlAccum struct {
	qps      float64
	shed     float64
	lat      float64
	measured int
	viol     int
}

// tlClassAccum is the per-window per-class scratch, accumulated from
// the service accumulators in catalog order.
type tlClassAccum struct {
	qps      float64
	shed     float64
	measured int
	viol     int
}

// tlState is the cluster's timeline recording state.
type tlState struct {
	store *timeline.Store

	svc []tlSvcSeries // by catalog index
	acc []tlAccum

	// Class roll-ups (class-aware runs only). classes lists the classes
	// declared by the catalog in criticality order; svcClass maps a
	// catalog index to its class index, -1 for unclassed services.
	classes  []tlClassSeries
	classAcc []tlClassAccum
	svcClass []int

	smUtil      *timeline.Series
	memUtil     *timeline.Series
	down        *timeline.Series
	queueDepth  *timeline.Series
	memPressure *timeline.Series
}

func newTLState(st *timeline.Store, services []model.InferenceService, classAware bool) *tlState {
	t := &tlState{
		store:       st,
		svc:         make([]tlSvcSeries, len(services)),
		acc:         make([]tlAccum, len(services)),
		smUtil:      st.Series(timeline.FleetSMUtil, ""),
		memUtil:     st.Series(timeline.FleetMemUtil, ""),
		down:        st.Series(timeline.FleetDownDevices, ""),
		queueDepth:  st.Series(timeline.FleetQueueDepth, ""),
		memPressure: st.Series(timeline.FleetMemPressure, ""),
	}
	for i, svc := range services {
		t.svc[i] = tlSvcSeries{
			qps:      st.Series(timeline.ServiceQPS, svc.Name),
			admitted: st.Series(timeline.ServiceAdmitted, svc.Name),
			shed:     st.Series(timeline.ServiceShed, svc.Name),
			p99:      st.Series(timeline.ServiceP99, svc.Name),
			viol:     st.Series(timeline.ServiceViolation, svc.Name),
		}
	}
	if classAware {
		t.svcClass = make([]int, len(services))
		classIdx := make(map[model.SLOClass]int)
		for _, c := range model.SLOClasses() {
			declared := false
			for _, svc := range services {
				if svc.Class == c {
					declared = true
					break
				}
			}
			if !declared {
				continue
			}
			classIdx[c] = len(t.classes)
			t.classes = append(t.classes, tlClassSeries{
				qps:  st.Series(timeline.ClassQPS, c.String()),
				shed: st.Series(timeline.ClassShed, c.String()),
				viol: st.Series(timeline.ClassViolation, c.String()),
			})
		}
		t.classAcc = make([]tlClassAccum, len(t.classes))
		for i, svc := range services {
			if ci, ok := classIdx[svc.Class]; ok && svc.Class != model.ClassUnset {
				t.svcClass[i] = ci
			} else {
				t.svcClass[i] = -1
			}
		}
	}
	return t
}

// window flushes one control window into the store: the barrier tick
// calls it exactly once per window from the single-threaded phase,
// after every device's win* scratch fields are settled for the window. Devices are
// folded in global order, services and classes in catalog/criticality
// order, so every float sum has a fixed order for any lane or worker
// count.
func (t *tlState) window(s *Sim, now, smAvg, memAvg float64, memHot int) {
	for i := range t.acc {
		t.acc[i] = tlAccum{}
	}
	down := 0
	for _, d := range s.devices {
		if d.down {
			down++
		}
		a := &t.acc[d.svcIdx]
		a.qps += d.winQPS
		a.shed += d.winShed
		if d.winOK {
			a.measured++
			a.lat += d.winLat
			if d.winViol {
				a.viol++
			}
		}
	}
	w := s.opts.WindowSec
	for i := range t.svc {
		h, a := &t.svc[i], &t.acc[i]
		h.qps.Add(now, a.qps)
		h.admitted.Add(now, a.qps-a.shed)
		h.shed.Add(now, a.shed*w)
		if a.measured > 0 {
			h.p99.Add(now, a.lat/float64(a.measured))
			h.viol.Add(now, float64(a.viol)/float64(a.measured))
		}
	}
	if len(t.classes) > 0 {
		for i := range t.classAcc {
			t.classAcc[i] = tlClassAccum{}
		}
		for i := range t.acc {
			ci := t.svcClass[i]
			if ci < 0 {
				continue
			}
			ca := &t.classAcc[ci]
			ca.qps += t.acc[i].qps
			ca.shed += t.acc[i].shed
			ca.measured += t.acc[i].measured
			ca.viol += t.acc[i].viol
		}
		for i := range t.classes {
			h, ca := &t.classes[i], &t.classAcc[i]
			h.qps.Add(now, ca.qps)
			h.shed.Add(now, ca.shed*w)
			if ca.measured > 0 {
				h.viol.Add(now, float64(ca.viol)/float64(ca.measured))
			}
		}
	}
	t.smUtil.Add(now, smAvg)
	t.memUtil.Add(now, memAvg)
	t.down.Add(now, float64(down))
	t.queueDepth.Add(now, float64(s.queue.Len()))
	t.memPressure.Add(now, float64(memHot))
}

// tlProfiler implements shard.Profiler: it turns every barrier's phase
// timings into engine self-profiling series, plus Go runtime heap/GC
// samples read through runtime/metrics (far cheaper per barrier than a
// full ReadMemStats). Wall-clock values are nondeterministic by nature;
// every kind recorded here is Profile() and excluded from
// timeline.Fingerprint.
type tlProfiler struct {
	window  *timeline.Series
	drain   *timeline.Series
	merge   *timeline.Series
	apply   *timeline.Series
	mail    *timeline.Series
	imb     *timeline.Series
	heap    *timeline.Series
	gc      *timeline.Series
	samples []metrics.Sample
}

func newTLProfiler(st *timeline.Store) *tlProfiler {
	return &tlProfiler{
		window: st.Series(timeline.EngineWindowMs, ""),
		drain:  st.Series(timeline.EngineDrainMs, ""),
		merge:  st.Series(timeline.EngineMergeMs, ""),
		apply:  st.Series(timeline.EngineApplyMs, ""),
		mail:   st.Series(timeline.EngineMail, ""),
		imb:    st.Series(timeline.EngineLaneImbalance, ""),
		heap:   st.Series(timeline.EngineHeapBytes, ""),
		gc:     st.Series(timeline.EngineGCCycles, ""),
		samples: []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/gc/cycles/total:gc-cycles"},
		},
	}
}

// Barrier implements shard.Profiler.
func (p *tlProfiler) Barrier(at float64, drain, merge, apply time.Duration, mail int, laneEvents []int) {
	p.window.Add(at, float64(drain+merge+apply)/float64(time.Millisecond))
	p.drain.Add(at, float64(drain)/float64(time.Millisecond))
	p.merge.Add(at, float64(merge)/float64(time.Millisecond))
	p.apply.Add(at, float64(apply)/float64(time.Millisecond))
	p.mail.Add(at, float64(mail))
	imb := 0
	if len(laneEvents) > 1 {
		lo, hi := laneEvents[0], laneEvents[0]
		for _, n := range laneEvents[1:] {
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		imb = hi - lo
	}
	p.imb.Add(at, float64(imb))
	metrics.Read(p.samples)
	if p.samples[0].Value.Kind() == metrics.KindUint64 {
		p.heap.Add(at, float64(p.samples[0].Value.Uint64()))
	}
	if p.samples[1].Value.Kind() == metrics.KindUint64 {
		p.gc.Add(at, float64(p.samples[1].Value.Uint64()))
	}
}
