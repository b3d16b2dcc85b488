package cluster

import (
	"runtime/metrics"
	"time"

	"mudi/internal/model"
	"mudi/internal/span"
	"mudi/internal/timeline"
)

// This file is the cluster's timeline-recording layer (Options.Timeline
// runs only). It follows the engine's one observation path (see
// sharded.go): handles resolve once at construction, device windows only
// write each device's window record (deviceState.rec), and every
// Series.Add happens in the single-threaded barrier tick, iterating
// devices in global order — so the recorded series are invariant to
// lane and worker counts, and recording never feeds back into
// simulation state.

// tlSvcSeries caches one catalog service's per-window series handles.
type tlSvcSeries struct {
	qps      *timeline.Series
	admitted *timeline.Series
	shed     *timeline.Series
	p99      *timeline.Series
	viol     *timeline.Series
	batch    *timeline.Series
	share    *timeline.Series
	swapped  *timeline.Series
	paused   *timeline.Series
}

// tlClassSeries caches one SLO class's roll-up handles.
type tlClassSeries struct {
	qps  *timeline.Series
	shed *timeline.Series
	viol *timeline.Series
}

// tlAccum is the per-window scratch of one service (sums over the
// devices hosting it, in global device order) or one class (sums over
// its services in catalog order; only qps, shed, measured and viol
// roll up to classes).
type tlAccum struct {
	qps      float64
	shed     float64
	lat      float64
	batch    float64
	share    float64
	swapped  float64
	measured int
	viol     int
	paused   int
}

// tlState is the cluster's timeline recording state.
type tlState struct {
	store *timeline.Store
	// batch collects one window's samples for a single Store.AddAll.
	batch []timeline.Entry

	svc []tlSvcSeries // by catalog index
	acc []tlAccum

	// Class roll-ups (class-aware runs only). classes lists the classes
	// declared by the catalog in criticality order; svcClass maps a
	// catalog index to its class index, -1 for unclassed services.
	classes  []tlClassSeries
	classAcc []tlAccum
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
			batch:    st.Series(timeline.ServiceBatch, svc.Name),
			share:    st.Series(timeline.ServiceGPUShare, svc.Name),
			swapped:  st.Series(timeline.ServiceSwappedMB, svc.Name),
			paused:   st.Series(timeline.ServicePaused, svc.Name),
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
		t.classAcc = make([]tlAccum, len(t.classes))
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
// after every device's window record is settled. Devices are folded in
// global order, services and classes in catalog/criticality order, so
// every float sum has a fixed order for any lane or worker count.
func (t *tlState) window(s *Sim, now, smAvg, memAvg float64, memHot int) {
	for i := range t.acc {
		t.acc[i] = tlAccum{}
	}
	down := 0
	for _, d := range s.devices {
		if d.down {
			down++
		}
		r, a := &d.rec, &t.acc[d.svcIdx]
		a.qps += r.offered
		a.shed += r.shed
		if r.ok {
			a.measured++
			a.lat += r.lat
			a.batch += float64(r.batch)
			a.share += r.delta
			a.swapped += r.swapped
			if r.viol {
				a.viol++
			}
			if r.paused {
				a.paused++
			}
		}
	}
	w := span.WindowSec
	for i := range t.svc {
		h, a := &t.svc[i], &t.acc[i]
		t.put(h.qps, a.qps)
		t.put(h.admitted, a.qps-a.shed)
		t.put(h.shed, a.shed*w)
		if a.measured > 0 {
			n := float64(a.measured)
			t.put(h.p99, a.lat/n)
			t.put(h.viol, float64(a.viol)/n)
			t.put(h.batch, a.batch/n)
			t.put(h.share, a.share/n)
			t.put(h.swapped, a.swapped)
			t.put(h.paused, float64(a.paused))
		}
	}
	if len(t.classes) > 0 {
		for i := range t.classAcc {
			t.classAcc[i] = tlAccum{}
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
			t.put(h.qps, ca.qps)
			t.put(h.shed, ca.shed*w)
			if ca.measured > 0 {
				t.put(h.viol, float64(ca.viol)/float64(ca.measured))
			}
		}
	}
	t.put(t.smUtil, smAvg)
	t.put(t.memUtil, memAvg)
	t.put(t.down, float64(down))
	t.put(t.queueDepth, float64(s.queue.Len()))
	t.put(t.memPressure, float64(memHot))
	t.store.AddAll(now, t.batch)
	t.batch = t.batch[:0]
}

// put queues one sample for the window's AddAll.
func (t *tlState) put(sr *timeline.Series, v float64) {
	t.batch = append(t.batch, timeline.Entry{Series: sr, Value: v})
}

// tlProfiler implements shard.Profiler: it turns every barrier's phase
// timings into engine self-profiling series, plus Go runtime heap/GC
// samples read through runtime/metrics (far cheaper per barrier than a
// full ReadMemStats). Wall-clock values are nondeterministic by nature;
// every kind recorded here is Profile() and excluded from
// timeline.Fingerprint.
type tlProfiler struct {
	store   *timeline.Store
	window  *timeline.Series
	drain   *timeline.Series
	merge   *timeline.Series
	apply   *timeline.Series
	mail    *timeline.Series
	imb     *timeline.Series
	heap    *timeline.Series
	gc      *timeline.Series
	samples []metrics.Sample
	// batch collects one barrier's samples for a single Store.AddAll.
	batch []timeline.Entry
}

func newTLProfiler(st *timeline.Store) *tlProfiler {
	return &tlProfiler{
		store:  st,
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
		batch: make([]timeline.Entry, 0, 8),
	}
}

// Barrier implements shard.Profiler.
func (p *tlProfiler) Barrier(at float64, drain, merge, apply time.Duration, mail int, laneEvents []int) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
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
	p.batch = append(p.batch,
		timeline.Entry{Series: p.window, Value: ms(drain + merge + apply)},
		timeline.Entry{Series: p.drain, Value: ms(drain)},
		timeline.Entry{Series: p.merge, Value: ms(merge)},
		timeline.Entry{Series: p.apply, Value: ms(apply)},
		timeline.Entry{Series: p.mail, Value: float64(mail)},
		timeline.Entry{Series: p.imb, Value: float64(imb)})
	metrics.Read(p.samples)
	if p.samples[0].Value.Kind() == metrics.KindUint64 {
		p.batch = append(p.batch, timeline.Entry{Series: p.heap, Value: float64(p.samples[0].Value.Uint64())})
	}
	if p.samples[1].Value.Kind() == metrics.KindUint64 {
		p.batch = append(p.batch, timeline.Entry{Series: p.gc, Value: float64(p.samples[1].Value.Uint64())})
	}
	p.store.AddAll(at, p.batch)
	p.batch = p.batch[:0]
}
