package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mudi/internal/model"
)

// TestPickPermutationInvariance: every policy's Pick must return the
// same job (by ID) regardless of the order the pending slice holds it
// in — the strict-total-order property that keeps scheduling
// deterministic at any worker count. Jobs deliberately collide on
// priority, duration, user, and submit time so the tie-breaks do the
// work.
func TestPickPermutationInvariance(t *testing.T) {
	policies := []Policy{FCFS{}, SJF{}, PriorityPolicy{}, FairShare{}}
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%12) + 1
		jobs := make([]*Job, count)
		for i := range jobs {
			jobs[i] = &Job{
				ID:             i,
				SubmitTime:     float64(rng.Intn(4)), // heavy collisions
				User:           []string{"u1", "u2"}[rng.Intn(2)],
				Priority:       rng.Intn(3),
				EstDurationSec: float64(rng.Intn(3)) * 100,
			}
		}
		usage := map[string]float64{"u1": float64(rng.Intn(2)) * 1000, "u2": 500}
		for _, pol := range policies {
			want := jobs[pol.Pick(jobs, usage)].ID
			for trial := 0; trial < 8; trial++ {
				perm := make([]*Job, count)
				for i, pi := range rng.Perm(count) {
					perm[i] = jobs[pi]
				}
				if got := perm[pol.Pick(perm, usage)].ID; got != want {
					t.Logf("policy %s: pick %d != %d under permutation", pol.Name(), got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPriorityPolicyEqualPriorityTieBreak pins the satellite fix: on
// equal priorities the pick is stable submission order (SubmitTime,
// then ID), never slice position.
func TestPriorityPolicyEqualPriorityTieBreak(t *testing.T) {
	a := &Job{ID: 7, SubmitTime: 3, Priority: 2}
	b := &Job{ID: 2, SubmitTime: 3, Priority: 2}
	c := &Job{ID: 5, SubmitTime: 1, Priority: 2}
	p := PriorityPolicy{}
	for _, pending := range [][]*Job{{a, b, c}, {c, b, a}, {b, c, a}, {b, a, c}} {
		if got := pending[p.Pick(pending, nil)]; got != c {
			t.Fatalf("picked ID %d, want earliest-submitted ID 5", got.ID)
		}
	}
	// Same submit time: unique ID decides.
	for _, pending := range [][]*Job{{a, b}, {b, a}} {
		if got := pending[p.Pick(pending, nil)]; got != b {
			t.Fatalf("picked ID %d, want lowest ID 2", got.ID)
		}
	}
}

func TestClassPriorityPluginOrdering(t *testing.T) {
	p := ClassPriorityPlugin{}
	order := []model.SLOClass{
		model.ClassUnset, model.ClassBackground, model.ClassBatch,
		model.ClassSheddable, model.ClassStandard, model.ClassCritical,
	}
	task := &model.TrainingTask{}
	for i := 1; i < len(order); i++ {
		hi := p.Score(task, &DeviceView{ServiceClass: order[i-1]})
		lo := p.Score(task, &DeviceView{ServiceClass: order[i]})
		if hi <= lo {
			t.Fatalf("score(%v)=%v not > score(%v)=%v", order[i-1], hi, order[i], lo)
		}
	}
}

func TestClassBudgetPluginVeto(t *testing.T) {
	p := ClassBudgetPlugin{}
	task := &model.TrainingTask{}
	residents := func(n int) []model.TrainingTask { return make([]model.TrainingTask, n) }
	// Critical: budget 0, any training count (including 0) vetoes.
	if s := p.Score(task, &DeviceView{ServiceClass: model.ClassCritical}); s >= 0 {
		t.Fatalf("critical device with budget 0 not vetoed (score %v)", s)
	}
	// Standard: one task fits, the second is vetoed.
	if s := p.Score(task, &DeviceView{ServiceClass: model.ClassStandard}); s != 0 {
		t.Fatalf("standard empty device score %v", s)
	}
	if s := p.Score(task, &DeviceView{ServiceClass: model.ClassStandard, ResidentTasks: residents(1)}); s >= 0 {
		t.Fatalf("standard device at budget not vetoed (score %v)", s)
	}
	// Background: the most permissive budget, four tasks.
	if s := p.Score(task, &DeviceView{ServiceClass: model.ClassBackground, ResidentTasks: residents(3)}); s != 0 {
		t.Fatalf("background device under budget score %v", s)
	}
	if s := p.Score(task, &DeviceView{ServiceClass: model.ClassBackground, ResidentTasks: residents(4)}); s >= 0 {
		t.Fatalf("background device at budget not vetoed (score %v)", s)
	}
	// Unset class is unbudgeted here.
	if s := p.Score(task, &DeviceView{ResidentTasks: residents(99)}); s != 0 {
		t.Fatalf("unset class score %v", s)
	}
}

func TestFrameworkScoreMatchesSelect(t *testing.T) {
	f := NewFramework(ClassBudgetPlugin{}, ClassPriorityPlugin{})
	devs := []DeviceView{
		{ID: "g0", ServiceClass: model.ClassCritical},
		{ID: "g1", ServiceClass: model.ClassStandard},
		{ID: "g2", ServiceClass: model.ClassSheddable},
	}
	task := &model.TrainingTask{}
	got, err := f.Select(task, devs)
	if err != nil {
		t.Fatal(err)
	}
	if got != "g2" {
		t.Fatalf("selected %s, want the least-critical g2", got)
	}
	if _, ok := f.Score(task, &devs[0]); ok {
		t.Fatal("critical device should be vetoed by the budget plugin")
	}
	s1, ok1 := f.Score(task, &devs[1])
	s2, ok2 := f.Score(task, &devs[2])
	if !ok1 || !ok2 || s2 <= s1 {
		t.Fatalf("scores g1=%v(%v) g2=%v(%v)", s1, ok1, s2, ok2)
	}
}
