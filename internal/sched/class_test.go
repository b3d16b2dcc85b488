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

// TestClassScoreOrdering: less-critical residents score higher, and a
// critical device, whose budget is zero, ranks below all by its veto.
func TestClassScoreOrdering(t *testing.T) {
	order := []model.SLOClass{
		model.ClassUnset, model.ClassBackground, model.ClassBatch,
		model.ClassSheddable, model.ClassStandard,
	}
	for i := 1; i < len(order); i++ {
		hi, okHi := ClassScore(order[i-1], 0)
		lo, okLo := ClassScore(order[i], 0)
		if !okHi || !okLo || hi <= lo {
			t.Fatalf("score(%v)=%v (%v) not > score(%v)=%v (%v)", order[i-1], hi, okHi, order[i], lo, okLo)
		}
	}
	if s, ok := ClassScore(model.ClassCritical, 0); ok {
		t.Fatalf("critical device scored %v, want a veto", s)
	}
}

func TestClassScoreBudget(t *testing.T) {
	// Critical: budget 0, any training count (including 0) vetoes.
	if s, ok := ClassScore(model.ClassCritical, 0); ok {
		t.Fatalf("critical device with budget 0 not vetoed (score %v)", s)
	}
	// Standard: one task fits, the second is vetoed.
	if _, ok := ClassScore(model.ClassStandard, 0); !ok {
		t.Fatal("standard empty device vetoed")
	}
	if s, ok := ClassScore(model.ClassStandard, 1); ok {
		t.Fatalf("standard device at budget not vetoed (score %v)", s)
	}
	// Background: the most permissive budget, four tasks.
	if _, ok := ClassScore(model.ClassBackground, 3); !ok {
		t.Fatal("background device under budget vetoed")
	}
	if s, ok := ClassScore(model.ClassBackground, 4); ok {
		t.Fatalf("background device at budget not vetoed (score %v)", s)
	}
	// Unset class is unbudgeted here.
	if _, ok := ClassScore(model.ClassUnset, 99); !ok {
		t.Fatal("unset class vetoed")
	}
}
