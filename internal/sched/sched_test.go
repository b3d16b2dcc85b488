package sched

import "testing"

func jobs() []*Job {
	return []*Job{
		{ID: 0, SubmitTime: 10, User: "u1", Priority: 1, EstDurationSec: 300},
		{ID: 1, SubmitTime: 5, User: "u2", Priority: 3, EstDurationSec: 100},
		{ID: 2, SubmitTime: 7, User: "u1", Priority: 3, EstDurationSec: 50},
	}
}

func TestFCFSOrder(t *testing.T) {
	q := NewQueue(FCFS{})
	for _, j := range jobs() {
		q.Push(j)
	}
	want := []int{1, 2, 0}
	for _, id := range want {
		if got := q.Pop(); got.ID != id {
			t.Fatalf("got %d, want %d", got.ID, id)
		}
	}
	if q.Pop() != nil {
		t.Fatal("empty queue returned a job")
	}
}

func TestSJFOrder(t *testing.T) {
	q := NewQueue(SJF{})
	for _, j := range jobs() {
		q.Push(j)
	}
	want := []int{2, 1, 0}
	for _, id := range want {
		if got := q.Pop(); got.ID != id {
			t.Fatalf("got %d, want %d", got.ID, id)
		}
	}
}

func TestPriorityOrder(t *testing.T) {
	q := NewQueue(PriorityPolicy{})
	for _, j := range jobs() {
		q.Push(j)
	}
	// Priority 3 first (FCFS among them: job 1 submitted at 5), then 2,
	// then priority 1.
	want := []int{1, 2, 0}
	for _, id := range want {
		if got := q.Pop(); got.ID != id {
			t.Fatalf("got %d, want %d", got.ID, id)
		}
	}
}

func TestFairShareOrder(t *testing.T) {
	q := NewQueue(FairShare{})
	for _, j := range jobs() {
		q.Push(j)
	}
	// u1 already consumed a lot; u2's job goes first despite ties.
	q.RecordUsage("u1", 5000)
	if got := q.Pop(); got.User != "u2" {
		t.Fatalf("fair share picked %s's job", got.User)
	}
	// Now u2 catches up.
	q.RecordUsage("u2", 9000)
	if got := q.Pop(); got.User != "u1" {
		t.Fatalf("fair share picked %s's job after usage flip", got.User)
	}
}

func TestQueueBasics(t *testing.T) {
	q := NewQueue(nil) // defaults to FCFS
	if q.Len() != 0 || q.Peek() != nil {
		t.Fatal("empty queue state wrong")
	}
	j := &Job{ID: 1, SubmitTime: 1}
	q.Push(j)
	if q.Peek() != j || q.Len() != 1 {
		t.Fatal("peek/len wrong")
	}
	got := q.Pop()
	if got != j || q.Len() != 0 {
		t.Fatal("pop wrong")
	}
	q.Push(j) // an evicted job returns through Push
	if q.Len() != 1 {
		t.Fatal("requeue lost the job")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"", "fcfs", "sjf", "priority", "fair"} {
		if _, err := PolicyByName(name); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
	if _, err := PolicyByName("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}
