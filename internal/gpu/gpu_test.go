package gpu

import (
	"errors"
	"testing"
)

func TestPlaceAndAccounting(t *testing.T) {
	d := NewDevice("gpu0", "node0", 0)
	if d.MemoryMB != A100MemoryMB {
		t.Fatalf("default memory %v", d.MemoryMB)
	}
	if err := d.Place(Resident{ID: "inf", Kind: KindInference, Share: 0.6, MemoryMB: 10000}); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(Resident{ID: "tr", Kind: KindTraining, Share: 0.4, MemoryMB: 20000}); err != nil {
		t.Fatal(err)
	}
	if got := d.SharesUsed(); got != 1.0 {
		t.Fatalf("shares used %v", got)
	}
	if got := d.ShareFree(); got != 0 {
		t.Fatalf("share free %v", got)
	}
	if got := d.MemoryDemandMB(); got != 30000 {
		t.Fatalf("memory demand %v", got)
	}
	if got := d.MemoryPressureMB(); got != 0 {
		t.Fatalf("pressure %v, want 0", got)
	}
	if d.CountKind(KindInference) != 1 || d.CountKind(KindTraining) != 1 {
		t.Fatal("kind counts wrong")
	}
}

func TestPlaceRejections(t *testing.T) {
	d := NewDevice("gpu0", "node0", 0)
	if err := d.Place(Resident{ID: "", Share: 0.5}); err == nil {
		t.Fatal("empty id accepted")
	}
	if err := d.Place(Resident{ID: "a", Share: 0}); err == nil {
		t.Fatal("zero share accepted")
	}
	if err := d.Place(Resident{ID: "a", Share: 1.5}); err == nil {
		t.Fatal("share >1 accepted")
	}
	if err := d.Place(Resident{ID: "a", Share: 0.7}); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(Resident{ID: "a", Share: 0.1}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate err = %v", err)
	}
	if err := d.Place(Resident{ID: "b", Share: 0.5}); !errors.Is(err, ErrShareExhausted) {
		t.Fatalf("overcommit err = %v", err)
	}
}

func TestMemoryOversubscriptionAllowed(t *testing.T) {
	d := NewDevice("gpu0", "node0", 1000)
	if err := d.Place(Resident{ID: "big", Share: 0.5, MemoryMB: 3000}); err != nil {
		t.Fatal(err)
	}
	if got := d.MemoryPressureMB(); got != 2000 {
		t.Fatalf("pressure %v, want 2000", got)
	}
}

func TestRemoveResizeSetMemory(t *testing.T) {
	d := NewDevice("gpu0", "node0", 0)
	if err := d.Place(Resident{ID: "a", Share: 0.5, MemoryMB: 100}); err != nil {
		t.Fatal(err)
	}
	if err := d.Resize("a", 0.9); err != nil {
		t.Fatal(err)
	}
	if r, _ := d.Resident("a"); r.Share != 0.9 {
		t.Fatalf("share after resize %v", r.Share)
	}
	if err := d.Resize("a", 1.2); err == nil {
		t.Fatal("resize beyond 1 accepted")
	}
	if err := d.SetMemory("a", 555); err != nil {
		t.Fatal(err)
	}
	if r, _ := d.Resident("a"); r.MemoryMB != 555 {
		t.Fatalf("memory after set %v", r.MemoryMB)
	}
	if err := d.SetMemory("a", -1); err == nil {
		t.Fatal("negative memory accepted")
	}
	if err := d.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("a"); !errors.Is(err, ErrNotResident) {
		t.Fatalf("double remove err = %v", err)
	}
	if err := d.Resize("a", 0.5); !errors.Is(err, ErrNotResident) {
		t.Fatal("resize of absent resident accepted")
	}
}

func TestResizeWithNeighbourPool(t *testing.T) {
	d := NewDevice("gpu0", "node0", 0)
	d.Place(Resident{ID: "a", Share: 0.5})
	d.Place(Resident{ID: "b", Share: 0.4})
	// Growing a to 0.7 would need 1.1 total.
	if err := d.Resize("a", 0.7); !errors.Is(err, ErrShareExhausted) {
		t.Fatalf("err = %v", err)
	}
	if err := d.Resize("a", 0.6); err != nil {
		t.Fatal(err)
	}
}

func TestResidentsDeterministicOrder(t *testing.T) {
	d := NewDevice("gpu0", "node0", 0)
	d.Place(Resident{ID: "z", Share: 0.1})
	d.Place(Resident{ID: "a", Share: 0.1})
	d.Place(Resident{ID: "m", Share: 0.1})
	rs := d.Residents()
	if rs[0].ID != "a" || rs[1].ID != "m" || rs[2].ID != "z" {
		t.Fatalf("order %v", rs)
	}
}

func TestResidentsOfKind(t *testing.T) {
	d := NewDevice("gpu0", "node0", 0)
	d.Place(Resident{ID: "i1", Kind: KindInference, Share: 0.2})
	d.Place(Resident{ID: "t1", Kind: KindTraining, Share: 0.2})
	d.Place(Resident{ID: "t2", Kind: KindTraining, Share: 0.2})
	if got := d.ResidentsOfKind(KindTraining); len(got) != 2 {
		t.Fatalf("training residents %d", len(got))
	}
	if got := d.ResidentsOfKind(KindInference); len(got) != 1 || got[0].ID != "i1" {
		t.Fatalf("inference residents %v", got)
	}
}

func TestResidentCopySemantics(t *testing.T) {
	d := NewDevice("gpu0", "node0", 0)
	d.Place(Resident{ID: "a", Share: 0.5, MemoryMB: 10})
	r, ok := d.Resident("a")
	if !ok {
		t.Fatal("resident missing")
	}
	r.Share = 0.9
	if got, _ := d.Resident("a"); got.Share != 0.5 {
		t.Fatal("Resident returned shared state")
	}
}

func TestWorkloadKindString(t *testing.T) {
	if KindInference.String() != "inference" || KindTraining.String() != "training" {
		t.Fatal("kind strings wrong")
	}
}
