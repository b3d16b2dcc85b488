package gpu

import (
	"fmt"
	"testing"
	"testing/quick"

	"mudi/internal/xrand"
)

// TestShareInvariantProperty drives random place/resize/remove ops and
// checks the MPS pool never overcommits and the free share stays the
// complement of the used shares.
func TestShareInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		d := NewDevice("g", "n", 0)
		live := map[string]bool{}
		nextID := 0
		for step := 0; step < 80; step++ {
			switch rng.Intn(3) {
			case 0:
				id := fmt.Sprintf("r%d", nextID)
				nextID++
				share := rng.Range(0.01, 0.6)
				err := d.Place(Resident{ID: id, Kind: KindTraining, Share: share, MemoryMB: rng.Range(0, 1e4)})
				if err == nil {
					live[id] = true
				}
			case 1:
				for id := range live {
					if err := d.Resize(id, rng.Range(0.01, 0.9)); err == nil {
						// ok either way; rejection means overcommit guard
					}
					break
				}
			case 2:
				for id := range live {
					if err := d.Remove(id); err != nil {
						return false
					}
					delete(live, id)
					break
				}
			}
			used := d.SharesUsed()
			if used > 1+1e-9 || used < -1e-9 {
				return false
			}
			if diff := d.ShareFree() - (1 - used); diff > 1e-9 || diff < -1e-9 {
				if used <= 1 {
					return false
				}
			}
			if len(d.Residents()) != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMIGSplitConservesMemoryProperty: the MIG instances of each
// physical GPU in a fleet partition its memory exactly, and every
// instance has a fleet-unique ID.
func TestMIGSplitConservesMemoryProperty(t *testing.T) {
	f := func(nRaw, physRaw uint8) bool {
		n := 1 + int(nRaw%7)
		phys := 1 + int(physRaw%16)
		sum := map[string]float64{}
		ids := map[string]bool{}
		for i := 0; i < phys*n; i++ {
			d := FleetDevice(i, n)
			if ids[d.ID] {
				return false
			}
			ids[d.ID] = true
			sum[d.ID[:len("gpu0000")]] += d.MemoryMB
		}
		if len(sum) != phys {
			return false
		}
		for _, mem := range sum {
			if mem < A100MemoryMB-1e-6 || mem > A100MemoryMB+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
