package gpu

import (
	"testing"
	"testing/quick"
)

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
			id, mem := FleetDevice(i, n)
			if ids[id] {
				return false
			}
			ids[id] = true
			sum[id[:len("gpu0000")]] += mem
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
