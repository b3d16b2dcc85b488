// Package gpu names the cluster's devices: A100-style GPUs, or MIG
// instances of them, each with an ID and a memory capacity. The
// quantities that change at runtime have their owners elsewhere: the
// inference share Δ and the training split live in the cluster's
// device state, and device and host memory in memmgr.
package gpu

import "fmt"

// A100MemoryMB is the device memory of the paper's testbed GPUs (40 GB).
const A100MemoryMB = 40960

// PCIeBandwidthMBps is the host-device transfer bandwidth used to cost
// memory swaps (16 GB/s effective, PCIe 4.0 x16).
const PCIeBandwidthMBps = 16384

// FleetDevice names the i-th schedulable device (a whole GPU or a MIG
// instance) of a fleet of A100s, each split into migSlices equal MIG
// instances (1 = whole GPUs, valid A100 slice counts are 1–7): its ID,
// gpuNNNN or gpuNNNN/migK, and its memory, 1/migSlices of the GPU's
// (§3: "Mudi is fully compatible with MIG, treating each MIG instance
// as a distinct, smaller GPU").
func FleetDevice(i, migSlices int) (id string, memoryMB float64) {
	phys := i / migSlices
	if migSlices == 1 {
		return fmt.Sprintf("gpu%04d", phys), A100MemoryMB
	}
	return fmt.Sprintf("gpu%04d/mig%d", phys, i%migSlices), A100MemoryMB / float64(migSlices)
}
