// Package gpu models the cluster's devices: A100-style GPUs (or MIG
// instances of them) with MPS-style fractional SM partitions and
// GPU-memory accounting. It is the bookkeeping substrate under both
// Mudi and the baselines — placement decisions reserve partitions and
// memory here, and the utilization figures of Fig. 10 are computed from
// this state.
package gpu

import (
	"errors"
	"fmt"
	"sort"
)

// A100MemoryMB is the device memory of the paper's testbed GPUs (40 GB).
const A100MemoryMB = 40960

// PCIeBandwidthMBps is the host-device transfer bandwidth used to cost
// memory swaps (16 GB/s effective, PCIe 4.0 x16).
const PCIeBandwidthMBps = 16384

// WorkloadKind distinguishes residents for accounting.
type WorkloadKind int

// Resident workload kinds.
const (
	KindInference WorkloadKind = iota
	KindTraining
)

// String names the kind.
func (k WorkloadKind) String() string {
	if k == KindInference {
		return "inference"
	}
	return "training"
}

// Resident is one workload placed on a device.
type Resident struct {
	ID       string
	Kind     WorkloadKind
	Share    float64 // MPS partition in (0, 1]
	MemoryMB float64 // requested GPU memory
}

// Device is one (whole GPU or MIG-instance) schedulable unit.
type Device struct {
	ID       string
	NodeID   string
	MemoryMB float64

	residents map[string]*Resident
}

// Common device errors.
var (
	ErrShareExhausted = errors.New("gpu: partition shares exhausted")
	ErrDuplicateID    = errors.New("gpu: duplicate resident id")
	ErrNotResident    = errors.New("gpu: no such resident")
)

// NewDevice returns an empty device with the given memory capacity
// (A100MemoryMB if memMB <= 0).
func NewDevice(id, nodeID string, memMB float64) *Device {
	if memMB <= 0 {
		memMB = A100MemoryMB
	}
	return &Device{ID: id, NodeID: nodeID, MemoryMB: memMB, residents: make(map[string]*Resident)}
}

// FleetDevice builds the i-th schedulable device of a fleet of A100s,
// each split into migSlices equal MIG instances (1 = whole GPUs, valid
// A100 slice counts are 1–7): ID gpuNNNN or gpuNNNN/migK, four physical
// GPUs per node, and 1/migSlices of the GPU's memory (§3: "Mudi is fully
// compatible with MIG, treating each MIG instance as a distinct,
// smaller GPU").
func FleetDevice(i, migSlices int) *Device {
	phys := i / migSlices
	node := fmt.Sprintf("node%d", i/(4*migSlices))
	if migSlices == 1 {
		return NewDevice(fmt.Sprintf("gpu%04d", phys), node, A100MemoryMB)
	}
	return NewDevice(fmt.Sprintf("gpu%04d/mig%d", phys, i%migSlices), node, A100MemoryMB/float64(migSlices))
}

// Place reserves a partition and memory for a new resident. Memory may
// exceed the free physical memory — the Memory Manager handles
// oversubscription by swapping (§5.6) — but the MPS share pool is hard.
func (d *Device) Place(r Resident) error {
	if r.ID == "" {
		return errors.New("gpu: empty resident id")
	}
	if r.Share <= 0 || r.Share > 1 {
		return fmt.Errorf("gpu: share %v outside (0,1]", r.Share)
	}
	if _, ok := d.residents[r.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateID, r.ID)
	}
	if d.SharesUsed()+r.Share > 1+1e-9 {
		return fmt.Errorf("%w: used %.2f, requested %.2f", ErrShareExhausted, d.SharesUsed(), r.Share)
	}
	cp := r
	d.residents[r.ID] = &cp
	return nil
}

// Remove evicts a resident.
func (d *Device) Remove(id string) error {
	if _, ok := d.residents[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNotResident, id)
	}
	delete(d.residents, id)
	return nil
}

// Resize updates a resident's partition share, enforcing the pool.
func (d *Device) Resize(id string, share float64) error {
	r, ok := d.residents[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotResident, id)
	}
	if share <= 0 || share > 1 {
		return fmt.Errorf("gpu: share %v outside (0,1]", share)
	}
	if d.SharesUsed()-r.Share+share > 1+1e-9 {
		return fmt.Errorf("%w: cannot grow %s to %.2f", ErrShareExhausted, id, share)
	}
	r.Share = share
	return nil
}

// SetMemory updates a resident's memory demand.
func (d *Device) SetMemory(id string, memMB float64) error {
	r, ok := d.residents[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotResident, id)
	}
	if memMB < 0 {
		return fmt.Errorf("gpu: negative memory %v", memMB)
	}
	r.MemoryMB = memMB
	return nil
}

// Resident returns a copy of a resident's record.
func (d *Device) Resident(id string) (Resident, bool) {
	r, ok := d.residents[id]
	if !ok {
		return Resident{}, false
	}
	return *r, true
}

// Residents returns copies of all residents, ordered by ID for
// deterministic iteration.
func (d *Device) Residents() []Resident {
	out := make([]Resident, 0, len(d.residents))
	for _, r := range d.residents {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ResidentsOfKind returns copies of residents of one kind, by ID order.
func (d *Device) ResidentsOfKind(kind WorkloadKind) []Resident {
	var out []Resident
	for _, r := range d.Residents() {
		if r.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}

// SharesUsed returns the sum of partition shares on the device.
func (d *Device) SharesUsed() float64 {
	var sum float64
	for _, r := range d.residents {
		sum += r.Share
	}
	return sum
}

// ShareFree returns the unreserved partition share.
func (d *Device) ShareFree() float64 {
	f := 1 - d.SharesUsed()
	if f < 0 {
		return 0
	}
	return f
}

// MemoryDemandMB returns total requested memory (may exceed capacity;
// the excess is what the Memory Manager must keep swapped out).
func (d *Device) MemoryDemandMB() float64 {
	var sum float64
	for _, r := range d.residents {
		sum += r.MemoryMB
	}
	return sum
}

// MemoryPressureMB returns demand beyond physical capacity (≥ 0).
func (d *Device) MemoryPressureMB() float64 {
	p := d.MemoryDemandMB() - d.MemoryMB
	if p < 0 {
		return 0
	}
	return p
}

// CountKind returns the number of residents of a kind.
func (d *Device) CountKind(kind WorkloadKind) int {
	n := 0
	for _, r := range d.residents {
		if r.Kind == kind {
			n++
		}
	}
	return n
}
