// Package memmgr implements Mudi's GPU memory management (§5.6): a
// unified memory pool per device in which inference allocations are
// pinned on-device while training allocations can be transparently
// swapped to the host when the device would otherwise run out of
// memory — the mechanism behind Tab. 4 and the Fig. 16 case study.
//
// The real system interposes on cuMemAlloc and moves pages with CUDA
// unified memory; here the pool tracks residency in MB and costs each
// movement at PCIe bandwidth, reporting swap events to the simulator.
package memmgr

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"mudi/internal/gpu"
)

// Priority orders evictions: inference allocations are pinned on the
// device (§5.6 — "Mudi prioritizes inference memory pointer address on
// the device"), training allocations are swappable.
type Priority int

// Allocation priorities.
const (
	PriorityInference Priority = iota // pinned on device
	PriorityTraining                  // swappable to host
)

// SwapEvent records one device↔host migration burst. Unified memory
// moves data in bounded bursts (MigrationChunkMB) rather than one bulk
// copy, so a large eviction produces several events.
type SwapEvent struct {
	Time       float64 // simulation time (s)
	Alloc      string  // allocation id
	MB         float64 // bytes moved, in MB
	ToHost     bool    // direction
	TransferMs float64 // time the movement took at PCIe bandwidth
}

// MigrationChunkMB is the maximum size of one migration burst (the
// driver migrates unified memory in bounded batches; 384 MB at 16 GB/s
// is ~23 ms per burst, matching the paper's observed 23.31 ms average
// transfer for YOLOv5).
const MigrationChunkMB = 384.0

type allocation struct {
	id       string
	prio     Priority
	totalMB  float64
	deviceMB float64 // portion currently resident on device
}

// Pool is the per-device unified memory pool. It is not safe for
// concurrent use: one device (in the simulator, the lane that owns it)
// drives it at a time.
type Pool struct {
	capacityMB float64
	// allocs holds the live allocations in allocation order. Every sum
	// and scan walks it, so float sums of three or more allocations add
	// in one fixed order. A pool holds a handful of allocations (one
	// inference instance and its training residents), so an id lookup
	// scans it too.
	allocs []*allocation
	events []SwapEvent

	// Swap accounting for Tab. 4's "fraction of time swapping occurs",
	// measured from time 0.
	swappingSince float64
	swappingNow   bool
	swapBusy      float64 // accumulated seconds in a swapped state

	// xferScale, when non-nil, multiplies transfer times (fault
	// injection models degraded PCIe bandwidth this way).
	xferScale func(now float64) float64
}

// SetTransferScale installs a transfer-time multiplier sampled at each
// movement's simulation time — the hook fault injection uses to model
// degraded PCIe bandwidth. A nil function restores full bandwidth.
func (p *Pool) SetTransferScale(scale func(now float64) float64) {
	p.xferScale = scale
}

// transferMs costs one movement at (possibly degraded) PCIe bandwidth.
func (p *Pool) transferMs(now, mb float64) float64 {
	ms := TransferTimeMs(mb)
	if p.xferScale != nil {
		ms *= p.xferScale(now)
	}
	return ms
}

// Common pool errors.
var (
	ErrUnknownAlloc = errors.New("memmgr: unknown allocation")
	ErrOverCapacity = errors.New("memmgr: pinned demand exceeds device capacity")
)

// NewPool returns a pool with the given capacity (A100 memory if ≤ 0).
func NewPool(capacityMB float64) *Pool {
	if capacityMB <= 0 {
		capacityMB = gpu.A100MemoryMB
	}
	return &Pool{capacityMB: capacityMB}
}

// lookup finds the live allocation with the given id.
func (p *Pool) lookup(id string) (*allocation, bool) {
	for _, a := range p.allocs {
		if a.id == id {
			return a, true
		}
	}
	return nil, false
}

// CapacityMB returns the device capacity.
func (p *Pool) CapacityMB() float64 { return p.capacityMB }

// DeviceUsedMB returns memory currently resident on the device.
func (p *Pool) DeviceUsedMB() float64 {
	var sum float64
	for _, a := range p.allocs {
		sum += a.deviceMB
	}
	return sum
}

// HostUsedMB returns memory currently swapped out to the host.
func (p *Pool) HostUsedMB() float64 {
	var sum float64
	for _, a := range p.allocs {
		sum += a.totalMB - a.deviceMB
	}
	return sum
}

// SwappedOutMB returns the swapped-out portion of one allocation.
func (p *Pool) SwappedOutMB(id string) (float64, error) {
	a, ok := p.lookup(id)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownAlloc, id)
	}
	return a.totalMB - a.deviceMB, nil
}

// Alloc registers an allocation and makes it device-resident, swapping
// training allocations out (oldest-id first, deterministically) if the
// device is full. Pinned (inference) demand beyond capacity returns
// ErrOverCapacity. now is the simulation time used for event stamps.
func (p *Pool) Alloc(now float64, id string, prio Priority, mb float64) error {
	if id == "" {
		return errors.New("memmgr: empty allocation id")
	}
	if mb < 0 {
		return fmt.Errorf("memmgr: negative size %v", mb)
	}
	if _, ok := p.lookup(id); ok {
		return fmt.Errorf("memmgr: duplicate allocation %s", id)
	}
	a := &allocation{id: id, prio: prio, totalMB: mb, deviceMB: 0}
	p.allocs = append(p.allocs, a)
	// First touch: the bytes materialize on the device, they are not
	// migrated from the host — no swap traffic is recorded.
	if err := p.bringIn(now, a, mb, false); err != nil {
		p.remove(a)
		return err
	}
	return nil
}

// Resize grows or shrinks an allocation; growth may trigger swaps.
func (p *Pool) Resize(now float64, id string, mb float64) error {
	a, ok := p.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAlloc, id)
	}
	if mb < 0 {
		return fmt.Errorf("memmgr: negative size %v", mb)
	}
	if mb >= a.totalMB {
		grow := mb - a.totalMB
		old := a.totalMB
		a.totalMB = mb
		// Grown bytes are first-touch (never host-resident), so no swap
		// traffic is recorded for them. bringIn checks evictable
		// capacity before evicting anything, so a failed pinned grow
		// performs no evictions and this rollback fully restores the
		// pool.
		if err := p.bringIn(now, a, grow, false); err != nil {
			a.totalMB = old
			if a.deviceMB > a.totalMB {
				a.deviceMB = a.totalMB
			}
			return err
		}
		return nil
	}
	// Shrink: release device residency first, then host.
	a.totalMB = mb
	if a.deviceMB > mb {
		a.deviceMB = mb
	}
	p.updateSwapClock(now)
	return nil
}

// Free releases an allocation entirely.
func (p *Pool) Free(now float64, id string) error {
	a, ok := p.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAlloc, id)
	}
	p.remove(a)
	p.updateSwapClock(now)
	return nil
}

// remove drops a from the pool, keeping the others in allocation order.
func (p *Pool) remove(a *allocation) {
	p.allocs = slices.DeleteFunc(p.allocs, func(b *allocation) bool { return b == a })
}

// Touch makes an allocation's swapped-out portion resident again (a
// training task resuming compute on swapped tensors), swapping other
// training allocations if needed. It returns the transfer time in ms.
func (p *Pool) Touch(now float64, id string) (transferMs float64, err error) {
	a, ok := p.lookup(id)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownAlloc, id)
	}
	missing := a.totalMB - a.deviceMB
	if missing <= 0 {
		return 0, nil
	}
	if err := p.bringIn(now, a, missing, true); err != nil {
		return 0, err
	}
	return p.transferMs(now, missing), nil
}

// evictableMB sums the device-resident swappable memory outside
// `except` — the most an eviction pass can free.
func (p *Pool) evictableMB(except string) float64 {
	var sum float64
	for _, a := range p.allocs {
		if a.prio == PriorityTraining && a.id != except {
			sum += a.deviceMB
		}
	}
	return sum
}

// bringIn makes `mb` more of allocation a device-resident, evicting
// swappable allocations as needed. fromHost marks bytes migrating back
// from host residency (a Touch); first-touch bytes from Alloc/Resize
// were never on the host and record no swap traffic. A pinned request
// that cannot be satisfied fails before any eviction happens.
func (p *Pool) bringIn(now float64, a *allocation, mb float64, fromHost bool) error {
	need := p.DeviceUsedMB() + mb - p.capacityMB
	if need > 0 {
		if a.prio == PriorityInference {
			if avail := p.evictableMB(a.id); avail+1e-9 < need {
				return fmt.Errorf("%w: need %.0f MB more", ErrOverCapacity, need-avail)
			}
		}
		freed, err := p.evict(now, need, a.id)
		if err != nil {
			return err
		}
		if freed+1e-9 < need {
			// A training allocation that cannot fully fit stays
			// partially host-resident (pinned shortfalls returned above,
			// before evicting).
			mb -= need - freed
			if mb < 0 {
				mb = 0
			}
		}
	}
	a.deviceMB += mb
	if a.deviceMB > a.totalMB {
		a.deviceMB = a.totalMB
	}
	if fromHost && mb > 0 {
		p.recordBursts(now, a.id, mb, false)
	}
	p.updateSwapClock(now)
	return nil
}

// evict swaps training allocations (never `except`) to the host until
// `need` MB are free, returning how much was actually freed.
func (p *Pool) evict(now float64, need float64, except string) (float64, error) {
	// Deterministic order: largest device residency first, ties by id.
	var victims []*allocation
	for _, a := range p.allocs {
		if a.prio == PriorityTraining && a.id != except && a.deviceMB > 0 {
			victims = append(victims, a)
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].deviceMB != victims[j].deviceMB {
			return victims[i].deviceMB > victims[j].deviceMB
		}
		return victims[i].id < victims[j].id
	})
	var freed float64
	for _, v := range victims {
		if freed >= need {
			break
		}
		take := need - freed
		if take > v.deviceMB {
			take = v.deviceMB
		}
		v.deviceMB -= take
		freed += take
		p.recordBursts(now, v.id, take, true)
	}
	p.updateSwapClock(now)
	return freed, nil
}

// recordBursts splits one logical movement into migration bursts.
func (p *Pool) recordBursts(now float64, alloc string, mb float64, toHost bool) {
	for mb > 0 {
		chunk := mb
		if chunk > MigrationChunkMB {
			chunk = MigrationChunkMB
		}
		xfer := p.transferMs(now, chunk)
		p.events = append(p.events, SwapEvent{
			Time: now, Alloc: alloc, MB: chunk, ToHost: toHost, TransferMs: xfer,
		})
		mb -= chunk
	}
}

// updateSwapClock maintains the swapped-state stopwatch for Tab. 4.
func (p *Pool) updateSwapClock(now float64) {
	swapped := p.HostUsedMB() > 1e-9
	if swapped && !p.swappingNow {
		p.swappingNow = true
		p.swappingSince = now
	} else if !swapped && p.swappingNow {
		p.swappingNow = false
		p.swapBusy += now - p.swappingSince
	}
}

// Events returns all swap events so far, in recording order (shared
// slice; callers must not modify). The log is append-only, so a caller
// that remembers how many events it has seen can pick up exactly the
// new ones — the pool itself emits no telemetry.
func (p *Pool) Events() []SwapEvent { return p.events }

// SwapFraction returns the fraction of [0, now] during which some
// memory was swapped out — the Tab. 4 metric.
func (p *Pool) SwapFraction(now float64) float64 {
	if now <= 0 {
		return 0
	}
	busy := p.swapBusy
	if p.swappingNow {
		busy += now - p.swappingSince
	}
	return busy / now
}

// TransferTimeMs costs a movement at full PCIe bandwidth — the model
// behind Fig. 16's 23.31 ms average transfer.
func TransferTimeMs(mb float64) float64 {
	return mb / gpu.PCIeBandwidthMBps * 1000
}
