package gpu

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Memory is the device global-memory model: a bump allocator over a 32-bit
// address space with per-allocation bounds tracking. Accesses outside any
// live allocation raise TrapIllegalAddress; accesses not aligned to their
// width raise TrapMisaligned — the two anomalies the paper calls out as
// non-fatal GPU errors that produce "potential DUE" outcomes.
//
// Backing storage is paged at memPageSize granularity with copy-on-write
// sharing: Device.Snapshot marks every materialized page shared, and the N
// runs later restored from one checkpoint alias the clean pages until the
// first write. Pages never written at all stay nil and read as zeros, so a
// large untouched buffer costs only its page table.
type Memory struct {
	allocs []alloc // sorted by base
	next   uint32

	// lastHit memoizes the indexes of the two allocations most recently
	// resolved by a missed find (low 16 bits: most recent; high 16: the one
	// before). Kernels overwhelmingly ping between one or two buffers — an
	// input and an output — so nearly every find resolves on one of the two
	// validation compares without touching the search, and steady-state hits
	// never store. The value is advisory: every read is re-validated against
	// the current alloc table before use.
	lastHit uint32
}

// memPageSize is the copy-on-write page granularity. It is a multiple of
// allocAlign and of the widest single access (8 bytes), so a width-aligned
// access never straddles a page boundary.
const (
	memPageShift = 12
	memPageSize  = 1 << memPageShift
)

// zeroPage backs reads of pages that were never written.
var zeroPage [memPageSize]byte

// pagePool recycles device-memory pages across experiments. Pages are zeroed
// before being returned to the pool, so a pooled page is indistinguishable
// from a freshly made one.
var pagePool = sync.Pool{New: func() any {
	p := make([]byte, memPageSize)
	return &p
}}

func getPage() []byte { return *pagePool.Get().(*[]byte) }

func putPage(p []byte) {
	clear(p)
	pagePool.Put(&p)
}

type alloc struct {
	base uint32
	size uint32
	// pages backs the allocation at memPageSize granularity, indexed by
	// (addr-base)/memPageSize. A nil page reads as zeros and is
	// materialized on first write. shared[i] marks a page aliased by at
	// least one snapshot: it is copied before the next write so the
	// snapshot's view never changes.
	pages  [][]byte
	shared []bool
}

// readPage returns the bytes backing page pg for reading; never-written
// pages read as zeros.
func (a *alloc) readPage(pg uint32) []byte {
	if p := a.pages[pg]; p != nil {
		return p
	}
	return zeroPage[:]
}

// writePage returns the bytes backing page pg for writing, materializing
// never-written pages and copying snapshot-shared ones (the copy-on-write
// fault path).
func (a *alloc) writePage(pg uint32) []byte {
	p := a.pages[pg]
	switch {
	case p == nil:
		p = getPage()
		a.pages[pg] = p
	case a.shared[pg]:
		c := getPage()
		copy(c, p)
		a.pages[pg] = c
		a.shared[pg] = false
		p = c
	}
	return p
}

// allocBase leaves the low addresses unmapped so that computed-to-zero
// pointers fault, like a CUDA null dereference.
const allocBase = 0x10000

// allocAlign keeps every allocation 256-byte aligned, matching cudaMalloc.
const allocAlign = 256

// NewMemory returns an empty device memory.
func NewMemory() *Memory {
	return &Memory{next: allocBase}
}

// Alloc reserves size bytes of device memory and returns its base address.
func (m *Memory) Alloc(size int) (uint32, error) {
	if size <= 0 {
		return 0, fmt.Errorf("gpu: invalid allocation size %d", size)
	}
	sz := (uint32(size) + allocAlign - 1) &^ (allocAlign - 1)
	if m.next > ^uint32(0)-sz {
		return 0, fmt.Errorf("gpu: out of device memory")
	}
	base := m.next
	m.next += sz
	n := (uint32(size) + memPageSize - 1) / memPageSize
	m.allocs = append(m.allocs, alloc{
		base:   base,
		size:   uint32(size),
		pages:  make([][]byte, n),
		shared: make([]bool, n),
	})
	return base, nil
}

// Free releases the allocation starting at base.
func (m *Memory) Free(base uint32) error {
	for i, a := range m.allocs {
		if a.base == base {
			m.allocs = append(m.allocs[:i], m.allocs[i+1:]...)
			m.lastHit = 0 // indexes above i shifted down
			return nil
		}
	}
	return fmt.Errorf("gpu: free of unallocated address 0x%x", base)
}

// find returns the allocation containing addr, or nil.
func (m *Memory) find(addr uint32) *alloc {
	allocs := m.allocs
	// Memoized candidates first: addr-base underflows past size for any
	// addr below base, so one unsigned compare validates each. A hit on the
	// older slot deliberately does not promote it — alternating between two
	// buffers then stabilizes with both memoized and no stores at all.
	memo := m.lastHit
	if i := int(memo & 0xffff); i < len(allocs) {
		if a := &allocs[i]; addr-a.base < a.size {
			return a
		}
	}
	if i := int(memo >> 16); i < len(allocs) {
		if a := &allocs[i]; addr-a.base < a.size {
			return a
		}
	}
	// allocs is sorted by base (bump allocator), so binary search for the
	// last allocation with base <= addr. Hand-rolled rather than
	// sort.Search: the closure call per probe dominates the search cost on
	// this hot path.
	lo, hi := 0, len(allocs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if allocs[mid].base <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	a := &allocs[lo-1]
	if addr-a.base < a.size {
		if idx := uint32(lo - 1); idx < 0xffff {
			m.lastHit = idx | memo<<16
		}
		return a
	}
	return nil
}

// check validates an access of width bytes at addr and returns the
// allocation and the offset within it. Trap kinds are reported through the
// returned values. A width-aligned access never straddles a page: base is
// allocAlign-aligned and both widths divide memPageSize.
func (m *Memory) check(addr uint32, width uint32) (a *alloc, off uint32, kind TrapKind) {
	if addr%width != 0 {
		return nil, 0, TrapMisaligned
	}
	a = m.find(addr)
	if a == nil || addr-a.base+width > a.size {
		return nil, 0, TrapIllegalAddress
	}
	return a, addr - a.base, 0
}

// Load reads width bytes (1, 2, 4 or 8) at addr, little-endian.
func (m *Memory) Load(addr uint32, width uint8) (uint64, TrapKind) {
	a, off, kind := m.check(addr, uint32(width))
	if kind != 0 {
		return 0, kind
	}
	buf := a.readPage(off / memPageSize)
	o := off % memPageSize
	switch width {
	case 1:
		return uint64(buf[o]), 0
	case 2:
		return uint64(binary.LittleEndian.Uint16(buf[o:])), 0
	case 4:
		return uint64(binary.LittleEndian.Uint32(buf[o:])), 0
	case 8:
		return binary.LittleEndian.Uint64(buf[o:]), 0
	default:
		return 0, TrapInvalidInstruction
	}
}

// Store writes width bytes (1, 2, 4 or 8) at addr, little-endian.
func (m *Memory) Store(addr uint32, width uint8, val uint64) TrapKind {
	a, off, kind := m.check(addr, uint32(width))
	if kind != 0 {
		return kind
	}
	buf := a.writePage(off / memPageSize)
	o := off % memPageSize
	switch width {
	case 1:
		buf[o] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(buf[o:], uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(buf[o:], uint32(val))
	case 8:
		binary.LittleEndian.PutUint64(buf[o:], val)
	default:
		return TrapInvalidInstruction
	}
	return 0
}

// ReadBytes copies n bytes starting at addr into a new slice (device-to-host
// memcpy). The whole range must lie inside one allocation.
func (m *Memory) ReadBytes(addr uint32, n int) ([]byte, error) {
	a := m.find(addr)
	if a == nil || uint32(n) > a.size-(addr-a.base) {
		return nil, fmt.Errorf("gpu: memcpy DtoH of %d bytes at 0x%x out of bounds", n, addr)
	}
	out := make([]byte, n)
	off := addr - a.base
	for done := 0; done < n; {
		p := off + uint32(done)
		done += copy(out[done:], a.readPage(p / memPageSize)[p%memPageSize:])
	}
	return out, nil
}

// WriteBytes copies b into device memory at addr (host-to-device memcpy).
func (m *Memory) WriteBytes(addr uint32, b []byte) error {
	a := m.find(addr)
	if a == nil || uint32(len(b)) > a.size-(addr-a.base) {
		return fmt.Errorf("gpu: memcpy HtoD of %d bytes at 0x%x out of bounds", len(b), addr)
	}
	off := addr - a.base
	for done := 0; done < len(b); {
		p := off + uint32(done)
		done += copy(a.writePage(p / memPageSize)[p%memPageSize:], b[done:])
	}
	return nil
}

// AllocCount returns the number of live allocations, for tests.
func (m *Memory) AllocCount() int { return len(m.allocs) }

// MemSpan describes one live allocation's address range.
type MemSpan struct {
	Base uint32
	Size uint32
}

// Spans returns the live allocations in base order. Fault injectors use it
// to map a unit fraction onto a concrete device address without knowing the
// workload's buffer layout.
func (m *Memory) Spans() []MemSpan {
	spans := make([]MemSpan, len(m.allocs))
	for i := range m.allocs {
		spans[i] = MemSpan{Base: m.allocs[i].base, Size: m.allocs[i].size}
	}
	return spans
}

// Recycle returns every private page to the process-wide page pool and
// empties the memory. Call only when the memory is being discarded — a
// campaign retiring an experiment's context. Pages a snapshot may alias stay
// out of the pool: the per-page shared bit is exact (snapshot and restore set
// it on every materialized page, only the copying write path clears it), so a
// fork gives back precisely the pages it dirtied.
func (m *Memory) Recycle() {
	for i := range m.allocs {
		a := &m.allocs[i]
		for pg, p := range a.pages {
			if p != nil && !a.shared[pg] {
				putPage(p)
			}
			a.pages[pg] = nil
		}
	}
	m.allocs = nil
	m.next = allocBase
	m.lastHit = 0
}

// Recycle retires the device, returning its global-memory pages to the
// process-wide page pool. Call only when the device will never be used
// again — the campaign layer calls it after classifying each experiment. A
// launch run left paused (a replay that exited early) gives its block back
// too.
func (d *Device) Recycle() {
	d.run.Close()
	d.Mem.Recycle()
}

// memSnap is an immutable copy-on-write view of a Memory, shared between
// the snapshotted memory and every fork restored from it.
type memSnap struct {
	next   uint32
	allocs []memSnapAlloc
}

type memSnapAlloc struct {
	base  uint32
	size  uint32
	pages [][]byte
}

// snapshot captures the memory's current contents without copying page
// data: every materialized page is marked shared on the live memory, so
// the next write to it copies first and the snapshot's view never changes.
func (m *Memory) snapshot() *memSnap {
	s := &memSnap{next: m.next, allocs: make([]memSnapAlloc, len(m.allocs))}
	for i := range m.allocs {
		a := &m.allocs[i]
		pages := make([][]byte, len(a.pages))
		copy(pages, a.pages)
		for pg, p := range a.pages {
			if p != nil {
				a.shared[pg] = true
			}
		}
		s.allocs[i] = memSnapAlloc{base: a.base, size: a.size, pages: pages}
	}
	return s
}

// restore builds a fresh Memory whose pages all start shared with the
// snapshot. It only reads the snapshot, so any number of forks can restore
// from one memSnap concurrently and then diverge via copy-on-write without
// ever observing each other.
func (s *memSnap) restore() *Memory {
	m := &Memory{next: s.next, allocs: make([]alloc, len(s.allocs))}
	for i := range s.allocs {
		sa := &s.allocs[i]
		pages := make([][]byte, len(sa.pages))
		copy(pages, sa.pages)
		shared := make([]bool, len(pages))
		for pg, p := range pages {
			shared[pg] = p != nil
		}
		m.allocs[i] = alloc{base: sa.base, size: sa.size, pages: pages, shared: shared}
	}
	return m
}
