// Package physmem models the physical address space of a microcontroller
// as a sorted set of non-overlapping, byte-backed segments (flash, RAM,
// peripherals). All accesses are little-endian. Both the ARMv7-M machine
// model (internal/armv7m) and the RV32 machine model (internal/rv32)
// execute against this memory; protection (MPU/PMP) is layered on top by
// each architecture.
package physmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// Segment is a contiguous range of backed physical memory.
type Segment struct {
	Name string
	Base uint32
	Data []byte
}

// Contains reports whether addr falls inside the segment.
func (s *Segment) Contains(addr uint32) bool {
	return addr >= s.Base && uint64(addr) < uint64(s.Base)+uint64(len(s.Data))
}

// End returns the first address past the segment.
func (s *Segment) End() uint32 { return s.Base + uint32(len(s.Data)) }

// BusError reports an access to unmapped physical memory.
type BusError struct {
	Addr uint32
}

// Error implements the error interface.
func (e *BusError) Error() string {
	return fmt.Sprintf("armv7m: bus fault: no memory mapped at 0x%08x", e.Addr)
}

// DirtyPageSize is the granularity of write tracking (TrackDirty): page
// bases are aligned down to this power-of-two size.
const DirtyPageSize = 256

// Memory models the physical address space of the microcontroller as a
// sorted set of non-overlapping segments (flash, RAM, peripherals).
// All accesses are little-endian, matching ARMv7-M.
type Memory struct {
	segs []*Segment

	// last is the most recently hit segment. Accesses are overwhelmingly
	// local (the active RAM window, the current code page), so checking
	// it first turns the common case into two compares instead of a
	// binary search. Purely a cache: Segment falls back to the search on
	// a miss, and only Release removes segments (clearing last with
	// them), so it can never go stale.
	last *Segment

	// dirty, when non-nil, collects the page bases written since the
	// last DrainDirty — the flight recorder's copy-on-write signal. The
	// write paths pay one nil check when tracking is off; tracking never
	// touches a cycle meter either way.
	dirty map[uint32]struct{}
}

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{} }

// Map adds a segment backed by size zeroed bytes. It returns an error if
// the new segment overlaps an existing one or wraps the address space.
// The backing comes from the pool of buffers earlier boards released
// (Release) when one of this size is free, else it is freshly allocated.
func (m *Memory) Map(name string, base uint32, size uint32) (*Segment, error) {
	if size == 0 {
		return nil, fmt.Errorf("armv7m: segment %q has zero size", name)
	}
	if uint64(base)+uint64(size) > 1<<32 {
		return nil, fmt.Errorf("armv7m: segment %q wraps the 32-bit address space", name)
	}
	end := uint64(base) + uint64(size)
	for _, s := range m.segs {
		if uint64(base) < uint64(s.Base)+uint64(len(s.Data)) && uint64(s.Base) < end {
			return nil, fmt.Errorf("armv7m: segment %q overlaps %q", name, s.Name)
		}
	}
	seg := &Segment{Name: name, Base: base, Data: pool.get(int(size))}
	m.segs = append(m.segs, seg)
	sort.Slice(m.segs, func(i, j int) bool { return m.segs[i].Base < m.segs[j].Base })
	return seg, nil
}

// Segment returns the segment containing addr, or nil.
func (m *Memory) Segment(addr uint32) *Segment {
	if s := m.last; s != nil && addr >= s.Base && uint64(addr) < uint64(s.Base)+uint64(len(s.Data)) {
		return s
	}
	// Binary search over sorted segment bases.
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].End() > addr })
	if i < len(m.segs) && m.segs[i].Contains(addr) {
		m.last = m.segs[i]
		return m.segs[i]
	}
	return nil
}

// Segments returns all mapped segments in address order.
func (m *Memory) Segments() []*Segment { return m.segs }

// Release ends the memory's life: each segment's backing is zeroed and
// returned to the pool Map draws from, and the memory is left with no
// segments, so every later access through it is a *BusError and every
// Segment it handed out has nil Data — released memory fails closed and
// can never read the bytes of the board that next draws the buffer.
// Calling Release again is a no-op, so a buffer is never pooled twice.
// The owner that built the memory calls it once nothing reads the board
// any more; memory that is never released is simply garbage collected.
func (m *Memory) Release() {
	for _, s := range m.segs {
		pool.put(s.Data)
		s.Data = nil
	}
	m.segs, m.last, m.dirty = nil, nil, nil
}

// zeroPage is the all-zero reference TrackDirty compares pages against.
var zeroPage [DirtyPageSize]byte

// TrackDirty enables write tracking at DirtyPageSize granularity. Every
// page that already holds a non-zero byte is marked dirty immediately,
// so a tracker attached after some setup writes still sees a complete
// picture: untracked pages are guaranteed to be all-zero.
func (m *Memory) TrackDirty() {
	m.dirty = make(map[uint32]struct{})
	for _, s := range m.segs {
		for off := 0; off < len(s.Data); off += DirtyPageSize {
			page := s.Data[off:min(off+DirtyPageSize, len(s.Data))]
			if !bytes.Equal(page, zeroPage[:len(page)]) {
				m.dirty[(s.Base+uint32(off))&^uint32(DirtyPageSize-1)] = struct{}{}
			}
		}
	}
}

// TrackingDirty reports whether write tracking is enabled.
func (m *Memory) TrackingDirty() bool { return m.dirty != nil }

// DrainDirty returns the sorted page bases written since the last drain
// (or since TrackDirty) and clears the set. Nil when tracking is off.
func (m *Memory) DrainDirty() []uint32 {
	if m.dirty == nil || len(m.dirty) == 0 {
		return nil
	}
	out := make([]uint32, 0, len(m.dirty))
	for base := range m.dirty {
		out = append(out, base)
	}
	clear(m.dirty)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// markDirty records the pages overlapping [addr, addr+n).
func (m *Memory) markDirty(addr, n uint32) {
	first := addr &^ uint32(DirtyPageSize-1)
	last := (addr + n - 1) &^ uint32(DirtyPageSize-1)
	for p := first; ; p += DirtyPageSize {
		m.dirty[p] = struct{}{}
		if p == last {
			break
		}
	}
}

// checkSpan verifies [addr, addr+n) is fully backed by one segment. The
// last-hit check is duplicated from Segment so the common case inlines
// into the load/store bodies without a call.
func (m *Memory) checkSpan(addr uint32, n uint32) (*Segment, error) {
	if s := m.last; s != nil && addr >= s.Base && uint64(addr)+uint64(n) <= uint64(s.Base)+uint64(len(s.Data)) {
		return s, nil
	}
	return m.checkSpanSlow(addr, n)
}

func (m *Memory) checkSpanSlow(addr uint32, n uint32) (*Segment, error) {
	seg := m.Segment(addr)
	if seg == nil || uint64(addr)+uint64(n) > uint64(seg.End()) {
		return nil, &BusError{Addr: addr}
	}
	return seg, nil
}

// ReadByte loads one byte.
func (m *Memory) LoadByte(addr uint32) (byte, error) {
	seg, err := m.checkSpan(addr, 1)
	if err != nil {
		return 0, err
	}
	return seg.Data[addr-seg.Base], nil
}

// WriteByte stores one byte.
func (m *Memory) StoreByte(addr uint32, v byte) error {
	seg, err := m.checkSpan(addr, 1)
	if err != nil {
		return err
	}
	seg.Data[addr-seg.Base] = v
	if m.dirty != nil {
		m.markDirty(addr, 1)
	}
	return nil
}

// ReadWord loads a little-endian 32-bit word.
func (m *Memory) ReadWord(addr uint32) (uint32, error) {
	seg, err := m.checkSpan(addr, 4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(seg.Data[addr-seg.Base:]), nil
}

// WriteWord stores a little-endian 32-bit word.
func (m *Memory) WriteWord(addr uint32, v uint32) error {
	seg, err := m.checkSpan(addr, 4)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(seg.Data[addr-seg.Base:], v)
	if m.dirty != nil {
		m.markDirty(addr, 4)
	}
	return nil
}

// ReadBytes copies n bytes starting at addr.
func (m *Memory) ReadBytes(addr uint32, n uint32) ([]byte, error) {
	seg, err := m.checkSpan(addr, n)
	if err != nil {
		return nil, err
	}
	off := addr - seg.Base
	out := make([]byte, n)
	copy(out, seg.Data[off:off+n])
	return out, nil
}

// WriteBytes stores b starting at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) error {
	seg, err := m.checkSpan(addr, uint32(len(b)))
	if err != nil {
		return err
	}
	copy(seg.Data[addr-seg.Base:], b)
	if m.dirty != nil && len(b) > 0 {
		m.markDirty(addr, uint32(len(b)))
	}
	return nil
}

// maxPooled bounds the free buffers kept per size. A campaign worker
// holds one board at a time, so the pool settles at the peak number of
// concurrently live boards; the bound only caps what a burst of many
// concurrent boards leaves behind once they are released.
const maxPooled = 64

// bufferPool recycles released segment backings by size. It is a plain
// bounded free list rather than a sync.Pool: a sync.Pool empties on
// every GC cycle and, under the race detector, drops a quarter of what
// is put back, so the reuse a campaign depends on would come and go.
type bufferPool struct {
	mu   sync.Mutex
	free map[int][][]byte
}

var pool = bufferPool{free: make(map[int][][]byte)}

// get returns an all-zero buffer of length size.
func (p *bufferPool) get(size int) []byte {
	p.mu.Lock()
	list := p.free[size]
	if n := len(list); n > 0 {
		buf := list[n-1]
		list[n-1] = nil
		p.free[size] = list[:n-1]
		p.mu.Unlock()
		return buf
	}
	p.mu.Unlock()
	return make([]byte, size)
}

// put zeroes buf and keeps it for a later get of the same size, unless
// that size's free list is full. The zeroing runs outside the lock so
// concurrent releases do not queue behind each other's memclr.
func (p *bufferPool) put(buf []byte) {
	clear(buf)
	p.mu.Lock()
	if list := p.free[len(buf)]; len(list) < maxPooled {
		p.free[len(buf)] = append(list, buf)
	}
	p.mu.Unlock()
}
