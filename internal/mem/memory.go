// Package mem provides the DTSVLIW memory substrate: a sparse flat 32-bit
// byte-addressable memory holding program, data and stack, and
// set-associative cache timing models for the Instruction Cache, the Data
// Cache and (structurally) the VLIW Cache.
//
// Caches here model *timing only*: data always lives in Memory, and a cache
// access returns the number of penalty cycles it costs. This matches the
// paper's simulator, which charges miss latencies but keeps one memory
// image.
package mem

import (
	"encoding/binary"
	"fmt"
)

const pageBits = 12
const pageSize = 1 << pageBits

// Memory is a sparse, page-allocated 32-bit physical memory. Multi-byte
// values are big-endian, following SPARC. NewMemory returns an empty one.
//
// pages is the one source of truth for what is mapped. Read and Write
// translate through tlb, a small direct-mapped cache of pages entries.
// Only Recycle unmaps pages, and it drops every translation, so a cached
// translation is always current. Read fills the cache, so even reads
// must not run concurrently with other accesses.
type Memory struct {
	pages map[uint32]*[pageSize]byte
	tlb   [tlbEntries]tlbEntry
	// free recycles unmapped pages (see Recycle) so a reused memory maps
	// pages without allocating in the steady state.
	free []*[pageSize]byte

	// Faults counts accesses to unmapped addresses (every FaultError
	// returned). Zeroed by Recycle with the rest of the observable state;
	// the metrics publisher snapshots it at coarse sync points.
	Faults uint64
}

// tlbEntries is the size of Memory's translation cache, indexed by the
// low bits of the page number.
const tlbEntries = 16

// tlbEntry caches one page translation; p is nil in an empty entry.
type tlbEntry struct {
	pn uint32
	p  *[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte)}
}

// Recycle unmaps every page, moving the backing storage to an internal
// free list that later Map/LoadBytes calls draw from. The observable
// state is exactly that of a fresh memory: every address faults until it
// is mapped again, and recycled pages are re-zeroed before reuse.
func (m *Memory) Recycle() {
	for pn, p := range m.pages {
		m.free = append(m.free, p)
		delete(m.pages, pn)
	}
	m.tlb = [tlbEntries]tlbEntry{}
	m.Faults = 0
}

// FaultError reports an access to an unmapped address.
type FaultError struct{ Addr uint32 }

func (e *FaultError) Error() string {
	return fmt.Sprintf("mem: fault at %#08x (unmapped)", e.Addr)
}

func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	pn := addr >> pageBits
	p := m.pages[pn]
	if p == nil && create {
		if n := len(m.free); n > 0 {
			p = m.free[n-1]
			m.free = m.free[:n-1]
			*p = [pageSize]byte{}
		} else {
			p = new([pageSize]byte)
		}
		m.pages[pn] = p
	}
	return p
}

// translate returns the page holding addr, or nil if it is unmapped,
// through the translation cache.
func (m *Memory) translate(addr uint32) *[pageSize]byte {
	pn := addr >> pageBits
	t := &m.tlb[pn%tlbEntries]
	if t.p != nil && t.pn == pn {
		return t.p
	}
	p := m.pages[pn]
	if p != nil {
		*t = tlbEntry{pn: pn, p: p}
	}
	return p
}

// Map ensures [addr, addr+size) is allocated (zero-filled). A range that
// reaches past the top of the address space stops there.
func (m *Memory) Map(addr, size uint32) {
	end := uint64(addr) + uint64(size)
	for a := uint64(addr &^ (pageSize - 1)); a < end && a <= 0xFFFFFFFF; a += pageSize {
		m.page(uint32(a), true)
	}
}

// Mapped reports whether addr is in an allocated page.
func (m *Memory) Mapped(addr uint32) bool { return m.page(addr, false) != nil }

// ByteAt reads one byte.
func (m *Memory) ByteAt(addr uint32) (byte, error) {
	p := m.page(addr, false)
	if p == nil {
		m.Faults++
		return 0, &FaultError{Addr: addr}
	}
	return p[addr&(pageSize-1)], nil
}

// SetByte writes one byte.
func (m *Memory) SetByte(addr uint32, v byte) error {
	p := m.page(addr, false)
	if p == nil {
		m.Faults++
		return &FaultError{Addr: addr}
	}
	p[addr&(pageSize-1)] = v
	return nil
}

// Read reads size bytes (1, 2 or 4) big-endian, zero-extended. An access
// within one page costs one translation; only a page-crossing access
// (never an aligned one) goes byte by byte, faulting at the first
// unmapped byte.
func (m *Memory) Read(addr uint32, size uint8) (uint32, error) {
	off := addr & (pageSize - 1)
	if !inPage(off, size) {
		return m.readBytes(addr, size)
	}
	p := m.translate(addr)
	if p == nil {
		m.Faults++
		return 0, &FaultError{Addr: addr}
	}
	switch size {
	case 1:
		return uint32(p[off]), nil
	case 2:
		return uint32(binary.BigEndian.Uint16(p[off:])), nil
	}
	return binary.BigEndian.Uint32(p[off:]), nil
}

// Write writes the low size bytes (1, 2 or 4) of v big-endian. Like Read,
// it translates once within a page. A page-crossing write goes byte by
// byte and, when the second page is unmapped, leaves the bytes before
// the fault written.
func (m *Memory) Write(addr uint32, v uint32, size uint8) error {
	off := addr & (pageSize - 1)
	if !inPage(off, size) {
		return m.writeBytes(addr, v, size)
	}
	p := m.translate(addr)
	if p == nil {
		m.Faults++
		return &FaultError{Addr: addr}
	}
	switch size {
	case 1:
		p[off] = byte(v)
	case 2:
		binary.BigEndian.PutUint16(p[off:], uint16(v))
	default:
		binary.BigEndian.PutUint32(p[off:], v)
	}
	return nil
}

// inPage reports whether an access of size bytes at page offset off
// takes the one-translation path: 1, 2 or 4 bytes, all in one page.
func inPage(off uint32, size uint8) bool {
	return (size == 1 || size == 2 || size == 4) && off+uint32(size) <= pageSize
}

// readBytes is Read one byte at a time, for page-crossing accesses.
func (m *Memory) readBytes(addr uint32, size uint8) (uint32, error) {
	var v uint32
	for i := uint8(0); i < size; i++ {
		b, err := m.ByteAt(addr + uint32(i))
		if err != nil {
			return 0, err
		}
		v = v<<8 | uint32(b)
	}
	return v, nil
}

// writeBytes is Write one byte at a time, for page-crossing accesses.
func (m *Memory) writeBytes(addr uint32, v uint32, size uint8) error {
	for i := uint8(0); i < size; i++ {
		shift := uint32(size-1-i) * 8
		if err := m.SetByte(addr+uint32(i), byte(v>>shift)); err != nil {
			return err
		}
	}
	return nil
}

// ReadWord reads a 32-bit big-endian word.
func (m *Memory) ReadWord(addr uint32) (uint32, error) { return m.Read(addr, 4) }

// WriteWord writes a 32-bit big-endian word.
func (m *Memory) WriteWord(addr uint32, v uint32) error { return m.Write(addr, v, 4) }

// LoadBytes copies data into memory at addr, mapping pages as needed.
func (m *Memory) LoadBytes(addr uint32, data []byte) {
	m.Map(addr, uint32(len(data)))
	for i, b := range data {
		p := m.page(addr+uint32(i), true)
		p[(addr+uint32(i))&(pageSize-1)] = b
	}
}

// Snapshot returns a deep copy of the memory (used by the lockstep test
// machine and by checkpoint verification in tests).
func (m *Memory) Snapshot() *Memory {
	c := NewMemory()
	for pn, p := range m.pages {
		np := new([pageSize]byte)
		*np = *p
		c.pages[pn] = np
	}
	return c
}

// zeroPage is what an unmapped page compares as.
var zeroPage [pageSize]byte

// FirstDiff returns the lowest address at which the two memories differ,
// for diagnostics; ok is false if they are identical. An unmapped page
// compares equal to a zero-filled one. A page equal on both sides costs
// one whole-page comparison; bytes are scanned only inside a page that
// differs.
func (m *Memory) FirstDiff(o *Memory) (addr uint32, ok bool) {
	var best uint32
	// Pages mapped in m, against o's page or the zero page.
	for pn, p := range m.pages {
		op := o.pages[pn]
		if op == nil {
			op = &zeroPage
		}
		if a, d := pageDiff(pn, p, op); d && (!ok || a < best) {
			best, ok = a, true
		}
	}
	// Pages mapped in o only, against the zero page.
	for pn, op := range o.pages {
		if m.pages[pn] != nil {
			continue
		}
		if a, d := pageDiff(pn, &zeroPage, op); d && (!ok || a < best) {
			best, ok = a, true
		}
	}
	return best, ok
}

// pageDiff returns the address of the first byte at which pages p and q,
// both standing at page number pn, differ.
func pageDiff(pn uint32, p, q *[pageSize]byte) (uint32, bool) {
	if *p == *q {
		return 0, false
	}
	for i := range p {
		if p[i] != q[i] {
			return pn<<pageBits | uint32(i), true
		}
	}
	return 0, false
}
