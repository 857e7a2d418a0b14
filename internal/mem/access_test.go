package mem

import (
	"errors"
	"fmt"
	"testing"
)

// refRead and refWrite are the byte-at-a-time definition of Read and
// Write: one ByteAt/SetByte per byte, faulting at the first unmapped
// byte and keeping the bytes a page-crossing write stored before it. The
// differential tests hold Read and Write to this reference model.
func refRead(m *Memory, addr uint32, size uint8) (uint32, error) {
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

func refWrite(m *Memory, addr, v uint32, size uint8) error {
	for i := uint8(0); i < size; i++ {
		shift := uint32(size-1-i) * 8
		if err := m.SetByte(addr+uint32(i), byte(v>>shift)); err != nil {
			return err
		}
	}
	return nil
}

// accessBase is the first of the three pages the differential tests use.
const accessBase = 0x40000

// newPair returns two memories with the same pages mapped (bit i of
// mapped maps page i after accessBase) and the same pattern bytes, one
// to drive through Read/Write and one through the reference model.
func newPair(mapped uint8) (got, want *Memory) {
	got, want = NewMemory(), NewMemory()
	for _, m := range []*Memory{got, want} {
		mapPages(m, mapped, true)
	}
	return got, want
}

// mapPages maps the pages selected by mapped and, with fill, writes a
// pattern that differs per byte, so a misplaced read shows. Pages mapped
// without fill read zero, so a stale translation to a filled page shows.
func mapPages(m *Memory, mapped uint8, fill bool) {
	for pg := uint32(0); pg < 3; pg++ {
		if mapped&(1<<pg) == 0 {
			continue
		}
		a := accessBase + pg*pageSize
		m.Map(a, pageSize)
		for i := uint32(0); fill && i < pageSize; i++ {
			if err := m.SetByte(a+i, byte(i*7+pg*13+1)); err != nil {
				panic(err)
			}
		}
	}
}

// checkAccess performs one access on got with Read/Write and on want
// with the reference model, and fails unless the value, the fault
// address, the Faults count and the memory contents all agree.
func checkAccess(t testing.TB, got, want *Memory, addr uint32, size uint8, write bool, val uint32) {
	t.Helper()
	var gv, wv uint32
	var gerr, werr error
	if write {
		gerr = got.Write(addr, val, size)
		werr = refWrite(want, addr, val, size)
	} else {
		gv, gerr = got.Read(addr, size)
		wv, werr = refRead(want, addr, size)
	}
	op := fmt.Sprintf("Read(%#x, %d)", addr, size)
	if write {
		op = fmt.Sprintf("Write(%#x, %#x, %d)", addr, val, size)
	}
	if gv != wv {
		t.Errorf("%s = %#x, reference %#x", op, gv, wv)
	}
	if faultAddr(gerr) != faultAddr(werr) {
		t.Errorf("%s: error %v, reference %v", op, gerr, werr)
	}
	if got.Faults != want.Faults {
		t.Errorf("%s: Faults = %d, reference %d", op, got.Faults, want.Faults)
	}
	if d, ok := got.FirstDiff(want); ok {
		t.Errorf("%s: memory differs from the reference at %#x", op, d)
	}
}

// faultAddr renders an access error for comparison: "" for nil, the
// fault address for a FaultError, and anything else verbatim.
func faultAddr(err error) string {
	var fe *FaultError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &fe):
		return fmt.Sprintf("fault at %#x", fe.Addr)
	}
	return err.Error()
}

// TestMemoryAccessMatchesReference compares Read and Write with the
// byte-at-a-time reference for every size at page-interior,
// page-last-byte and page-crossing offsets, with either page of a
// crossing access unmapped.
func TestMemoryAccessMatchesReference(t *testing.T) {
	mappings := []struct {
		name   string
		mapped uint8
	}{
		{"both-mapped", 0b011},
		{"first-unmapped", 0b010},
		{"second-unmapped", 0b001},
		{"none-mapped", 0b000},
	}
	for _, size := range []uint8{1, 2, 4} {
		type offset struct {
			name string
			off  uint32
		}
		offsets := []offset{
			{"interior", 0x10},
			{"interior-odd", 0x11},
			{"page-last-byte", pageSize - 1},
			{"page-last-slot", pageSize - uint32(size)},
		}
		for i := uint32(1); i < uint32(size); i++ {
			offsets = append(offsets, offset{fmt.Sprintf("crossing-%d", i), pageSize - i})
		}
		for _, o := range offsets {
			for _, mp := range mappings {
				for _, write := range []bool{false, true} {
					op := "read"
					if write {
						op = "write"
					}
					name := fmt.Sprintf("%s/size%d/%s/%s", op, size, o.name, mp.name)
					t.Run(name, func(t *testing.T) {
						got, want := newPair(mp.mapped)
						addr := accessBase + o.off
						checkAccess(t, got, want, addr, size, write, 0xA1B2C3D4)
						// Read back what the write left, partial writes included.
						checkAccess(t, got, want, addr, size, false, 0)
					})
				}
			}
		}
	}
}

// TestMemoryAccessAfterRecycle: a recycled memory faults everywhere, even
// at addresses accessed just before, and pages mapped again read zero.
func TestMemoryAccessAfterRecycle(t *testing.T) {
	for _, size := range []uint8{1, 2, 4} {
		t.Run(fmt.Sprintf("size%d", size), func(t *testing.T) {
			got, want := newPair(0b111)
			addrs := []uint32{accessBase + 0x10, accessBase + pageSize + 0x20, accessBase + pageSize - 1}
			for _, a := range addrs {
				checkAccess(t, got, want, a, size, true, 0x01020304)
				checkAccess(t, got, want, a, size, false, 0)
			}
			got.Recycle()
			want.Recycle()
			for _, a := range addrs {
				checkAccess(t, got, want, a, size, false, 0)
				checkAccess(t, got, want, a, size, true, 0x05060708)
			}
			// Map only the middle page again: it reads zero, and its
			// neighbours still fault.
			got.Map(accessBase+pageSize, pageSize)
			want.Map(accessBase+pageSize, pageSize)
			for _, a := range addrs {
				checkAccess(t, got, want, a, size, false, 0)
			}
			if v, err := got.Read(accessBase+pageSize+0x20, size); err != nil || v != 0 {
				t.Errorf("remapped page reads %#x, %v; want 0, nil", v, err)
			}
		})
	}
}

// FuzzMemoryAccess drives Read and Write against the reference model
// over three pages: a warming read, an optional Recycle followed by Map
// of zeroed pages, then the access and a read-back. off selects the
// address within the three pages, sizeSel the size (1, 2 or 4), and maps
// the pages mapped before (low three bits, pattern-filled) and after
// (next three bits) Recycle.
func FuzzMemoryAccess(f *testing.F) {
	f.Fuzz(func(t *testing.T, off uint16, sizeSel uint8, val uint32, maps uint8, write, recycle bool) {
		size := [...]uint8{1, 2, 4}[sizeSel%3]
		addr := accessBase + uint32(off)%(3*pageSize)
		got, want := newPair(maps & 0b111)
		checkAccess(t, got, want, addr, size, false, 0)
		if recycle {
			got.Recycle()
			want.Recycle()
			mapPages(got, maps>>3&0b111, false)
			mapPages(want, maps>>3&0b111, false)
		}
		checkAccess(t, got, want, addr, size, write, val)
		checkAccess(t, got, want, addr, size, false, 0)
	})
}

// TestMemoryAccessZeroAlloc: mapped Read and Write allocate nothing.
func TestMemoryAccessZeroAlloc(t *testing.T) {
	m := NewMemory()
	m.Map(accessBase, 2*pageSize)
	allocs := testing.AllocsPerRun(100, func() {
		for _, size := range []uint8{1, 2, 4} {
			for _, a := range []uint32{accessBase + 0x10, accessBase + pageSize + 0x40} {
				v, err := m.Read(a, size)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Write(a+4, v+1, size); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("mapped Read/Write allocate %.1f times per run, want 0", allocs)
	}
}
