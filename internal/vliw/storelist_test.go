package vliw

import (
	"slices"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/sched"
)

// storeSlot builds a store of register rd to [%g1+imm].
func storeSlot(op isa.Op, rd uint8, imm int32, size uint8, seq uint64) *sched.Slot {
	s := slot(isa.Inst{Op: op, Rd: rd, Rs1: 1, UseImm: true, Imm: imm}, 0x1000+4*uint32(seq), seq)
	s.IsMem, s.IsStore, s.MemSize, s.Order = true, true, size, uint16(seq+1)
	return s
}

// TestEngineStoresReachStoreLog: the VLIW Engine's stores reach memory
// through arch.State.Store, so under LogStores the state's one store log
// lists them, in commit order: under the checkpoint scheme as each long
// instruction commits, under the data store list only when EndBlock
// drains it. Without LogStores nothing is logged.
func TestEngineStoresReachStoreLog(t *testing.T) {
	b := block(0x1000,
		[]*sched.Slot{
			storeSlot(isa.OpST, 2, 0x20, 4, 0),
			storeSlot(isa.OpSTB, 2, 0x31, 1, 1),
		},
		[]*sched.Slot{
			storeSlot(isa.OpSTH, 2, 0x42, 2, 2),
			storeSlot(isa.OpSTD, 4, 0x48, 8, 3),
		})
	want := []arch.StoreRec{{Addr: 0x40020, Size: 4}, {Addr: 0x40031, Size: 1},
		{Addr: 0x40042, Size: 2}, {Addr: 0x40048, Size: 4}, {Addr: 0x4004c, Size: 4}}
	committed := []int{2, 5} // len(want) committed by the end of each long instruction

	for _, tc := range []struct {
		name   string
		scheme StoreScheme
		log    bool
	}{
		{"checkpoint", SchemeCheckpoint, true},
		{"storelist", SchemeStoreList, true},
		{"checkpoint-nolog", SchemeCheckpoint, false},
		{"storelist-nolog", SchemeStoreList, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newState()
			st.SetReg(1, 0x40000)
			st.SetReg(2, 0x11223344)
			st.SetReg(4, 5)
			st.SetReg(5, 6)
			st.LogStores = tc.log
			e := New(st)
			e.SetScheme(tc.scheme)
			begin(t, e, b)
			for li, n := range committed {
				if res := e.ExecLI(li); res.Err != nil {
					t.Fatalf("LI %d: %v", li, res.Err)
				}
				var wantLog []arch.StoreRec
				if tc.log && tc.scheme == SchemeCheckpoint {
					wantLog = want[:n]
				}
				if !slices.Equal(st.StoreLog, wantLog) {
					t.Fatalf("after LI %d: store log %v, want %v", li, st.StoreLog, wantLog)
				}
			}
			if err := e.EndBlock(); err != nil {
				t.Fatal(err)
			}
			var wantLog []arch.StoreRec
			if tc.log {
				wantLog = want
			}
			if !slices.Equal(st.StoreLog, wantLog) {
				t.Fatalf("after EndBlock: store log %v, want %v", st.StoreLog, wantLog)
			}
			for _, m := range []struct {
				addr uint32
				size uint8
				val  uint32
			}{{0x40020, 4, 0x11223344}, {0x40031, 1, 0x44}, {0x40042, 2, 0x3344}, {0x40048, 4, 5}, {0x4004c, 4, 6}} {
				if v, err := st.Mem.Read(m.addr, m.size); err != nil || v != m.val {
					t.Errorf("mem[%#x/%d] = %#x, %v; want %#x", m.addr, m.size, v, err, m.val)
				}
			}
		})
	}
}

// TestStoreListLoadMerge: under SchemeStoreList a load of any size takes
// each byte from the newest buffered store that covers it and the rest
// from memory. A byte-at-a-time model applies the stores in commit order
// and supplies every load's expected value.
func TestStoreListLoadMerge(t *testing.T) {
	const lo, hi = 0x400f8, 0x40110 // the loaded window, 8-byte aligned
	for _, tc := range []struct {
		name   string
		stores []microStore
	}{
		{"none", nil},
		{"word", []microStore{{0x40100, 0x11223344, 4}}},
		{"byte over word", []microStore{{0x40100, 0x11223344, 4}, {0x40102, 0xaa, 1}}},
		{"word over byte", []microStore{{0x40102, 0xaa, 1}, {0x40100, 0x11223344, 4}}},
		{"halves over word", []microStore{{0x40100, 0x11223344, 4}, {0x40102, 0xbeef, 2}, {0x40100, 0xcafe, 2}}},
		{"bytes under half", []microStore{{0x40104, 0x01, 1}, {0x40105, 0x02, 1}, {0x40104, 0x7788, 2}, {0x40105, 0x03, 1}}},
		{"one byte rewritten", []microStore{{0x40107, 0x01, 1}, {0x40107, 0x02, 1}, {0x40107, 0x03, 1}}},
		{"adjacent words", []microStore{{0x400fc, 0xa1a2a3a4, 4}, {0x40100, 0xb1b2b3b4, 4}, {0x400fe, 0xc1c2, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newState()
			model := map[uint32]byte{}
			for a := uint32(lo); a < hi; a++ {
				// Distinct memory bytes, so a byte read from memory is told
				// apart from a stored one.
				model[a] = byte(a*7 + 3)
				if err := st.Mem.Write(a, uint32(model[a]), 1); err != nil {
					t.Fatal(err)
				}
			}
			e := New(st)
			e.SetScheme(SchemeStoreList)
			for _, ms := range tc.stores {
				e.storeList = append(e.storeList, ms)
				for i := range uint32(ms.size) {
					model[ms.addr+i] = byte(ms.val >> ((uint32(ms.size) - 1 - i) * 8))
				}
			}
			for _, size := range []uint8{1, 2, 4} {
				for a := uint32(lo); a < hi; a += uint32(size) {
					var want uint32
					for i := range uint32(size) {
						want = want<<8 | uint32(model[a+i])
					}
					if got, err := e.loadMem(a, size); err != nil || got != want {
						t.Errorf("load %#x/%d = %#x, %v; want %#x", a, size, got, err, want)
					}
				}
			}
		})
	}
}
