package vliw

// StoreScheme selects how the VLIW Engine makes stores recoverable
// (paper §3.11 describes both).
type StoreScheme uint8

const (
	// SchemeCheckpoint writes stores through to the Data Cache while
	// saving the overwritten data in the checkpoint recovery store list;
	// recovery replays the list backwards. This is the scheme the paper
	// evaluates.
	SchemeCheckpoint StoreScheme = iota

	// SchemeStoreList buffers store data in a data store list and only
	// transfers it to the Data Cache after the block finishes without
	// exceptions, in order. Recovery just discards the list — the
	// alternative the paper proposes for workloads needing in-order
	// memory writes, left to "further research". Loads within the block
	// read the list (newest entry wins) before the Data Cache.
	SchemeStoreList
)

// loadMem performs one in-block memory read. Under SchemeStoreList loads
// read the data store list over the Data Cache and use the last data
// stored on a list hit (paper §3.11), byte by byte, so a load of any
// size snoops buffered stores of any size.
func (e *Engine) loadMem(addr uint32, size uint8) (uint32, error) {
	if len(e.storeList) == 0 {
		return e.st.Mem.Read(addr, size)
	}
	var v uint32
	for i := range uint32(size) {
		b, err := e.storeListByte(addr + i)
		if err != nil {
			return 0, err
		}
		v = v<<8 | uint32(b)
	}
	return v, nil
}

// storeListByte returns the byte at addr from the newest store in the
// data store list that covers it, otherwise from memory.
func (e *Engine) storeListByte(addr uint32) (byte, error) {
	for i := len(e.storeList) - 1; i >= 0; i-- {
		ms := &e.storeList[i]
		if off := addr - ms.addr; off < uint32(ms.size) {
			return byte(ms.val >> ((uint32(ms.size) - 1 - off) * 8)), nil
		}
	}
	return e.st.Mem.ByteAt(addr)
}

// EndBlock finalises the current block after it completed or exited
// without an exception: under SchemeStoreList the data store list drains
// to the Data Cache in order (paper §3.11: "the order field can be used
// to transfer this data to the Data Cache in order"), through
// arch.State.Store, so the state's store log lists each drained store
// under LogStores.
func (e *Engine) EndBlock() error {
	for _, ms := range e.storeList {
		if err := e.st.Store(ms.addr, ms.val, ms.size); err != nil {
			return err
		}
	}
	e.storeList = e.storeList[:0]
	return nil
}

// SetScheme selects the store-recoverability scheme. Must be called
// before BeginLowered.
func (e *Engine) SetScheme(s StoreScheme) { e.scheme = s }
