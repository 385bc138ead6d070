package nf

// FlowEntry is one slot of a FlowTable. The layout approximates a 64-byte
// cache line: an occupancy tag, the flow key hash, and six 64-bit data
// words for the owning NF.
type FlowEntry struct {
	used bool
	key  uint64
	Data [6]uint64
}

// entryBytes is the modeled memory footprint of one slot.
const entryBytes = 64

// FlowTable is an open-addressing (linear probing) hash table keyed by
// flow-key hashes, the per-flow state structure the NFs share. It exposes
// probe counts so footprint measurement can translate lookups into cache
// references, the way the paper's hash-table NFs stress the LLC.
type FlowTable struct {
	slots []FlowEntry
	count int
}

// minTableSlots is the initial capacity (a power of two).
const minTableSlots = 1024

// maxLoad is the load factor that triggers growth.
const maxLoad = 0.75

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable {
	return &FlowTable{slots: make([]FlowEntry, minTableSlots)}
}

// Len returns the number of live entries.
func (t *FlowTable) Len() int { return t.count }

// StateBytes is the table's memory footprint in bytes.
func (t *FlowTable) StateBytes() float64 { return float64(len(t.slots) * entryBytes) }

// Reset drops all entries and shrinks back to the initial capacity.
func (t *FlowTable) Reset() {
	t.slots = make([]FlowEntry, minTableSlots)
	t.count = 0
}

// Reserve grows the table so n entries fit without triggering growth —
// one allocation instead of a doubling cascade when the flow population
// is known up front. It never shrinks.
func (t *FlowTable) Reserve(n int) {
	need := minTableSlots
	for float64(n) > maxLoad*float64(need) {
		need *= 2
	}
	if need > len(t.slots) {
		t.rehash(need)
	}
}

// Prefetch pulls key's home slot toward the cache ahead of the Insert or
// Lookup that will probe it, and reports whether the slot is occupied.
// Issued for a whole burst of keys before the first of them is inserted,
// it lets the burst's misses overlap instead of each waiting behind the
// occupancy branch of the one before — the rte_hash bulk-lookup shape. Go
// has no prefetch intrinsic, so this is a plain load, kept out of line so
// the compiler cannot discard it where the result goes unused.
//
//go:noinline
func (t *FlowTable) Prefetch(key uint64) bool {
	return t.slots[key&uint64(len(t.slots)-1)].used
}

// Lookup finds the entry for key. It returns the entry (nil if absent)
// and the number of slots probed.
func (t *FlowTable) Lookup(key uint64) (*FlowEntry, int) {
	mask := uint64(len(t.slots) - 1)
	idx := key & mask
	for probes := 1; probes <= len(t.slots); probes++ {
		e := &t.slots[idx]
		if !e.used {
			return nil, probes
		}
		if e.key == key {
			return e, probes
		}
		idx = (idx + 1) & mask
	}
	return nil, len(t.slots)
}

// Insert finds or creates the entry for key, growing the table if needed.
// It returns the entry, the probe count, and whether the entry was newly
// created.
func (t *FlowTable) Insert(key uint64) (*FlowEntry, int, bool) {
	if float64(t.count+1) > maxLoad*float64(len(t.slots)) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	idx := key & mask
	for probes := 1; ; probes++ {
		e := &t.slots[idx]
		if !e.used {
			e.used = true
			e.key = key
			e.Data = [6]uint64{}
			t.count++
			return e, probes, true
		}
		if e.key == key {
			return e, probes, false
		}
		idx = (idx + 1) & mask
	}
}

func (t *FlowTable) grow() { t.rehash(2 * len(t.slots)) }

func (t *FlowTable) rehash(size int) {
	old := t.slots
	t.slots = make([]FlowEntry, size)
	t.count = 0
	mask := uint64(len(t.slots) - 1)
	for i := range old {
		if !old[i].used {
			continue
		}
		idx := old[i].key & mask
		for {
			if !t.slots[idx].used {
				t.slots[idx] = old[i]
				t.count++
				break
			}
			idx = (idx + 1) & mask
		}
	}
}
