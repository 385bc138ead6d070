package nf

import "sync"

// FlowEntry is one flow's state: the flow key hash and six 64-bit data
// words for the owning NF. A *FlowEntry from Insert, Lookup or SlotEntry
// is valid until the table's next Insert, which may move the entries.
type FlowEntry struct {
	key  uint64
	Data [6]uint64
}

// entryBytes is the modeled memory footprint of one slot: a cache line on
// the NIC. It is independent of how the host lays the table out.
const entryBytes = 64

// FlowTable is an open-addressing (linear probing) hash table keyed by
// flow-key hashes, the per-flow state structure the NFs share. It exposes
// probe counts so footprint measurement can translate lookups into cache
// references, the way the paper's hash-table NFs stress the LLC.
//
// On the host the table is two arrays. slots is the probe array, 8 bytes
// a slot: the key's high 32 bits as a tag over a 1-based index into
// entries, 0 for an empty slot. entries is dense and in insertion order.
// Probing touches only slots; a tag match is confirmed against the
// entry's full key, so a lookup is exact. Home slot, probe sequence,
// growth trigger and rehash order are those of the one-array table this
// replaced, so probe counts are too (TestFlowTableMatchesReference).
type FlowTable struct {
	slots   []uint64
	entries []FlowEntry
}

// minTableSlots is the initial capacity (a power of two).
const minTableSlots = 1024

// maxLoad is the load factor that triggers growth.
const maxLoad = 0.75

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable {
	return &FlowTable{slots: make([]uint64, minTableSlots)}
}

// StateBytes is the table's memory footprint in bytes.
func (t *FlowTable) StateBytes() float64 { return float64(len(t.slots) * entryBytes) }

// Reset drops all entries and shrinks back to the initial capacity.
func (t *FlowTable) Reset() { *t = *NewFlowTable() }

// Reserve grows the table so n entries fit without triggering growth —
// one allocation per array instead of a doubling cascade when the flow
// population is known up front. It never shrinks. An empty table first
// takes the storage a released table left in the spare store: a probe
// array large enough is re-sliced to the slots the table needs and only
// those are cleared, and an entries array large enough is reused at
// length 0, since Insert's append overwrites whole entries. Only what
// nothing stored can hold is allocated.
func (t *FlowTable) Reserve(n int) {
	need := minTableSlots
	for float64(n) > maxLoad*float64(need) {
		need *= 2
	}
	need = max(need, len(t.slots))
	if len(t.entries) == 0 {
		if s, ok := spare.take(need); ok {
			if cap(s.slots) >= need {
				t.slots = s.slots[:need]
				clear(t.slots)
			}
			if cap(s.entries) >= n {
				t.entries = s.entries
			}
		}
	}
	if need > len(t.slots) {
		t.rehash(need)
	}
	if n > cap(t.entries) {
		t.entries = append(make([]FlowEntry, 0, n), t.entries...)
	}
}

// release hands the table's storage to the spare store for the next
// empty table's Reserve. The table is left without storage: it must be
// Reset before its next use.
func (t *FlowTable) release() {
	spare.put(FlowTable{slots: t.slots[:cap(t.slots)], entries: t.entries[:0]})
	*t = FlowTable{}
}

// spare is the store of released table storage (the package doc's
// storage rule, with its retention bound).
var spare spareStore

type spareStore struct {
	mu     sync.Mutex
	tables []FlowTable
}

// take removes the stored table best suited to a need-slot table: the
// smallest probe array that holds need slots, else the largest, which
// the caller outgrows and the store is better off without.
func (s *spareStore) take(need int) (FlowTable, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fit, largest := -1, -1
	for i, t := range s.tables {
		c := cap(t.slots)
		if c >= need && (fit < 0 || c < cap(s.tables[fit].slots)) {
			fit = i
		}
		if largest < 0 || c > cap(s.tables[largest].slots) {
			largest = i
		}
	}
	i := fit
	if i < 0 {
		i = largest
	}
	if i < 0 {
		return FlowTable{}, false
	}
	t, last := s.tables[i], len(s.tables)-1
	s.tables[i], s.tables[last] = s.tables[last], FlowTable{}
	s.tables = s.tables[:last]
	return t, true
}

func (s *spareStore) put(t FlowTable) {
	s.mu.Lock()
	s.tables = append(s.tables, t)
	s.mu.Unlock()
}

// prefetch pulls the home slots of keys toward the cache ahead of the
// Inserts that will probe them. Given a whole burst's keys the loop is
// nothing but independent loads, so the misses overlap — the rte_hash
// bulk-lookup shape. Go has no prefetch intrinsic: the loads are kept
// alive by the result, which a call that is never inlined must compute
// even when its caller drops it.
//
//go:noinline
func (t *FlowTable) prefetch(keys []uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	var occupied uint64
	for _, key := range keys {
		occupied |= t.slots[key&mask]
	}
	return occupied
}

// find probes for key. It returns the entry (nil if absent), the number
// of slots probed, and — for an absent key — the empty slot that ended
// the probe (-1 if the table is full).
func (t *FlowTable) find(key uint64) (*FlowEntry, int, int) {
	mask := uint64(len(t.slots) - 1)
	idx := key & mask
	for probes := 1; probes <= len(t.slots); probes++ {
		s := t.slots[idx]
		if s == 0 {
			return nil, probes, int(idx)
		}
		if s>>32 == key>>32 {
			if e := &t.entries[uint32(s)-1]; e.key == key {
				return e, probes, 0
			}
		}
		idx = (idx + 1) & mask
	}
	return nil, len(t.slots), -1
}

// Insert finds or creates the entry for key, growing the table if needed.
// It returns the entry, the probe count, and whether the entry was newly
// created.
func (t *FlowTable) Insert(key uint64) (*FlowEntry, int, bool) {
	if float64(len(t.entries)+1) > maxLoad*float64(len(t.slots)) {
		t.rehash(2 * len(t.slots))
	}
	e, probes, free := t.find(key)
	if e != nil {
		return e, probes, false
	}
	t.entries = append(t.entries, FlowEntry{key: key})
	t.slots[free] = key>>32<<32 | uint64(len(t.entries))
	return &t.entries[len(t.entries)-1], probes, true
}

// SlotEntry returns the entry held in slot i (modulo the slot count), nil
// if the slot is empty: the view a walk over the table in slot order has.
func (t *FlowTable) SlotEntry(i uint64) *FlowEntry {
	s := t.slots[i&uint64(len(t.slots)-1)]
	if s == 0 {
		return nil
	}
	return &t.entries[uint32(s)-1]
}

// rehash re-seats every entry in a probe array of size slots, visiting
// the old array in slot order.
func (t *FlowTable) rehash(size int) {
	old := t.slots
	t.slots = make([]uint64, size)
	mask := uint64(size - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		idx := t.entries[uint32(s)-1].key & mask
		for t.slots[idx] != 0 {
			idx = (idx + 1) & mask
		}
		t.slots[idx] = s
	}
}
