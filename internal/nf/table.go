package nf

import "sync"

// FlowEntry is one flow's state: six 64-bit data words for the owning
// NF. A flow's entry is materialized, at zero, the first time Insert,
// find or SlotEntry hands that flow out. A *FlowEntry is valid until the
// table's next Insert or SlotEntry, either of which may materialize
// another flow's entry and so move the entries.
type FlowEntry struct {
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
// On the host the table is a 4-byte-per-slot probe array over a dense
// array of 8-byte keys. slots holds a 1-based index into keys, 0 for an
// empty slot; keys is in insertion order. A probe confirms each occupied
// slot against its full key, so a lookup is exact. Data words live apart,
// in entries, and only for the flows something has been handed out for:
// touched maps a key's 1-based index to its entry. Home slot, probe
// sequence, growth trigger and rehash order are those of the one-array
// table this replaced, so probe counts are too
// (TestFlowTableMatchesReference).
type FlowTable struct {
	slots   []uint32
	keys    []uint64
	touched map[uint32]uint32
	entries []FlowEntry
}

// minTableSlots is the initial capacity (a power of two).
const minTableSlots = 1024

// maxLoad is the load factor that triggers growth.
const maxLoad = 0.75

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable { return &FlowTable{} }

// StateBytes is the table's memory footprint in bytes. A table without
// storage models the empty minTableSlots-slot table it stands for.
func (t *FlowTable) StateBytes() float64 {
	return float64(max(len(t.slots), minTableSlots) * entryBytes)
}

// Reset drops all entries and the storage that held them, leaving the
// empty minTableSlots-slot table NewFlowTable returns. It allocates
// nothing: the next Reserve sizes the table (from the spare store when
// it can), or the first Insert allocates minTableSlots slots.
func (t *FlowTable) Reset() { *t = FlowTable{} }

// Reserve grows the table so n keys fit without triggering growth — one
// allocation per array instead of a doubling cascade when the flow
// population is known up front. It never shrinks. An empty table first
// takes the storage a released table left in the spare store: a probe
// array large enough is re-sliced to the slots the table needs and only
// those are cleared, a key array large enough is reused at length 0,
// since seating a key appends it, and the entry store is reused as
// released, empty. Only what nothing stored can hold is allocated.
func (t *FlowTable) Reserve(n int) {
	need := minTableSlots
	for float64(n) > maxLoad*float64(need) {
		need *= 2
	}
	need = max(need, len(t.slots))
	if len(t.keys) == 0 {
		if s, ok := spare.take(need); ok {
			if cap(s.slots) >= need {
				t.slots = s.slots[:need]
				clear(t.slots)
			}
			if cap(s.keys) >= n {
				t.keys = s.keys
			}
			t.touched, t.entries = s.touched, s.entries
		}
	}
	if need > len(t.slots) {
		t.rehash(need)
	}
	if n > cap(t.keys) {
		t.keys = append(make([]uint64, 0, n), t.keys...)
	}
}

// release hands the table's storage to the spare store for the next
// empty table's Reserve. The table is left without storage, as Reset
// leaves it.
func (t *FlowTable) release() {
	clear(t.touched)
	spare.put(FlowTable{slots: t.slots[:cap(t.slots)], keys: t.keys[:0], touched: t.touched, entries: t.entries[:0]})
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
// seats that will probe them. Given a whole burst's keys the loop is
// nothing but independent loads, so the misses overlap — the rte_hash
// bulk-lookup shape. Go has no prefetch intrinsic: the loads are kept
// alive by the result, which a call that is never inlined must compute
// even when its caller drops it.
//
//go:noinline
func (t *FlowTable) prefetch(keys []uint64) uint32 {
	mask := uint64(len(t.slots) - 1)
	var occupied uint32
	for _, key := range keys {
		occupied |= t.slots[key&mask]
	}
	return occupied
}

// probe looks key up. It returns the key's 1-based index (0 if absent),
// the number of slots probed, and — for an absent key — the empty slot
// that ended the probe (-1 if the table is full).
func (t *FlowTable) probe(key uint64) (uint32, int, int) {
	mask := uint64(len(t.slots) - 1)
	idx := key & mask
	for probes := 1; probes <= len(t.slots); probes++ {
		s := t.slots[idx]
		if s == 0 {
			return 0, probes, int(idx)
		}
		if t.keys[s-1] == key {
			return s, probes, 0
		}
		idx = (idx + 1) & mask
	}
	return 0, len(t.slots), -1
}

// entry returns the entry of the key at 1-based index s, materializing it
// at zero on first touch.
func (t *FlowTable) entry(s uint32) *FlowEntry {
	i, ok := t.touched[s]
	if !ok {
		if t.touched == nil {
			t.touched = map[uint32]uint32{}
		}
		i = uint32(len(t.entries))
		t.touched[s] = i
		t.entries = append(t.entries, FlowEntry{})
	}
	return &t.entries[i]
}

// find probes for key. It returns the entry (nil if absent), the number
// of slots probed, and — for an absent key — the empty slot that ended
// the probe (-1 if the table is full).
func (t *FlowTable) find(key uint64) (*FlowEntry, int, int) {
	s, probes, free := t.probe(key)
	if s == 0 {
		// A table without storage probes no slot; it answers as the
		// empty minTableSlots-slot table it stands for, after one.
		return nil, max(probes, 1), free
	}
	return t.entry(s), probes, 0
}

// add appends key and seats it in the empty slot free.
func (t *FlowTable) add(key uint64, free int) {
	t.keys = append(t.keys, key)
	t.slots[free] = uint32(len(t.keys))
}

// Insert finds or creates the entry for key, growing the table if needed.
// It returns the entry, the probe count, and whether the entry was newly
// created.
func (t *FlowTable) Insert(key uint64) (*FlowEntry, int, bool) {
	if float64(len(t.keys)+1) > maxLoad*float64(len(t.slots)) {
		t.rehash(max(2*len(t.slots), minTableSlots))
	}
	e, probes, free := t.find(key)
	if e != nil {
		return e, probes, false
	}
	t.add(key, free)
	return t.entry(uint32(len(t.keys))), probes, true
}

// seat is Insert for each of keys without handing an entry out, so it
// materializes none, and without the growth check: the populate pass
// seats every flow's key this way, into a table Reserved for all of
// them, which never grows.
func (t *FlowTable) seat(keys []uint64) {
	for _, key := range keys {
		if s, _, free := t.probe(key); s == 0 {
			t.add(key, free)
		}
	}
}

// SlotEntry returns the entry held in slot i (modulo the slot count), nil
// if the slot is empty: the view a walk over the table in slot order has.
func (t *FlowTable) SlotEntry(i uint64) *FlowEntry {
	i &= uint64(len(t.slots) - 1)
	if i >= uint64(len(t.slots)) || t.slots[i] == 0 { // no storage, or an empty slot
		return nil
	}
	return t.entry(t.slots[i])
}

// rehash re-seats every key in a probe array of size slots, visiting the
// old array in slot order. Key indices do not change, so neither does
// touched.
func (t *FlowTable) rehash(size int) {
	old := t.slots
	t.slots = make([]uint32, size)
	mask := uint64(size - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		idx := t.keys[s-1] & mask
		for t.slots[idx] != 0 {
			idx = (idx + 1) & mask
		}
		t.slots[idx] = s
	}
}
