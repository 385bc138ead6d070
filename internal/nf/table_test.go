package nf

import (
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestFlowTableInsertLookup(t *testing.T) {
	tb := NewFlowTable()
	e, _, created := tb.Insert(42)
	if !created {
		t.Fatal("first insert not created")
	}
	e.Data[0] = 7
	got, _, _ := tb.find(42)
	if got == nil || got.Data[0] != 7 {
		t.Fatal("lookup after insert failed")
	}
	if _, _, created := tb.Insert(42); created {
		t.Fatal("re-insert reported created")
	}
	if len(tb.entries) != 1 {
		t.Fatalf("Len = %d", len(tb.entries))
	}
}

func TestFlowTableMissingKey(t *testing.T) {
	tb := NewFlowTable()
	if e, _, _ := tb.find(99); e != nil {
		t.Fatal("lookup of absent key returned entry")
	}
}

func TestFlowTableGrowthPreservesEntries(t *testing.T) {
	tb := NewFlowTable()
	const n = 10000
	for i := uint64(0); i < n; i++ {
		e, _, _ := tb.Insert(i * 2654435761)
		e.Data[0] = i
	}
	if len(tb.entries) != n {
		t.Fatalf("Len = %d, want %d", len(tb.entries), n)
	}
	for i := uint64(0); i < n; i++ {
		e, _, _ := tb.find(i * 2654435761)
		if e == nil || e.Data[0] != i {
			t.Fatalf("entry %d lost after growth", i)
		}
	}
}

func TestFlowTableStateBytesGrows(t *testing.T) {
	tb := NewFlowTable()
	before := tb.StateBytes()
	for i := uint64(0); i < 100000; i++ {
		tb.Insert(i*0x9e3779b97f4a7c15 + 1)
	}
	if tb.StateBytes() <= before {
		t.Fatal("StateBytes did not grow with entries")
	}
	tb.Reset()
	if tb.StateBytes() != before || len(tb.entries) != 0 {
		t.Fatal("Reset did not restore initial size")
	}
}

func TestFlowTableLoadFactorBound(t *testing.T) {
	tb := NewFlowTable()
	for i := uint64(0); i < 50000; i++ {
		tb.Insert(i + 1)
	}
	load := float64(len(tb.entries)) / (tb.StateBytes() / entryBytes)
	if load > maxLoad+0.01 {
		t.Fatalf("load factor %v exceeds bound %v", load, maxLoad)
	}
}

func TestFlowTableProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		tb := NewFlowTable()
		seen := map[uint64]bool{}
		for _, k := range keys {
			tb.Insert(k)
			seen[k] = true
		}
		if len(tb.entries) != len(seen) {
			return false
		}
		for k := range seen {
			if e, _, _ := tb.find(k); e == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLPMBasic(t *testing.T) {
	l := NewLPM()
	l.Insert(0x0a000000, 8, 1)  // 10/8 -> 1
	l.Insert(0x0a010000, 16, 2) // 10.1/16 -> 2
	l.Insert(0x0a010200, 24, 3) // 10.1.2/24 -> 3
	cases := []struct {
		ip   uint32
		want int32
	}{
		{0x0a636363, 1}, // 10.99.99.99 -> /8
		{0x0a017f01, 2}, // 10.1.127.1 -> /16
		{0x0a010203, 3}, // 10.1.2.3 -> /24
		{0x0b000001, -1},
	}
	for _, c := range cases {
		got, steps := l.Lookup(c.ip)
		if got != c.want {
			t.Errorf("Lookup(%08x) = %d, want %d", c.ip, got, c.want)
		}
		if steps < 1 || steps > 2 {
			t.Errorf("steps = %d", steps)
		}
	}
}

func TestLPMLongestWinsInsertionOrder(t *testing.T) {
	// Insert the long prefix first, then the short: the long one must
	// still win for covered addresses.
	l := NewLPM()
	l.Insert(0x0a010200, 24, 3)
	l.Insert(0x0a000000, 8, 1)
	if got, _ := l.Lookup(0x0a010203); got != 3 {
		t.Fatalf("long prefix lost: got %d", got)
	}
	if got, _ := l.Lookup(0x0a990001); got != 1 {
		t.Fatalf("short prefix missing: got %d", got)
	}
}

func TestLPMPopulateRandom(t *testing.T) {
	l := NewLPM()
	l.PopulateRandom(5000, sim.NewRNG(1))
	if l.routes != 5000 {
		t.Fatalf("Routes = %d", l.routes)
	}
	if l.StateBytes() <= 4*65536 {
		t.Fatal("no chunks allocated for long prefixes")
	}
	// Lookups must be well-formed for arbitrary addresses.
	rng := sim.NewRNG(2)
	hits := 0
	for i := 0; i < 10000; i++ {
		hop, steps := l.Lookup(uint32(rng.Uint64()))
		if steps < 1 || steps > 2 {
			t.Fatalf("steps = %d", steps)
		}
		if hop >= 0 {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("random FIB matched nothing")
	}
}

// refEntry and refTable are the 64-byte-slot flow table this package
// shipped before the probe-array layout, kept verbatim as the oracle the
// live FlowTable is held to: same home slot, same linear probe, same
// growth trigger, same rehash order — so every probe count and created
// flag must agree for any op stream.
type refEntry struct {
	used bool
	key  uint64
	Data [6]uint64
}

type refTable struct {
	slots []refEntry
	count int
}

func newRefTable() *refTable {
	return &refTable{slots: make([]refEntry, minTableSlots)}
}

func (t *refTable) Len() int { return t.count }

func (t *refTable) StateBytes() float64 { return float64(len(t.slots) * entryBytes) }

func (t *refTable) Reset() {
	t.slots = make([]refEntry, minTableSlots)
	t.count = 0
}

func (t *refTable) Reserve(n int) {
	need := minTableSlots
	for float64(n) > maxLoad*float64(need) {
		need *= 2
	}
	if need > len(t.slots) {
		t.rehash(need)
	}
}

func (t *refTable) Lookup(key uint64) (*refEntry, int) {
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

func (t *refTable) Insert(key uint64) (*refEntry, int, bool) {
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

func (t *refTable) grow() { t.rehash(2 * len(t.slots)) }

func (t *refTable) rehash(size int) {
	old := t.slots
	t.slots = make([]refEntry, size)
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

// tableOp is one step of an op stream replayed against both tables.
type tableOp struct {
	kind byte   // one of the op* constants
	key  uint64 // the flow key; for opReserve, the entry count
	word int    // opWrite: which Data word
	val  uint64 // opWrite: what to store there
}

const (
	opInsert = iota
	opLookup
	opWrite // Insert, then store val in Data[word]
	opReserve
	opReset
)

// The key shapes the oracle tests lean on. A probe-array table that keeps
// only the key's high half beside each slot must still tell these apart.
const (
	sameLow20 = 0xbeef5    // shared low 20 bits: one home slot up to 1 Mi slots
	sameHigh  = 0xfeedface // shared high 32 bits: every tag collides
)

func lowCollider(v uint64) uint64  { return v<<20 | sameLow20 }
func highCollider(v uint64) uint64 { return sameHigh<<32 | v&0xffffffff }

// tagAndHomeCollider keys share their high 32 and low 20 bits and differ
// only in the 12 bits between: same tag and same home slot, different key.
func tagAndHomeCollider(v uint64) uint64 { return sameHigh<<32 | (v&0xfff)<<20 | sameLow20 }

func mixKey(v uint64) uint64 {
	z := v*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// replayTableOps applies ops to a fresh FlowTable and a fresh refTable and
// fails on the first observable difference: probe count, created flag,
// presence, the entry's Data, Len or StateBytes after every op; and once
// the stream ends, a Lookup of every key the stream ever named.
func replayTableOps(t *testing.T, ops []tableOp) {
	t.Helper()
	got, want := NewFlowTable(), newRefTable()
	var named []uint64
	seen := map[uint64]bool{}
	lookup := func(at string, key uint64) {
		ge, gp, _ := got.find(key)
		we, wp := want.Lookup(key)
		if gp != wp || (ge == nil) != (we == nil) {
			t.Fatalf("%s: Lookup(%#x) = (present %v, %d probes), reference (present %v, %d probes)",
				at, key, ge != nil, gp, we != nil, wp)
		}
		if ge != nil && ge.Data != we.Data {
			t.Fatalf("%s: Lookup(%#x).Data = %v, reference %v", at, key, ge.Data, we.Data)
		}
	}
	for i, op := range ops {
		at := "op " + strconv.Itoa(i)
		switch op.kind {
		case opInsert, opWrite:
			ge, gp, gc := got.Insert(op.key)
			we, wp, wc := want.Insert(op.key)
			if gp != wp || gc != wc {
				t.Fatalf("%s: Insert(%#x) = (%d probes, created %v), reference (%d probes, created %v)",
					at, op.key, gp, gc, wp, wc)
			}
			if gc {
				// What the NFs do on a flow's first packet.
				ge.Data[5], we.Data[5] = ^op.key, ^op.key
			}
			if op.kind == opWrite {
				ge.Data[op.word], we.Data[op.word] = op.val, op.val
			}
			if ge.Data != we.Data {
				t.Fatalf("%s: Insert(%#x).Data = %v, reference %v", at, op.key, ge.Data, we.Data)
			}
		case opLookup:
			lookup(at, op.key)
		case opReserve:
			got.Reserve(int(op.key))
			want.Reserve(int(op.key))
		case opReset:
			got.Reset()
			want.Reset()
		}
		if op.kind != opReserve && op.kind != opReset && !seen[op.key] {
			seen[op.key] = true
			named = append(named, op.key)
		}
		if len(got.entries) != want.Len() || got.StateBytes() != want.StateBytes() {
			t.Fatalf("%s: Len %d StateBytes %v, reference Len %d StateBytes %v",
				at, len(got.entries), got.StateBytes(), want.Len(), want.StateBytes())
		}
	}
	for _, key := range named {
		lookup("final sweep", key)
	}
}

// TestFlowTableMatchesReference replays op streams the footprint golden
// cannot see — it only ever exercises a Reserved table — against the
// reference table.
func TestFlowTableMatchesReference(t *testing.T) {
	inserts := func(n int, key func(uint64) uint64) []tableOp {
		ops := make([]tableOp, n)
		for i := range ops {
			ops[i] = tableOp{kind: opInsert, key: key(uint64(i))}
		}
		return ops
	}
	// mixed interleaves inserts, lookups of present and absent keys and
	// data writes over n distinct keys drawn through key.
	mixed := func(n int, seed uint64, key func(uint64) uint64) []tableOp {
		rng := sim.NewRNG(seed)
		var ops []tableOp
		for i := 0; i < n; i++ {
			ops = append(ops, tableOp{kind: opInsert, key: key(uint64(i))})
			switch rng.Intn(4) {
			case 0:
				ops = append(ops, tableOp{kind: opLookup, key: key(uint64(rng.Intn(2 * n)))})
			case 1:
				ops = append(ops, tableOp{kind: opWrite, key: key(uint64(rng.Intn(i + 1))), word: rng.Intn(5), val: rng.Uint64()})
			case 2:
				ops = append(ops, tableOp{kind: opInsert, key: key(uint64(rng.Intn(i + 1)))})
			}
		}
		return ops
	}
	identity := func(v uint64) uint64 { return v }
	cat := func(parts ...[]tableOp) []tableOp {
		var ops []tableOp
		for _, p := range parts {
			ops = append(ops, p...)
		}
		return ops
	}
	cases := []struct {
		name string
		ops  []tableOp
	}{
		// 1024 → 131072 slots: seven rehash cascades, none Reserved.
		{"grow-without-reserve", mixed(60000, 1, mixKey)},
		{"duplicates", mixed(3000, 2, func(v uint64) uint64 { return mixKey(v % 200) })},
		// Keys 0, 1, 2, …: key 0 is a legal key, and every high half is 0.
		{"key-zero-and-zero-tags", mixed(5000, 3, identity)},
		{"equal-low-20-bits", mixed(3000, 4, lowCollider)},
		{"equal-low-32-bits", mixed(3000, 5, func(v uint64) uint64 { return v<<32 | 0x1234abcd })},
		{"equal-high-32-bits", mixed(20000, 6, func(v uint64) uint64 { return highCollider(mixKey(v)) })},
		{"equal-high-32-bits-sequential", mixed(20000, 7, highCollider)},
		{"equal-tag-and-home", mixed(4096, 8, tagAndHomeCollider)},
		{"reserve-mid-stream", cat(
			inserts(500, mixKey),
			[]tableOp{{kind: opReserve, key: 10000}},
			mixed(9000, 9, mixKey),
			[]tableOp{{kind: opReserve, key: 100}}, // never shrinks
			[]tableOp{{kind: opReserve, key: 200000}},
			mixed(30000, 10, mixKey),
		)},
		{"reserve-exact-boundaries", cat(
			[]tableOp{{kind: opReserve, key: 768}}, // 0.75 · 1024: still fits
			inserts(768, mixKey),
			[]tableOp{{kind: opReserve, key: 769}},
			inserts(1537, mixKey), // one past 0.75 · 2048 grows again
		)},
		{"reset", cat(
			mixed(5000, 11, mixKey),
			[]tableOp{{kind: opReset}},
			mixed(100, 12, mixKey),
			[]tableOp{{kind: opReset}, {kind: opReset}},
			[]tableOp{{kind: opLookup, key: 0}, {kind: opInsert, key: 0}, {kind: opLookup, key: 0}},
			mixed(3000, 13, lowCollider),
		)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { replayTableOps(t, c.ops) })
	}
}

// maxFuzzOps bounds a decoded stream: colliding keys probe quadratically.
const maxFuzzOps = 4096

// decodeTableOps turns fuzz bytes into an op stream, five bytes a step:
// an opcode byte (bits 0–2 the op, bits 3–4 the key shape, bits 5–6 how
// far the operand is narrowed so keys repeat, bit 7 whether the key is
// scrambled) and a 32-bit operand. One opcode is a run of up to 1200
// inserts of consecutive operands, so five bytes reach a rehash cascade.
func decodeTableOps(data []byte) []tableOp {
	var ops []tableOp
	for ; len(data) >= 5 && len(ops) < maxFuzzOps; data = data[5:] {
		code := data[0]
		v := uint64(data[1]) | uint64(data[2])<<8 | uint64(data[3])<<16 | uint64(data[4])<<24
		val := mixKey(v)
		switch code >> 5 & 3 {
		case 1:
			v %= 64
		case 2:
			v %= 4096
		}
		key := func(v uint64) uint64 {
			switch code >> 3 & 3 {
			case 1:
				v = lowCollider(v)
			case 2:
				v = highCollider(v)
			case 3:
				v = tagAndHomeCollider(v)
			}
			if code>>7 == 1 {
				v = mixKey(v)
			}
			return v
		}
		op := tableOp{kind: opInsert, key: key(v)}
		switch code & 7 {
		case 2:
			for j := uint64(0); j < val%1200 && len(ops) < maxFuzzOps; j++ {
				ops = append(ops, tableOp{kind: opInsert, key: key(v + j + 1)})
			}
		case 3, 4:
			op.kind = opLookup
		case 5:
			op.kind, op.word, op.val = opWrite, int(val%5), val
		case 6:
			op.kind, op.key = opReserve, v%20000
		case 7:
			if v%8 == 0 {
				op.kind = opReset
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// FuzzFlowTable holds FlowTable to the reference table on arbitrary op
// streams (see decodeTableOps for the encoding).
func FuzzFlowTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		replayTableOps(t, decodeTableOps(data))
	})
}

// TestReleasedStorageMatchesReference replays op streams on tables whose
// Reserve takes storage an earlier table released dirty: a small table on
// a larger one's arrays, and a larger table on arrays a small one left
// dirty last. Each answers every op as the reference does.
func TestReleasedStorageMatchesReference(t *testing.T) {
	// dirty Reserves a table for reserve entries, fills it with n keys
	// and data, and releases it.
	dirty := func(reserve, n int) {
		tb := NewFlowTable()
		tb.Reserve(reserve)
		for i := range uint64(n) {
			e, _, _ := tb.Insert(mixKey(i ^ 0x5eed))
			e.Data = [6]uint64{i, i, i, i, i, ^i}
		}
		tb.release()
	}
	replay := func(t *testing.T, reserve, n int) {
		ops := []tableOp{{kind: opReserve, key: uint64(reserve)}}
		for i := range uint64(n) {
			ops = append(ops,
				tableOp{kind: opInsert, key: mixKey(i)},
				tableOp{kind: opLookup, key: mixKey(i ^ 0x5eed)})
		}
		replayTableOps(t, ops)
	}
	t.Run("smaller-on-larger", func(t *testing.T) {
		dirty(0, 200000)
		replay(t, 5000, 5000)
	})
	t.Run("larger-on-smaller", func(t *testing.T) {
		dirty(0, 200000)
		dirty(5000, 5000)
		replay(t, 60000, 60000)
	})
}
