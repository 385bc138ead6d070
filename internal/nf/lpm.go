package nf

import "repro/internal/sim"

// LPM is a longest-prefix-match routing table implemented as a two-level
// multibit trie (16-bit root stride, 8-bit chunks), the structure
// software routers use for IPv4 FIBs. Lookups report the number of trie
// nodes visited so footprint measurement can count cache references.
type LPM struct {
	root   []int32   // 65536 entries: next hop (negative) or chunk index+1
	chunks [][]int32 // 256-entry chunks for /17../24 prefixes
	routes int
}

// NewLPM returns an empty routing table.
func NewLPM() *LPM {
	return &LPM{root: make([]int32, 1<<16)}
}

// StateBytes is the FIB's memory footprint.
func (l *LPM) StateBytes() float64 {
	return float64(4*len(l.root) + 4*256*len(l.chunks))
}

// Insert adds a route for the given prefix (length 8..24) with nextHop
// (must be >= 0). Longer prefixes win on lookup.
func (l *LPM) Insert(prefix uint32, length int, nextHop int32) {
	if length <= 16 {
		// Fill the covered root range unless a chunk pointer (longer
		// prefixes) already occupies a slot.
		base := prefix >> 16 & 0xffff
		span := uint32(1) << (16 - length)
		start := base &^ (span - 1)
		for i := start; i < start+span; i++ {
			if l.root[i] <= 0 { // empty or next hop: overwrite
				l.root[i] = -nextHop - 1
			}
		}
	} else {
		idx := prefix >> 16 & 0xffff
		ci := l.root[idx]
		var chunk []int32
		if ci > 0 {
			chunk = l.chunks[ci-1]
		} else {
			chunk = make([]int32, 256)
			// Pre-fill with the existing shorter-prefix hop so misses in
			// the chunk still resolve.
			for i := range chunk {
				chunk[i] = l.root[idx]
			}
			l.chunks = append(l.chunks, chunk)
			l.root[idx] = int32(len(l.chunks))
		}
		base := prefix >> 8 & 0xff
		span := uint32(1) << (24 - length)
		start := base &^ (span - 1)
		for i := start; i < start+span; i++ {
			chunk[i] = -nextHop - 1
		}
	}
	l.routes++
}

// Lookup resolves ip to a next hop. It returns the hop (-1 if no route)
// and the number of trie nodes visited.
func (l *LPM) Lookup(ip uint32) (int32, int) {
	v := l.root[ip>>16]
	if v == 0 {
		return -1, 1
	}
	if v < 0 {
		return -v - 1, 1
	}
	w := l.chunks[v-1][ip>>8&0xff]
	if w < 0 {
		return -w - 1, 2
	}
	return -1, 2
}

// PopulateRandom fills the table with n random routes spanning /8../24
// prefixes, deterministic in rng.
func (l *LPM) PopulateRandom(n int, rng *sim.RNG) {
	for i := 0; i < n; i++ {
		length := 8 + rng.Intn(17) // 8..24
		prefix := uint32(rng.Uint64()) &^ (1<<(32-length) - 1)
		l.Insert(prefix, length, int32(rng.Intn(256)))
	}
}
