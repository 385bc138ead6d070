// Package patmatch implements a multi-pattern string matcher (Aho-Corasick)
// that stands in for the BlueField-2 RXP regex accelerator's matching
// semantics: given a compiled rule set, it scans packet payloads and counts
// rule matches. The match count per payload byte (match-to-byte ratio,
// MTBR) is the traffic attribute the paper's accelerator model depends on.
//
// The automaton is compiled to a dense DFA (the RXP compiles its rules to
// a DFA too): one row of 256 next-state entries per state with the
// failure links already followed, so scanning is one indexed load per
// payload byte — and none for a byte no pattern starts with while the
// scan sits in the root, which is most of a payload that matches nothing.
// The table costs states × 1 KiB (250 states, 250 KiB, for DefaultRules) —
// the price of a scan cost that does not depend on how often the input
// falls off a pattern.
package patmatch

import "fmt"

// Matcher is a compiled multi-pattern matcher. Build one with Compile; a
// Matcher is immutable and safe for concurrent use.
type Matcher struct {
	patterns []string

	// next[s<<8|c] is the state reached from state s on byte c; state 0
	// is the root. outs[s] is the number of pattern occurrences ending at
	// state s, accumulated through suffix links at compile time.
	next []int32
	outs []int32

	// idle[c] says byte c leaves the root in the root: no pattern starts
	// with it. A scan sitting in the root steps over such bytes without
	// consulting next or outs (the root ends no pattern, so they add 0).
	idle [256]bool
}

// Compile builds the automaton for the given patterns. Empty patterns are
// rejected. Duplicate patterns each count as separate outputs, matching
// how a ruleset with duplicate rules would report.
func Compile(patterns []string) (*Matcher, error) {
	for i, p := range patterns {
		if p == "" {
			return nil, fmt.Errorf("patmatch: empty pattern at index %d", i)
		}
	}
	m := &Matcher{
		patterns: append([]string(nil), patterns...),
		next:     make([]int32, 256),
		outs:     []int32{0},
	}
	// Trie construction. No trie edge leads back to the root, so until the
	// BFS below fills a row in, a zero entry in it means "no child".
	for _, p := range patterns {
		s := int32(0)
		for i := 0; i < len(p); i++ {
			at := int(s)<<8 | int(p[i])
			if m.next[at] == 0 {
				m.next[at] = int32(len(m.outs))
				m.next = append(m.next, make([]int32, 256)...)
				m.outs = append(m.outs, 0)
			}
			s = m.next[at]
		}
		m.outs[s]++
	}
	// BFS from the root: a child's failure link is where its parent's
	// failure state goes on the same byte, and every missing edge is
	// replaced by the failure state's edge. The failure state is always
	// shallower, so its row is complete by the time it is read. The root
	// fails to itself: its missing edges stay 0, its children's links too.
	fail := make([]int32, len(m.outs))
	queue := make([]int32, 1, len(m.outs))
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		row, frow := m.next[int(s)<<8:][:256], m.next[int(fail[s])<<8:][:256]
		for c, child := range row {
			if child == 0 {
				row[c] = frow[c]
				continue
			}
			if s != 0 {
				fail[child] = frow[c]
				m.outs[child] += m.outs[fail[child]]
			}
			queue = append(queue, child)
		}
	}
	for c, to := range m.next[:256] {
		m.idle[c] = to == 0
	}
	return m, nil
}

// NumPatterns reports how many patterns the matcher was compiled from.
func (m *Matcher) NumPatterns() int { return len(m.patterns) }

// NumStates reports the automaton size, a proxy for compiled-rule memory.
func (m *Matcher) NumStates() int { return len(m.outs) }

// Count returns the total number of pattern occurrences in data,
// including overlapping occurrences.
func (m *Matcher) Count(data []byte) int {
	var s int32
	total := 0
	for i := 0; i < len(data); i++ {
		if s == 0 && m.idle[data[i]] {
			continue
		}
		s = m.next[int(s)<<8|int(data[i])]
		total += int(m.outs[s])
	}
	return total
}

// Contains reports whether any pattern occurs in data, stopping at the
// first match.
func (m *Matcher) Contains(data []byte) bool {
	var s int32
	for i := 0; i < len(data); i++ {
		if s == 0 && m.idle[data[i]] {
			continue
		}
		s = m.next[int(s)<<8|int(data[i])]
		if m.outs[s] > 0 {
			return true
		}
	}
	return false
}

// MTBR returns the match-to-byte ratio of data in matches per megabyte.
func (m *Matcher) MTBR(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	return float64(m.Count(data)) / float64(len(data)) * 1e6
}
