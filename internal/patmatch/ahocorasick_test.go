package patmatch

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func mustCompile(t *testing.T, pats ...string) *Matcher {
	t.Helper()
	m, err := Compile(pats)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// naiveCount is the reference implementation: overlapping substring counts.
func naiveCount(pats []string, data []byte) int {
	total := 0
	s := string(data)
	for _, p := range pats {
		for i := 0; i+len(p) <= len(s); i++ {
			if s[i:i+len(p)] == p {
				total++
			}
		}
	}
	return total
}

func TestCountSimple(t *testing.T) {
	m := mustCompile(t, "he", "she", "his", "hers")
	if got := m.Count([]byte("ushers")); got != 3 { // she, he, hers
		t.Fatalf("Count = %d, want 3", got)
	}
}

func TestCountOverlapping(t *testing.T) {
	m := mustCompile(t, "aa")
	if got := m.Count([]byte("aaaa")); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
}

func TestCountNoMatch(t *testing.T) {
	m := mustCompile(t, "needle")
	if got := m.Count([]byte("haystack without it")); got != 0 {
		t.Fatalf("Count = %d, want 0", got)
	}
}

func TestCountEmptyData(t *testing.T) {
	m := mustCompile(t, "x")
	if got := m.Count(nil); got != 0 {
		t.Fatalf("Count(nil) = %d", got)
	}
}

func TestDuplicatePatternsCountTwice(t *testing.T) {
	m := mustCompile(t, "ab", "ab")
	if got := m.Count([]byte("ab")); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
}

func TestPatternIsSuffixOfAnother(t *testing.T) {
	m := mustCompile(t, "abcd", "bcd", "cd", "d")
	if got := m.Count([]byte("abcd")); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
}

func TestEmptyPatternRejected(t *testing.T) {
	if _, err := Compile([]string{"a", ""}); err == nil {
		t.Fatal("expected error for empty pattern")
	}
}

func TestCountMatchesNaive(t *testing.T) {
	pats := []string{"ab", "abc", "bca", "c", "cab"}
	m := mustCompile(t, pats...)
	inputs := []string{
		"", "a", "abc", "abcabcabc", "cccc", "bcabca",
		"xxabcxxcabxx", strings.Repeat("abc", 100),
	}
	for _, in := range inputs {
		want := naiveCount(pats, []byte(in))
		if got := m.Count([]byte(in)); got != want {
			t.Fatalf("Count(%q) = %d, want %d", in, got, want)
		}
	}
}

func TestCountPropertyVsNaive(t *testing.T) {
	pats := []string{"ab", "ba", "aab", "bbb", "abab"}
	m := mustCompile(t, pats...)
	f := func(raw []byte) bool {
		// Restrict alphabet to {a,b} to make matches frequent.
		data := make([]byte, len(raw))
		for i, b := range raw {
			data[i] = 'a' + b%2
		}
		return m.Count(data) == naiveCount(pats, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzCount holds the compiled automaton to the naive reference on
// arbitrary rule sets (rules separated by 0xff bytes) and arbitrary data.
func FuzzCount(f *testing.F) {
	f.Fuzz(func(t *testing.T, rules string, data []byte) {
		if len(rules) > 4096 {
			t.Skip("a state per rule byte, 1 KiB per state: keep the table small")
		}
		var pats []string
		for _, p := range strings.Split(rules, "\xff") {
			if p != "" {
				pats = append(pats, p)
			}
		}
		m, err := Compile(pats)
		if err != nil {
			t.Fatalf("Compile(%q): %v", pats, err)
		}
		want := naiveCount(pats, data)
		if got := m.Count(data); got != want {
			t.Fatalf("Count(%q) over %q = %d, want %d", data, pats, got, want)
		}
	})
}

func TestBinaryPatterns(t *testing.T) {
	m := mustCompile(t, "\x16\x03\x01", "\x00\x00")
	data := []byte{0x16, 0x03, 0x01, 0x00, 0x00, 0x00}
	// one TLS match + two overlapping 0x0000 matches
	if got := m.Count(data); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
}

func TestDefaultRulesetCompiles(t *testing.T) {
	m := CompileDefault()
	if len(m.outs) < 10 {
		t.Fatalf("suspiciously small automaton: %d states", len(m.outs))
	}
	if got := m.Count([]byte("GET /index HTTP/1.1\r\nHost: example\r\n")); got < 3 {
		t.Fatalf("default rules matched %d times, want >=3", got)
	}
}

func BenchmarkCount1500B(b *testing.B) {
	m := CompileDefault()
	payload := bytes.Repeat([]byte("GET /x HTTP/1.1 filler filler "), 50)[:1460]
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Count(payload)
	}
}

// BenchmarkCountFiller scans what a footprint measurement scans: filler
// no rule starts with, and a marker about once a payload.
func BenchmarkCountFiller(b *testing.B) {
	m := CompileDefault()
	payload := bytes.Repeat([]byte(".-~#_"), 292)[:1446]
	copy(payload[700:], "GET ")
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Count(payload)
	}
}
