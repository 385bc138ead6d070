package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteProm renders every registered series in Prometheus text
// exposition format 0.0.4: one # TYPE line per family, series sorted by
// (family, labels), histograms as cumulative _bucket/_sum/_count with a
// +Inf bucket always present.
func (r *Registry) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, s := range r.snapshot() {
		if s.family != lastFamily {
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.family, s.kind.promType())
			lastFamily = s.family
		}
		switch s.kind {
		case kindCounter:
			writeSample(bw, s.family, s.labels, "", float64(s.counter.Load()))
		case kindCounterFunc, kindGaugeFunc:
			writeSample(bw, s.family, s.labels, "", s.fn())
		case kindHistogram:
			h := s.hist
			cum := h.snapshotCumulative()
			for i, u := range h.uppers {
				writeSample(bw, s.family+"_bucket", s.labels,
					`le="`+formatValue(u)+`"`, float64(cum[i]))
			}
			writeSample(bw, s.family+"_bucket", s.labels, `le="+Inf"`, float64(cum[len(cum)-1]))
			writeSample(bw, s.family+"_sum", s.labels, "", h.Sum())
			writeSample(bw, s.family+"_count", s.labels, "", float64(h.Count()))
		}
	}
	return bw.Flush()
}

// writeSample emits one `name{labels} value` line; extra is an
// additional rendered label (the histogram le) appended after labels.
func writeSample(w io.Writer, name, labels, extra string, v float64) {
	switch {
	case labels == "" && extra == "":
		fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
	case labels == "":
		fmt.Fprintf(w, "%s{%s} %s\n", name, extra, formatValue(v))
	case extra == "":
		fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatValue(v))
	default:
		fmt.Fprintf(w, "%s{%s,%s} %s\n", name, labels, extra, formatValue(v))
	}
}

// Sample is one parsed exposition line: a fully qualified series name
// (including any _bucket/_sum/_count suffix), its rendered label block
// (without braces, may be empty), and the value.
type Sample struct {
	Name   string
	Labels string
	Value  float64
}

// Key is the series identity used for merging.
func (s Sample) Key() string { return s.Name + "\x00" + s.Labels }

// Exposition is a parsed /metrics payload: the samples in input order
// plus the # TYPE declarations seen.
type Exposition struct {
	Samples []Sample
	Types   map[string]string // family -> counter|gauge|histogram
}

// ParseExposition parses Prometheus text exposition format. It is a
// tolerant single-pass parser for the subset WriteProm emits (plus
// HELP lines and blank lines); malformed lines are skipped rather than
// failing the whole scrape.
func ParseExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Types: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) >= 4 && f[1] == "TYPE" {
				exp.Types[f[2]] = f[3]
			}
			continue
		}
		name, labels, rest, ok := splitSeries(line)
		if !ok || name == "" {
			continue
		}
		valStr := strings.Fields(rest) // value [timestamp]
		if len(valStr) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(valStr[0], 64)
		if err != nil {
			continue
		}
		exp.Samples = append(exp.Samples, Sample{Name: name, Labels: labels, Value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return exp, nil
}

// splitSeries splits `name{labels} value` into its parts. The label
// block is returned verbatim (quotes included); the closing brace is
// located respecting quoted values so label values containing '}' do
// not truncate the block.
func splitSeries(line string) (name, labels, rest string, ok bool) {
	brace := strings.IndexByte(line, '{')
	sp := strings.IndexAny(line, " \t")
	if brace == -1 || (sp != -1 && sp < brace) {
		if sp == -1 {
			return "", "", "", false
		}
		return line[:sp], "", line[sp+1:], true
	}
	name = line[:brace]
	inQuote, esc := false, false
	for i := brace + 1; i < len(line); i++ {
		c := line[i]
		switch {
		case esc:
			esc = false
		case c == '\\' && inQuote:
			esc = true
		case c == '"':
			inQuote = !inQuote
		case c == '}' && !inQuote:
			return name, line[brace+1 : i], strings.TrimSpace(line[i+1:]), true
		}
	}
	return "", "", "", false
}

// MergeRule decides how a family's samples combine across sources.
// WriteProm-shaped counters and histogram components sum; gauges that
// are not meaningfully summable (uptime, start time) use max/min.
type MergeRule int

const (
	MergeSum MergeRule = iota
	MergeMax
	MergeMin
)

// MergeExpositions merges scraped expositions from several sources into
// one, combining samples with identical (name, labels) per the rule
// returned by ruleFor (called with the sample name minus any
// _bucket/_sum/_count histogram suffix). Output order is the first
// exposition's order with unseen series from later sources appended;
// TYPE lines are carried over.
func MergeExpositions(exps []*Exposition, ruleFor func(family string) MergeRule) *Exposition {
	out := &Exposition{Types: map[string]string{}}
	idx := map[string]int{}
	for _, e := range exps {
		if e == nil {
			continue
		}
		for fam, typ := range e.Types {
			if _, ok := out.Types[fam]; !ok {
				out.Types[fam] = typ
			}
		}
		for _, s := range e.Samples {
			k := s.Key()
			i, seen := idx[k]
			if !seen {
				idx[k] = len(out.Samples)
				out.Samples = append(out.Samples, s)
				continue
			}
			switch ruleFor(familyOf(s.Name)) {
			case MergeMax:
				if s.Value > out.Samples[i].Value {
					out.Samples[i].Value = s.Value
				}
			case MergeMin:
				if s.Value < out.Samples[i].Value {
					out.Samples[i].Value = s.Value
				}
			default:
				out.Samples[i].Value += s.Value
			}
		}
	}
	return out
}

// familyOf strips the histogram component suffixes off a sample name so
// merge rules key on the declared family.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// Render writes a (possibly merged) exposition back to text, with
// TYPE lines emitted before each family's first sample.
func (e *Exposition) Render(w io.Writer) error {
	bw := bufio.NewWriter(w)
	typed := map[string]bool{}
	for _, s := range e.Samples {
		fam := familyOf(s.Name)
		if !typed[fam] {
			typed[fam] = true
			if t, ok := e.Types[fam]; ok {
				fmt.Fprintf(bw, "# TYPE %s %s\n", fam, t)
			}
		}
		writeSample(bw, s.Name, s.Labels, "", s.Value)
	}
	return bw.Flush()
}

// HistogramSeries extracts one labeled histogram from the exposition:
// the finite bucket upper bounds (ascending) with cumulative counts,
// aligned so cum has one extra trailing element for +Inf, plus sum and
// count. labelSubstr selects among multiple label sets of the family.
func (e *Exposition) HistogramSeries(family, labelSubstr string) (uppers []float64, cum []uint64, sum float64, count uint64, ok bool) {
	type bkt struct {
		le float64
		v  uint64
	}
	var (
		finite []bkt
		inf    uint64
		hasInf bool
	)
	for _, s := range e.Samples {
		if labelSubstr != "" && !strings.Contains(s.Labels, labelSubstr) {
			continue
		}
		switch s.Name {
		case family + "_bucket":
			le, found := s.Label("le")
			if !found {
				continue
			}
			if le == "+Inf" {
				inf, hasInf = uint64(s.Value), true
				continue
			}
			u, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			finite = append(finite, bkt{u, uint64(s.Value)})
		case family + "_sum":
			sum = s.Value
		case family + "_count":
			count, ok = uint64(s.Value), true
		}
	}
	if !ok && !hasInf && len(finite) == 0 {
		return nil, nil, 0, 0, false
	}
	sort.Slice(finite, func(i, j int) bool { return finite[i].le < finite[j].le })
	for _, b := range finite {
		uppers = append(uppers, b.le)
		cum = append(cum, b.v)
	}
	if !hasInf {
		inf = count
	}
	cum = append(cum, inf)
	return uppers, cum, sum, count, true
}

// labelUnescaper undoes escapeLabelValue.
var labelUnescaper = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")

// Label extracts one label's value from the sample's rendered label
// block, unescaped: what the emitter passed to escapeLabelValue.
func (s Sample) Label(key string) (string, bool) {
	for rest := s.Labels; rest != ""; {
		eq := strings.Index(rest, `="`)
		if eq == -1 {
			return "", false
		}
		k := strings.TrimLeft(rest[:eq], ",")
		vStart := eq + 2
		i, esc, escaped := vStart, false, false
		for ; i < len(rest); i++ {
			c := rest[i]
			if esc {
				esc = false
				continue
			}
			if c == '\\' {
				esc, escaped = true, true
				continue
			}
			if c == '"' {
				break
			}
		}
		if i >= len(rest) {
			return "", false
		}
		if k == key {
			v := rest[vStart:i]
			if escaped {
				v = labelUnescaper.Replace(v)
			}
			return v, true
		}
		rest = rest[i+1:]
	}
	return "", false
}
