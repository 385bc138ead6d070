package nf

import "repro/internal/traffic"

// FlowReserver is implemented by the NFs that keep per-flow state. Measure
// populates these and only these (the populate rule in the package doc):
// PopulateFlows sizes the flow table for the generator's flow population
// (one allocation instead of a doubling cascade) and seats every flow's
// key in flow order, storing no data words: a flow's read as zero when
// the flow is first touched. A caller done with the NF after Measure calls
// ReleaseFlows, which hands the table's storage to the next measurement
// (the storage rule); the NF then holds no state and must be Reset before
// it processes another packet.
type FlowReserver interface {
	PopulateFlows(gen *traffic.Generator)
	ReleaseFlows()
}

// flowState is the per-flow table such an NF embeds; it carries the
// FlowReserver methods.
type flowState struct {
	table *FlowTable
}

func newFlowState() flowState { return flowState{table: NewFlowTable()} }

// populateBurst is how many flow keys PopulateFlows computes at a time:
// short enough that a burst's keys and home slots stay in L1, long enough
// that its table misses overlap. At 250k flows on a 2-vCPU Xeon, 128 ran
// ~12 % faster than 32 or 64 and no slower than 256 or 512.
const populateBurst = 128

// PopulateFlows implements FlowReserver. It is software-pipelined: it
// loads one burst's home slots, computes the next burst's keys while
// those loads are in flight, and only then seats the first burst. On the
// 4-byte probe array the home-slot loads still pay: at 250k flows on a
// 2-vCPU Xeon, BenchmarkMeasure ran faster with them in 16 of 24
// interleaved rounds, by 4 % on the mean.
func (s *flowState) PopulateFlows(gen *traffic.Generator) {
	t := s.table
	t.Reserve(gen.NumFlows())
	var a, b [populateBurst]uint64
	burst, spare := gen.FlowKeys(0, a[:]), b[:]
	for next := len(burst); len(burst) > 0; {
		t.prefetch(burst)
		following := gen.FlowKeys(next, spare)
		next += len(following)
		t.seat(burst)
		burst, spare = following, burst[:cap(burst)]
	}
}

// ReleaseFlows implements FlowReserver.
func (s *flowState) ReleaseFlows() { s.table.release() }
