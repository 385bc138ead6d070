package nf

// FlowReserver is implemented by the NFs that keep per-flow state. Measure
// populates these and only these: it pre-sizes the state for the profile's
// flow population (one allocation instead of a doubling cascade), then
// sends one header-only packet per flow, prefetching each burst's table
// slots — one call with the whole burst's flow hashes — before processing
// it. A caller done with the NF after Measure calls ReleaseFlows, which
// hands the table's storage to the next measurement (the storage rule in
// the package doc); the NF then holds no state and must be Reset before
// it processes another packet.
type FlowReserver interface {
	ReserveFlows(n int)
	PrefetchFlows(keys []uint64) bool
	ReleaseFlows()
}

// flowState is the per-flow table such an NF embeds; it carries the
// FlowReserver methods.
type flowState struct {
	table *FlowTable
}

func newFlowState() flowState { return flowState{table: NewFlowTable()} }

// ReserveFlows implements FlowReserver.
func (s *flowState) ReserveFlows(n int) { s.table.Reserve(n) }

// PrefetchFlows implements FlowReserver.
func (s *flowState) PrefetchFlows(keys []uint64) bool { return s.table.Prefetch(keys) }

// ReleaseFlows implements FlowReserver.
func (s *flowState) ReleaseFlows() { s.table.release() }
