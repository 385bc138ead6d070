package nicsim

import (
	"math"
	"testing"
)

// runSolo measures one workload with the NIC to itself — the paper's
// baseline configuration.
func runSolo(n *NIC, w *Workload) (Measurement, error) {
	ms, err := n.Run(w)
	if err != nil {
		return Measurement{}, err
	}
	return ms[0], nil
}

// car is the cache access rate the paper plots throughout: cache reads
// plus writes per second.
func car(c Counters) float64 { return c.L2CRD + c.L2CWR }

// nfLike builds a representative NF workload.
func nfLike(name string, pattern ExecPattern, regex bool) *Workload {
	w := &Workload{
		Name: name, Pattern: pattern, Cores: 2,
		CPUSecPerPkt:  800e-9,
		MemRefsPerPkt: 60,
		WSSBytes:      2 << 20,
		PktBytes:      1500,
		Accel:         map[AccelKind]AccelUse{},
	}
	if regex {
		w.Accel[AccelRegex] = AccelUse{
			ReqsPerPkt: 1, BytesPerReq: 1460, MatchesPerReq: 0.9, Queues: 1,
		}
	}
	return w
}

// memBenchLike builds an open-loop memory contention generator.
func memBenchLike(carTarget float64, wss float64) *Workload {
	refsPerOp := 100.0
	return &Workload{
		Name: "mem-bench", Pattern: RunToCompletion, Cores: 2,
		CPUSecPerPkt:  50e-9,
		MemRefsPerPkt: refsPerOp,
		WSSBytes:      wss,
		MemMLP:        8,
		PktBytes:      64,
		OfferedRate:   carTarget / refsPerOp,
	}
}

func TestRunSoloPositiveThroughput(t *testing.T) {
	nic := New(BlueField2(), 1)
	m, err := runSolo(nic, nfLike("nf", RunToCompletion, true))
	if err != nil {
		t.Fatal(err)
	}
	if m.Throughput <= 0 {
		t.Fatal("zero solo throughput")
	}
	if m.Counters.WSS <= 0 || car(m.Counters) <= 0 {
		t.Fatalf("counters not derived: %+v", m.Counters)
	}
}

func TestRunContentionReducesThroughput(t *testing.T) {
	nic := New(BlueField2(), 2)
	target := nfLike("target", RunToCompletion, true)
	solo, err := runSolo(nic, target)
	if err != nil {
		t.Fatal(err)
	}
	comp := memBenchLike(150e6, 12<<20)
	ms, err := nic.Run(target, comp)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Throughput >= solo.Throughput {
		t.Fatalf("contended tput %v >= solo %v", ms[0].Throughput, solo.Throughput)
	}
	drop := 1 - ms[0].Throughput/solo.Throughput
	if drop < 0.02 || drop > 0.95 {
		t.Fatalf("implausible throughput drop %.1f%%", drop*100)
	}
}

func TestRunCompetitorCountersVisible(t *testing.T) {
	nic := New(BlueField2(), 3)
	target := nfLike("target", RunToCompletion, false)
	comp := memBenchLike(100e6, 8<<20)
	ms, err := nic.Run(target, comp)
	if err != nil {
		t.Fatal(err)
	}
	if car(ms[0].Competitors) < 50e6 {
		t.Fatalf("competitor CAR %v, want ~100e6", car(ms[0].Competitors))
	}
	if car(ms[1].Competitors) <= 0 {
		t.Fatal("mem-bench sees no competitor counters")
	}
}

func TestPipelineInsensitiveToMemoryWhenAccelBound(t *testing.T) {
	// Fig. 5 top: a pipeline NF bottlenecked on the regex stage holds its
	// throughput as memory contention rises (within the non-binding range).
	nic := New(BlueField2(), 4)
	p := nfLike("p-nf", Pipeline, true)
	p.Accel[AccelRegex] = AccelUse{ReqsPerPkt: 1, BytesPerReq: 1460, MatchesPerReq: 3, Queues: 1}

	regexHog := &Workload{
		Name: "regex-bench", Pattern: RunToCompletion, Cores: 2,
		CPUSecPerPkt: 30e-9, MemRefsPerPkt: 2, WSSBytes: 1 << 16, PktBytes: 64,
		OfferedRate: 5e6,
		Accel: map[AccelKind]AccelUse{
			AccelRegex: {ReqsPerPkt: 1, BytesPerReq: 1000, MatchesPerReq: 2, Queues: 1},
		},
	}
	base, err := nic.Run(p, regexHog)
	if err != nil {
		t.Fatal(err)
	}
	memHog := memBenchLike(60e6, 8<<20)
	with, err := nic.Run(p, regexHog, memHog)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(with[0].Throughput-base[0].Throughput) / base[0].Throughput
	if rel > 0.08 {
		t.Fatalf("accel-bound pipeline moved %.1f%% under light memory contention", rel*100)
	}
	if with[0].Bottleneck != ResRegex {
		t.Fatalf("bottleneck %v, want regex", with[0].Bottleneck)
	}
}

func TestRTCCompoundsContention(t *testing.T) {
	// Fig. 5 bottom: run-to-completion throughput decreases under each
	// added resource's contention.
	nic := New(BlueField2(), 5)
	r := nfLike("r-nf", RunToCompletion, true)
	solo, err := runSolo(nic, r)
	if err != nil {
		t.Fatal(err)
	}
	regexHog := &Workload{
		Name: "regex-bench", Pattern: RunToCompletion, Cores: 2,
		CPUSecPerPkt: 30e-9, MemRefsPerPkt: 2, WSSBytes: 1 << 16, PktBytes: 64,
		OfferedRate: 1.5e6,
		Accel: map[AccelKind]AccelUse{
			AccelRegex: {ReqsPerPkt: 1, BytesPerReq: 1000, MatchesPerReq: 2, Queues: 1},
		},
	}
	mRegex, err := nic.Run(r, regexHog)
	if err != nil {
		t.Fatal(err)
	}
	memHog := memBenchLike(100e6, 8<<20)
	mBoth, err := nic.Run(r, regexHog, memHog)
	if err != nil {
		t.Fatal(err)
	}
	if !(mBoth[0].Throughput < mRegex[0].Throughput && mRegex[0].Throughput < solo.Throughput) {
		t.Fatalf("RTC contention not compounding: solo %v regex %v both %v",
			solo.Throughput, mRegex[0].Throughput, mBoth[0].Throughput)
	}
}

func TestRunErrors(t *testing.T) {
	nic := New(BlueField2(), 6)
	if _, err := nic.Run(); err == nil {
		t.Fatal("expected error for empty run")
	}
	w := nfLike("a", Pipeline, false)
	w.Cores = 0
	if _, err := nic.Run(w); err == nil {
		t.Fatal("expected validation error")
	}
	// 5 workloads x 2 cores = 10 > 8 cores.
	var ws []*Workload
	for i := 0; i < 5; i++ {
		ws = append(ws, nfLike("nf", RunToCompletion, false))
	}
	if _, err := nic.Run(ws...); err == nil {
		t.Fatal("expected core-capacity error")
	}
}

func TestOpenLoopRespectsOfferedRate(t *testing.T) {
	nic := New(BlueField2(), 7)
	mb := memBenchLike(50e6, 1<<20)
	m, err := runSolo(nic, mb)
	if err != nil {
		t.Fatal(err)
	}
	if m.Throughput > mb.OfferedRate*1.05 {
		t.Fatalf("open-loop tput %v exceeds offered %v", m.Throughput, mb.OfferedRate)
	}
}

func TestBottleneckAttributionMemory(t *testing.T) {
	nic := New(BlueField2(), 8)
	w := nfLike("memheavy", RunToCompletion, false)
	w.MemRefsPerPkt = 400
	w.WSSBytes = 24 << 20
	m, err := runSolo(nic, w)
	if err != nil {
		t.Fatal(err)
	}
	if m.Bottleneck != ResMemory {
		t.Fatalf("bottleneck %v, want memory", m.Bottleneck)
	}
}

func TestBottleneckAttributionCPU(t *testing.T) {
	nic := New(BlueField2(), 9)
	w := nfLike("cpuheavy", RunToCompletion, false)
	w.CPUSecPerPkt = 5e-6
	w.MemRefsPerPkt = 5
	w.WSSBytes = 1 << 16
	m, err := runSolo(nic, w)
	if err != nil {
		t.Fatal(err)
	}
	if m.Bottleneck != ResCPU {
		t.Fatalf("bottleneck %v, want cpu", m.Bottleneck)
	}
}

func TestPensandoPresetRuns(t *testing.T) {
	nic := New(Pensando(), 10)
	m, err := runSolo(nic, nfLike("fw", RunToCompletion, false))
	if err != nil {
		t.Fatal(err)
	}
	if m.Throughput <= 0 {
		t.Fatal("pensando preset gives zero throughput")
	}
}

func TestMeasurementDeterministicPerSeed(t *testing.T) {
	run := func() float64 {
		nic := New(BlueField2(), 42)
		m, err := runSolo(nic, nfLike("nf", RunToCompletion, true))
		if err != nil {
			t.Fatal(err)
		}
		return m.Throughput
	}
	if run() != run() {
		t.Fatal("same seed produced different measurements")
	}
}

func TestAccelStatsPopulated(t *testing.T) {
	nic := New(BlueField2(), 11)
	w := nfLike("nf", RunToCompletion, true)
	m, err := runSolo(nic, w)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := m.AccelStats[AccelRegex]
	if !ok {
		t.Fatal("no regex accel stats")
	}
	if st.RequestRate <= 0 || st.MeanServiceSec <= 0 || st.Queues != 1 {
		t.Fatalf("bad accel stats: %+v", st)
	}
	if st.MatchRate <= 0 {
		t.Fatalf("match rate not derived: %+v", st)
	}
}

func TestWorkloadValidate(t *testing.T) {
	good := nfLike("ok", Pipeline, true)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := nfLike("bad", Pipeline, true)
	bad.Accel[AccelRegex] = AccelUse{ReqsPerPkt: 1, Queues: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected queue validation error")
	}
	neg := nfLike("neg", Pipeline, false)
	neg.CPUSecPerPkt = -1
	if err := neg.Validate(); err == nil {
		t.Fatal("expected negative-cost error")
	}
	tiny := nfLike("tiny", Pipeline, false)
	tiny.PktBytes = 0
	if err := tiny.Validate(); err == nil {
		t.Fatal("expected packet-size error")
	}
}

func TestResourceStrings(t *testing.T) {
	names := map[Resource]string{
		ResCPU: "cpu", ResMemory: "memory", ResRegex: "regex",
		ResCompress: "compress", ResNICPort: "nic-port",
	}
	for r, want := range names {
		if r.String() != want {
			t.Errorf("Resource(%d).String() = %q", r, r.String())
		}
	}
	if Pipeline.String() != "pipeline" || RunToCompletion.String() != "run-to-completion" {
		t.Error("pattern names wrong")
	}
	if AccelRegex.String() != "regex" || AccelCompress.String() != "compress" {
		t.Error("accel names wrong")
	}
}

func TestDVFSScalesCPUBoundThroughput(t *testing.T) {
	// §8 extension: a DVFS governor at half frequency roughly halves a
	// CPU-bound NF's maximum throughput but barely moves a memory-bound
	// one (DRAM speed is frequency-independent).
	base := BlueField2()
	base.MeasureNoise = 0
	slow := base.WithFrequencyScale(0.5)

	cpuBound := nfLike("cpu", RunToCompletion, false)
	cpuBound.CPUSecPerPkt = 3e-6
	cpuBound.MemRefsPerPkt = 4
	a, err := runSolo(New(base, 1), cpuBound)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSolo(New(slow, 1), cpuBound)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := b.Throughput / a.Throughput; math.Abs(ratio-0.5) > 0.05 {
		t.Fatalf("cpu-bound DVFS ratio %v, want ~0.5", ratio)
	}

	memBound := nfLike("mem", RunToCompletion, false)
	memBound.CPUSecPerPkt = 100e-9
	memBound.MemRefsPerPkt = 400
	memBound.WSSBytes = 32 << 20
	c, err := runSolo(New(base, 2), memBound)
	if err != nil {
		t.Fatal(err)
	}
	d, err := runSolo(New(slow, 2), memBound)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := d.Throughput / c.Throughput; ratio < 0.85 {
		t.Fatalf("mem-bound DVFS ratio %v, want near 1", ratio)
	}
}

func TestWithFrequencyScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BlueField2().WithFrequencyScale(0)
}
