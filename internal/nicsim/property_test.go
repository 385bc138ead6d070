package nicsim

import (
	"testing"
	"testing/quick"
)

// TestThroughputMonotoneInCompetitorPressure: adding a competitor, or
// strengthening one, never increases a closed-loop workload's throughput
// beyond noise.
func TestThroughputMonotoneInCompetitorPressure(t *testing.T) {
	cfg := BlueField2()
	cfg.MeasureNoise = 0 // isolate the model from measurement noise
	f := func(carStep, wssStep uint8) bool {
		nic := New(cfg, 7)
		target := &Workload{
			Name: "t", Pattern: RunToCompletion, Cores: 2,
			CPUSecPerPkt: 700e-9, MemRefsPerPkt: 50, WSSBytes: 3 << 20,
			MemMLP: 1.6, PktBytes: 1500,
		}
		car := 20e6 + float64(carStep)/255*200e6
		wss := 1<<20 + float64(wssStep)/255*14*(1<<20)
		weak := &Workload{
			Name: "weak", Pattern: RunToCompletion, Cores: 2,
			CPUSecPerPkt: 40e-9, MemRefsPerPkt: 100, WSSBytes: wss,
			MemMLP: 8, PktBytes: 64, OfferedRate: car / 100,
		}
		strong := &Workload{
			Name: "strong", Pattern: RunToCompletion, Cores: 2,
			CPUSecPerPkt: 40e-9, MemRefsPerPkt: 100, WSSBytes: wss * 1.5,
			MemMLP: 8, PktBytes: 64, OfferedRate: car / 100 * 1.5,
		}
		a, err := nic.Run(target, weak)
		if err != nil {
			return false
		}
		b, err := nic.Run(target, strong)
		if err != nil {
			return false
		}
		return b[0].Throughput <= a[0].Throughput*1.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSoloDominatesColocated: a workload never runs faster co-located
// than alone.
func TestSoloDominatesColocated(t *testing.T) {
	cfg := BlueField2()
	cfg.MeasureNoise = 0
	f := func(refs, wssMB uint8, regex bool) bool {
		nic := New(cfg, 9)
		target := &Workload{
			Name: "t", Pattern: RunToCompletion, Cores: 2,
			CPUSecPerPkt:  600e-9,
			MemRefsPerPkt: 10 + float64(refs)/2,
			WSSBytes:      float64(wssMB%24+1) * (1 << 20),
			MemMLP:        1.6, PktBytes: 1500,
			Accel: map[AccelKind]AccelUse{},
		}
		if regex {
			target.Accel[AccelRegex] = AccelUse{
				ReqsPerPkt: 1, BytesPerReq: 1400, MatchesPerReq: 1, Queues: 2,
			}
		}
		solo, err := runSolo(nic, target)
		if err != nil {
			return false
		}
		comp := &Workload{
			Name: "c", Pattern: RunToCompletion, Cores: 2,
			CPUSecPerPkt: 40e-9, MemRefsPerPkt: 100, WSSBytes: 10 << 20,
			MemMLP: 8, PktBytes: 64, OfferedRate: 1.2e6,
			Accel: map[AccelKind]AccelUse{
				AccelRegex: {ReqsPerPkt: 0.3, BytesPerReq: 800, MatchesPerReq: 1.5, Queues: 1},
			},
		}
		co, err := nic.Run(target, comp)
		if err != nil {
			return false
		}
		return co[0].Throughput <= solo.Throughput*1.03
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCountersScaleWithThroughput: IRT and cache rates are extensive in
// throughput — a faster run reports proportionally higher rates.
func TestCountersScaleWithThroughput(t *testing.T) {
	cfg := BlueField2()
	cfg.MeasureNoise = 0
	nic := New(cfg, 11)
	mk := func(offered float64) *Workload {
		return &Workload{
			Name: "w", Pattern: RunToCompletion, Cores: 2,
			CPUSecPerPkt: 500e-9, MemRefsPerPkt: 40, WSSBytes: 1 << 20,
			MemMLP: 2, PktBytes: 512, OfferedRate: offered,
		}
	}
	slow, err := runSolo(nic, mk(0.2e6))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := runSolo(nic, mk(0.4e6))
	if err != nil {
		t.Fatal(err)
	}
	ratio := car(fast.Counters) / car(slow.Counters)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("CAR ratio %v, want ~2", ratio)
	}
	if fast.Counters.IRT <= slow.Counters.IRT {
		t.Fatal("IRT did not scale with throughput")
	}
	// WSS is intensive: unchanged.
	if slow.Counters.WSS != fast.Counters.WSS {
		t.Fatal("WSS should not depend on rate without noise")
	}
}

// TestAccelWorkConservation: total accelerator completions never exceed
// engine capacity.
func TestAccelWorkConservation(t *testing.T) {
	cfg := BlueField2()
	cfg.MeasureNoise = 0
	nic := New(cfg, 13)
	mk := func(name string, rate float64) *Workload {
		return &Workload{
			Name: name, Pattern: RunToCompletion, Cores: 2,
			CPUSecPerPkt: 30e-9, MemRefsPerPkt: 2, WSSBytes: 1 << 16,
			MemMLP: 4, PktBytes: 64, OfferedRate: rate,
			Accel: map[AccelKind]AccelUse{
				AccelRegex: {ReqsPerPkt: 1, BytesPerReq: 1000, MatchesPerReq: 2, Queues: 1},
			},
		}
	}
	ms, err := nic.Run(mk("a", 3e6), mk("b", 3e6))
	if err != nil {
		t.Fatal(err)
	}
	service := 180e-9 + 1000*0.12e-9 + 2*320e-9
	capacity := 1 / service
	total := ms[0].AccelStats[AccelRegex].RequestRate + ms[1].AccelStats[AccelRegex].RequestRate
	if total > capacity*1.05 {
		t.Fatalf("completions %v exceed capacity %v", total, capacity)
	}
}
