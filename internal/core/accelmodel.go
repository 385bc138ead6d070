package core

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/nicsim"
	"repro/internal/traffic"
)

// AccelModel is Yala's white-box queueing model for one hardware
// accelerator (§4.1.1), traffic-aware in the match-to-byte ratio
// (§5.1.1): the driver round-robins over per-NF request queues, so at
// saturation the target's share follows Eq. (1); the per-request service
// time is a linear function of the traffic's MTBR,
//
//	t(m) = T0 + A·m        (t_j = t_{j,0} + a_j·m_j)
//
// fitted by linear regression over co-runs with regex-bench.
type AccelModel struct {
	// Queues is the inferred number of request queues (n_i).
	Queues float64
	// T0 is the base per-request service time (seconds); A the extra
	// service time per unit of the accelerator-specific traffic
	// attribute (matches/MB for regex, payload bytes for compression —
	// §5.1.1's "other accelerators" generalization).
	T0, A float64
	// Attr is the traffic attribute the service time depends on.
	Attr traffic.Attribute
	// ReqsPerPkt converts between request rate and packet rate.
	ReqsPerPkt float64
}

// AttrFor maps an accelerator kind to the traffic attribute its service
// time depends on.
func AttrFor(kind nicsim.AccelKind) traffic.Attribute {
	if kind == nicsim.AccelCompress {
		return traffic.AttrPktSize
	}
	return traffic.AttrMTBR
}

// ServiceSec returns the modeled per-request service time at traffic
// attribute value m. Degenerate fits clamp at a fraction of T0.
func (a *AccelModel) ServiceSec(m float64) float64 {
	t := a.T0 + a.A*m
	if t < a.T0*0.1 {
		t = a.T0 * 0.1
	}
	return t
}

// AccelLoad is a competitor's demand on the accelerator as the model sees
// it: its queue count, per-request service time, and — if it is an
// open-loop generator — its offered request rate (0 means saturating).
type AccelLoad struct {
	Queues     float64
	ServiceSec float64
	OfferedReq float64
}

// PacketRate predicts the target NF's accelerator-stage packet rate under
// the given competing loads, at traffic MTBR m.
//
// The prediction generalizes Eq. (1) to partially loaded competitors:
// at full saturation every RR round serves one request per queue, so the
// target receives n_i of every Σn_j requests and
//
//	T_eq = n_i / Σ_j n_j·t_j .
//
// A competitor offering fewer requests than its saturated share only
// consumes what it offers, and the target picks up the slack — producing
// the linear-then-floor shape of Fig. 4.
func (a *AccelModel) PacketRate(m float64, competitors []AccelLoad) float64 {
	ti := a.ServiceSec(m)
	if ti <= 0 || a.Queues <= 0 {
		return 0
	}
	// Saturated round time and equilibrium share.
	round := a.Queues * ti
	for _, c := range competitors {
		round += c.Queues * c.ServiceSec
	}
	eq := a.Queues / round

	// Competitors' actual consumption: min(offered, their saturated share).
	busy := 0.0
	for _, c := range competitors {
		share := c.Queues / round
		rate := share
		if c.OfferedReq > 0 && c.OfferedReq < share {
			rate = c.OfferedReq
		}
		busy += rate * c.ServiceSec
	}
	if busy > 1 {
		busy = 1
	}
	reqRate := (1 - busy) / ti
	if reqRate < eq {
		reqRate = eq
	}
	if max := 1 / ti; reqRate > max {
		reqRate = max
	}
	rpp := a.ReqsPerPkt
	if rpp <= 0 {
		rpp = 1
	}
	return reqRate / rpp
}

// AccelSample is one calibration co-run outcome used for fitting.
type AccelSample struct {
	// Attr is the target traffic's accelerator-specific attribute value
	// during the co-run (MTBR for regex, packet size for compression).
	Attr float64
	// TargetRate and BenchRate are the equilibrium request rates of the
	// target NF and regex-bench.
	TargetRate, BenchRate float64
	// BenchServiceSec and BenchQueues are regex-bench's known parameters.
	BenchServiceSec float64
	BenchQueues     float64
}

// FitAccelModel infers (n_i, t(m)) from saturated co-runs with
// regex-bench at different MTBRs (§4.1.1's estimation procedure): at
// equilibrium the rate ratio gives the queue-count ratio, and the round
// time gives the target's service time; t(m) then comes from linear
// regression.
func FitAccelModel(samples []AccelSample, attr traffic.Attribute, reqsPerPkt float64) (*AccelModel, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("core: accelerator fit needs >=2 samples, got %d", len(samples))
	}
	// Queue count from the equilibrium rate ratio, averaged over samples.
	var nSum float64
	var nCnt int
	for _, s := range samples {
		if s.BenchRate <= 0 || s.TargetRate <= 0 {
			continue
		}
		nSum += s.TargetRate / s.BenchRate * s.BenchQueues
		nCnt++
	}
	if nCnt == 0 {
		return nil, fmt.Errorf("core: no usable equilibrium samples")
	}
	n := nSum / float64(nCnt)
	// Snap to the nearest positive integer: queue counts are integral.
	ni := float64(int(n + 0.5))
	if ni < 1 {
		ni = 1
	}

	// Per-sample service time: T_i = n_i / (n_i·t_i + n_b·t_b)
	//  =>  t_i = (n_i/T_i − n_b·t_b) / n_i.
	var X [][]float64
	var y []float64
	for _, s := range samples {
		if s.TargetRate <= 0 {
			continue
		}
		ti := (ni/s.TargetRate - s.BenchQueues*s.BenchServiceSec) / ni
		if ti <= 0 {
			continue
		}
		X = append(X, []float64{s.Attr})
		y = append(y, ti)
	}
	if len(y) < 2 {
		return nil, fmt.Errorf("core: not enough valid service-time samples")
	}
	lin, err := ml.FitLinear(X, y, 1e-12)
	if err != nil {
		return nil, fmt.Errorf("core: accelerator service-time regression: %w", err)
	}
	m := &AccelModel{Queues: ni, T0: lin.Intercept, A: lin.Coef[0], Attr: attr, ReqsPerPkt: reqsPerPkt}
	if m.T0 <= 0 {
		return nil, fmt.Errorf("core: accelerator fit produced non-positive base time %g", m.T0)
	}
	return m, nil
}
