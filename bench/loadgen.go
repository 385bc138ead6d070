package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// maxClients is the ceiling on load-generating goroutines (and so on
// client connections): the box has two cores and the servers share them.
const maxClients = 2

// opFunc runs one client round trip on input seq and reports whether it
// succeeded; client is the index of the goroutine issuing it.
type opFunc func(client, seq int) error

// opRec is one completed op: when it finished relative to the window
// start, how long its caller waited, and how late the generator sent it
// (open loop only).
type opRec struct {
	done, lat, late time.Duration
	failed          bool
}

// windowResult is everything one measured window observed from outside
// the program.
type windowResult struct {
	Dur      time.Duration
	Slices   int
	Wall     time.Duration
	CPU      time.Duration
	FirstErr error
	// Next is the first input index the window did not consume; the next
	// window continues there so no input is ever replayed.
	Next int

	recs             []opRec
	procBefore, proc procSnap
	heapPeakMB       float64
}

// sliceRow is one slice's raw values, kept in the record.
type sliceRow struct {
	Ops     int     `json:"ops"`
	Seconds float64 `json:"seconds"`
	OpsPerS float64 `json:"ops_per_s"`
	P50US   float64 `json:"p50_us"`
	TailUS  float64 `json:"tail_us"`
}

// windowStats are the end-to-end numbers of one window.
type windowStats struct {
	Attempted, Failed int
	OpsPerS           float64
	P50US, TailUS     float64
	TailSamples       int
	CPUUSPerOp        float64
	LateP99US         float64
	SpreadPct         float64
	Rows              []sliceRow
}

// measured brackets a window run with the process-level readings.
func measured(dur time.Duration, slices int, run func(start time.Time) ([]opRec, int, error)) windowResult {
	w := windowResult{Dur: dur, Slices: slices, procBefore: readProc()}
	heap := watchHeap()
	cpu0 := cpuTime()
	start := time.Now()
	w.recs, w.Next, w.FirstErr = run(start)
	w.Wall = time.Since(start)
	w.CPU = cpuTime() - cpu0
	w.heapPeakMB = heap.peakMB()
	w.proc = readProc()
	return w
}

// runClosed drives a closed loop: each client sends its next op only
// after the previous reply, drawing input indices from one shared
// counter starting at from, until dur has passed.
func runClosed(clients, from int, dur time.Duration, slices int, op opFunc, tr *tracer) windowResult {
	return measured(dur, slices, func(start time.Time) ([]opRec, int, error) {
		var next atomic.Int64
		next.Store(int64(from))
		perClient := make([][]opRec, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					t0 := time.Now()
					if t0.Sub(start) >= dur {
						return
					}
					seq := int(next.Add(1) - 1)
					err := op(c, seq)
					t1 := time.Now()
					tr.add("window", seq, "op", "", t0, t1)
					if err != nil && errs[c] == nil {
						errs[c] = err
					}
					perClient[c] = append(perClient[c], opRec{done: t1.Sub(start), lat: t1.Sub(t0), failed: err != nil})
				}
			}(c)
		}
		wg.Wait()
		return mergeRecs(perClient), int(next.Load()), firstError(errs)
	})
}

// runOpen drives an open loop at a fixed rate: op k is due at
// start + k/rate whatever happened to the ops before it, sender s owns
// ops s, s+senders, ... and waits for each reply, and latency is timed
// from the due time so a stall is charged to every op it delays.
func runOpen(senders, from int, rate float64, dur time.Duration, slices int, op opFunc, tr *tracer) windowResult {
	total := int(rate * dur.Seconds())
	return measured(dur, slices, func(start time.Time) ([]opRec, int, error) {
		perSender := make([][]opRec, senders)
		errs := make([]error, senders)
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for k := s; k < total; k += senders {
					due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
					sleepUntil(due)
					sent := time.Now()
					err := op(s, from+k)
					t1 := time.Now()
					tr.add("window", from+k, "op", "", sent, t1)
					if err != nil && errs[s] == nil {
						errs[s] = err
					}
					perSender[s] = append(perSender[s], opRec{done: t1.Sub(start), lat: t1.Sub(due), late: sent.Sub(due), failed: err != nil})
				}
			}(s)
		}
		wg.Wait()
		return mergeRecs(perSender), from + total, firstError(errs)
	})
}

func mergeRecs(per [][]opRec) []opRec {
	var all []opRec
	for _, r := range per {
		all = append(all, r...)
	}
	return all
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stats reduces a window to its end-to-end numbers. Throughput, median
// and tail latency are each the median over the slices, so one noisy
// slice cannot move them; tailPct is the workload's fixed tail
// percentile. With whole set all three are taken over the whole window
// instead: a slice of a workload that completes a dozen ops a second
// holds too few to support a percentile, and its rate moves in steps of
// one op.
func (w windowResult) stats(tailPct float64, whole bool) windowStats {
	st := windowStats{Attempted: len(w.recs)}
	sliceDur := w.Dur / time.Duration(w.Slices)
	lats := make([][]time.Duration, w.Slices)
	var all, late []time.Duration
	completed := 0
	for _, r := range w.recs {
		if r.failed {
			st.Failed++
			continue
		}
		completed++
		late = append(late, r.late)
		if r.done >= w.Dur {
			continue // finished after the window closed: not this window's throughput
		}
		i := int(r.done / sliceDur)
		lats[i] = append(lats[i], r.lat)
		all = append(all, r.lat)
	}
	var rates, p50s, tails []float64
	st.TailSamples = -1
	for _, l := range lats {
		sortDurations(l)
		row := sliceRow{Ops: len(l), Seconds: sliceDur.Seconds(), OpsPerS: float64(len(l)) / sliceDur.Seconds(),
			P50US: micros(percentile(l, 0.50)), TailUS: micros(percentile(l, tailPct))}
		st.Rows = append(st.Rows, row)
		rates = append(rates, row.OpsPerS)
		if len(l) > 0 {
			p50s = append(p50s, row.P50US)
			tails = append(tails, row.TailUS)
		}
		if beyond := int(float64(len(l)) * (1 - tailPct)); st.TailSamples < 0 || beyond < st.TailSamples {
			st.TailSamples = beyond
		}
	}
	st.OpsPerS, st.P50US, st.TailUS = median(rates), median(p50s), median(tails)
	if whole {
		sortDurations(all)
		st.OpsPerS = float64(len(all)) / w.Dur.Seconds()
		st.P50US, st.TailUS = micros(percentile(all, 0.50)), micros(percentile(all, tailPct))
		st.TailSamples = int(float64(len(all)) * (1 - tailPct))
	}
	st.SpreadPct = spreadPct(rates)
	sortDurations(late)
	st.LateP99US = micros(percentile(late, 0.99))
	st.CPUUSPerOp = ratio(micros(w.CPU), float64(completed))
	return st
}
