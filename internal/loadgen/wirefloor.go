package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/wire"
)

// WireFloorReport is the raw-transport ceiling measurement `yala
// loadgen -wirefloor` produces: TypeEcho frames carry no gate, no
// cache and no prediction, so frames/s here is what the framing,
// socket and scheduler cost alone allows. Comparing it against a wire
// predict run separates "the transport is the bottleneck" from "the
// serving stack is".
type WireFloorReport struct {
	Frames   int           `json:"frames"`
	Payload  int           `json:"payload_bytes"`
	Workers  int           `json:"workers"`
	Errors   int           `json:"errors"`
	Duration time.Duration `json:"duration"`
	FPS      float64       `json:"fps"`
	P50      time.Duration `json:"p50"`
	P99      time.Duration `json:"p99"`
}

// String renders the report for the CLI.
func (r WireFloorReport) String() string {
	return fmt.Sprintf("wire floor  %d echo frames (%d B payload, %d workers, %d errors)\nduration    %v\nthroughput  %.0f frames/s\nlatency     p50 %v  p99 %v",
		r.Frames, r.Payload, r.Workers, r.Errors,
		r.Duration.Round(time.Millisecond), r.FPS,
		r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond))
}

// WireEchoFloor measures the yalawire transport floor against a live
// wire listener: workers persistent connections exchanging frames
// round trips of TypeEcho frames carrying payloadBytes of opaque data,
// through the same closed loop a serving run uses. Its pool upgrades as
// every wire client does, so against a loopback listener on Linux this
// is the same-host socket's floor.
func WireEchoFloor(addr string, workers, frames, payloadBytes int) (WireFloorReport, error) {
	if workers <= 0 {
		workers = 8
	}
	if frames <= 0 {
		frames = 100000
	}
	payloadBytes = max(payloadBytes, 0)
	pool := wire.NewPool(addr, "", workers)
	defer pool.Close()
	payload := bytes.Repeat([]byte{0xab}, payloadBytes)

	start := time.Now()
	o := closedLoop(workers, frames, 0, func(int) (int, error) {
		return 1, pool.Do(context.Background(), wire.TypeEcho, payload, func(f wire.Frame) error {
			if f.Type != wire.TypeEchoAck {
				return fmt.Errorf("loadgen: echo answered with frame type %d", f.Type)
			}
			return nil
		})
	})
	elapsed := time.Since(start)

	rep := WireFloorReport{
		Frames:   len(o.lats) + o.errs,
		Payload:  payloadBytes,
		Workers:  workers,
		Errors:   o.errs,
		Duration: elapsed,
		FPS:      float64(len(o.lats)+o.errs) / max(elapsed.Seconds(), 1e-9),
		P50:      percentile(o.lats, 0.50),
		P99:      percentile(o.lats, 0.99),
	}
	if rep.Errors > 0 {
		return rep, fmt.Errorf("loadgen: wire floor: %d/%d frames failed (first: %w)", rep.Errors, rep.Frames, o.first)
	}
	return rep, nil
}
