package gateway

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// endpoint is one attachment of a backend URL to a replica slot. The
// slot (hash identity, pending-reload queue, health flag) outlives
// attachments; the endpoint (URL, wire pool, traffic counters, latency
// histogram) is created per attachment so a slot re-attached to a new
// URL starts clean metric series instead of cross-contaminating the old
// URL's. It holds no HTTP client of its own: every HTTP exchange with
// the replica goes through the gateway's one client (roundTrip). A
// vacant slot has a nil endpoint and is skipped by routing.
type endpoint struct {
	url string

	requests atomic.Uint64
	errors   atomic.Uint64
	fanouts  atomic.Uint64

	// wire is the discovered binary-transport pool toward this
	// attachment, nil until a health probe finds a wire_addr advertised
	// in the replica's /v2/stats. A wire transport failure mid-proxy
	// clears it (dropWire) and re-arms discovery, so the gateway rides
	// HTTP until the next probe proves the wire listener back.
	wire       atomic.Pointer[wire.Pool]
	wireProbed atomic.Bool

	// upstream records proxied round-trip latency to this attachment
	// (gateway_upstream_seconds{replica=url}).
	upstream *obs.Histogram
}

// dropWire retires a failed wire pool: only the exact pool the caller
// used is cleared, so a concurrent rediscovery's fresh pool survives.
func (ep *endpoint) dropWire(wp *wire.Pool) {
	if ep.wire.CompareAndSwap(wp, nil) {
		wp.Close()
		ep.wireProbed.Store(false)
	}
}

// closeWire drops whatever pool the endpoint holds (detach, shutdown).
func (ep *endpoint) closeWire() {
	if wp := ep.wire.Swap(nil); wp != nil {
		wp.Close()
	}
}

// newEndpoint dials nothing; it just binds the trimmed URL.
func newEndpoint(url string) (*endpoint, error) {
	url = strings.TrimRight(strings.TrimSpace(url), "/")
	if url == "" {
		return nil, fmt.Errorf("gateway: empty replica URL")
	}
	return &endpoint{url: url}, nil
}

// Attach occupies a vacant slot with a live backend: probe until the
// backend answers (bounded by healthTimeout), expose its metric series,
// make it routable, and replay every reload fan-out the slot missed
// while vacant — the rejoining replica is never stale. The endpoint is
// published before the drain, so a fan-out racing the attach dials the
// replica directly instead of falling into the pending queue; fan-outs
// that landed before publication are exactly what drainPending replays.
func (g *Gateway) Attach(slot int, url string) error {
	if slot < 0 || slot >= len(g.replicas) {
		return fmt.Errorf("gateway: attach slot %d out of range [0,%d)", slot, len(g.replicas))
	}
	rep := g.replicas[slot]
	if rep.ep.Load() != nil {
		return fmt.Errorf("gateway: slot %d is already attached to %s", slot, rep.ep.Load().url)
	}
	ep, err := newEndpoint(url)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
	defer cancel()
	for {
		if _, err := g.fetch(ctx, ep, "/healthz"); err == nil {
			break
		} else if ctx.Err() != nil {
			return fmt.Errorf("gateway: attaching %s to slot %d: backend never became healthy: %w", ep.url, slot, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	g.registerEndpointObs(rep, ep)
	rep.ep.Store(ep)
	g.drainPending(rep)
	rep.healthy.Store(true)
	return nil
}

// Detach vacates a slot: the replica stops receiving new traffic
// immediately (in-flight proxies finish on the endpoint they already
// hold), and reload fan-outs from here on queue on the slot for replay
// at the next Attach. Returns the detached URL.
func (g *Gateway) Detach(slot int) (string, error) {
	if slot < 0 || slot >= len(g.replicas) {
		return "", fmt.Errorf("gateway: detach slot %d out of range [0,%d)", slot, len(g.replicas))
	}
	rep := g.replicas[slot]
	ep := rep.ep.Load()
	if ep == nil {
		return "", fmt.Errorf("gateway: slot %d is not attached", slot)
	}
	rep.healthy.Store(false)
	rep.ep.Store(nil)
	ep.closeWire()
	return ep.url, nil
}

// attachedCount returns how many slots hold a live endpoint.
func (g *Gateway) attachedCount() int {
	n := 0
	for _, rep := range g.replicas {
		if rep.ep.Load() != nil {
			n++
		}
	}
	return n
}
