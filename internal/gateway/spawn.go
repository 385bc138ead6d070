package gateway

import (
	"fmt"
	"net"
	"net/http"

	"repro/internal/serve"
)

// Replica is one in-process serve instance bound to a loopback
// listener — the unit `yala gateway -replicas` scales out. Each
// replica also mounts a yalawire listener, advertised via /v2/stats,
// so the gateway's health loop upgrades its upstream hops to the
// binary transport automatically.
type Replica struct {
	// URL is the replica's base URL (http://127.0.0.1:<port>).
	URL string

	svc  *serve.Service
	srv  *http.Server
	wsrv *serve.WireServer
}

// Service exposes the replica's underlying serve.Service (tests,
// direct inspection).
func (r *Replica) Service() *serve.Service { return r.svc }

// Close stops the replica: the listeners close first (in-flight
// requests fail over at the gateway), then the service drains.
func (r *Replica) Close() {
	r.srv.Close()
	if r.wsrv != nil {
		r.wsrv.Close()
	}
	r.svc.Close()
}

// WirePromote connects an in-process replica's feedback-driven model
// promotions to the gateway's fleet-wide reload fan-out: when the
// replica's drift gate promotes a shadow model, every peer replica
// reloads the (backend, nf) pair from the shared model directory and
// the gateway's edge cache sheds the retired model's responses. The
// promoting replica is excluded from the fan-out — it already swapped
// atomically.
func (g *Gateway) WirePromote(rep *Replica) {
	url := rep.URL
	rep.Service().SetPromoteHook(func(backendName, _, nfName string) {
		g.PromoteReload(backendName, nfName, url)
	})
}

// SpawnReplicas boots n in-process serve replicas on loopback
// listeners — the single-binary deployment behind `yala gateway
// -replicas N`. The replicas share one model directory, and therefore
// one set of persisted models (training persists via atomic rename, so
// concurrent on-demand training converges on identical files), but
// each keeps its own compute slots and response cache — exactly the
// per-process resources the gateway shards traffic across. On error,
// already-spawned replicas are closed before returning.
func SpawnReplicas(n int, cfg serve.ServiceConfig) ([]*Replica, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gateway: replica count %d must be positive", n)
	}
	replicas := make([]*Replica, 0, n)
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			CloseReplicas(replicas)
			return nil, fmt.Errorf("gateway: replica %d listener: %w", i, err)
		}
		svc := serve.NewService(cfg)
		handler := svc.Handler()
		rep := &Replica{
			URL: "http://" + lis.Addr().String(),
			svc: svc,
			srv: &http.Server{Handler: handler},
		}
		// The wire listener is best-effort: a replica that cannot bind a
		// second loopback port still serves HTTP, it just never advertises
		// wire_addr and the gateway stays on JSON toward it.
		if wlis, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
			rep.wsrv = svc.ServeWire(wlis, handler)
		}
		go rep.srv.Serve(lis)
		replicas = append(replicas, rep)
	}
	return replicas, nil
}

// CloseReplicas closes every replica in the slice.
func CloseReplicas(replicas []*Replica) {
	for _, rep := range replicas {
		rep.Close()
	}
}
