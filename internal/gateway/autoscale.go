package gateway

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// AutoscaleConfig is what a deployment sets on the elastic replica
// pool behind `yala gateway -min/-max`.
type AutoscaleConfig struct {
	// Min and Max bound the pool. Min replicas boot immediately; the
	// ring is sized for Max so scale-ups never reshuffle key ranges.
	Min, Max int
	// P99SLO is the latency objective; the windowed p99 of the last tick
	// over it also saturates the pressure score (default 250ms) — the
	// combined-signal stance: queue depth alone misses a fleet that is
	// slow but not backlogged.
	P99SLO time.Duration
}

// The pool's fixed policy. Each is the one value every deployment runs.
const (
	// autoscaleInterval is the evaluation tick.
	autoscaleInterval = time.Second
	// targetInflight is the per-replica in-flight request count the
	// pressure score normalizes against: at score 1.0 the fleet is
	// running exactly at target.
	targetInflight = 8
	// upAfter is how many consecutive busy ticks (score ≥ 1) trigger a
	// scale-up — hysteresis against one bursty tick.
	upAfter = 3
	// downAfter is how many consecutive idle ticks (score ≤ idleBelow)
	// trigger a scale-down: draining is cheap to defer and expensive to
	// flap.
	downAfter = 10
	// idleBelow is the pressure score under which a tick counts as idle.
	idleBelow = 0.25
	// drainGrace is how long a detached replica keeps running before its
	// process closes, letting in-flight requests finish.
	drainGrace = time.Second
)

func (c *AutoscaleConfig) fillDefaults() error {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max < c.Min {
		return fmt.Errorf("gateway: autoscale max %d < min %d", c.Max, c.Min)
	}
	if c.P99SLO <= 0 {
		c.P99SLO = 250 * time.Millisecond
	}
	return nil
}

// Autoscaler grows and shrinks an in-process replica pool behind a
// gateway: sustained pressure (in-flight requests over target, or the
// last tick's p99 over SLO) spawns a replica into a vacant ring slot;
// sustained idleness detaches the highest slot and closes its replica
// after a drain grace. Detached slots queue reload fan-outs, so a slot
// re-attached later replays what it missed and never serves stale.
type Autoscaler struct {
	g      *Gateway
	svcCfg serve.ServiceConfig
	cfg    AutoscaleConfig

	mu        sync.Mutex
	pool      map[int]*Replica // slot → live in-process replica
	upTicks   int
	downTicks int
	lastCum   []uint64 // reqSeconds snapshot at the previous tick
	lastShed  uint64   // the gate's overload sheds at the previous tick

	scaleUps   atomic.Uint64
	scaleDowns atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewElastic boots an elastic serving fleet: cfg.Min in-process
// replicas (SpawnReplicas over svcCfg), a gateway whose ring is sized
// for cfg.Max, and the autoscaler loop that moves the pool between the
// two bounds. gwCfg.Backends is derived and must be empty. Close the
// Autoscaler first, then the Gateway.
func NewElastic(gwCfg Config, svcCfg serve.ServiceConfig, asCfg AutoscaleConfig) (*Gateway, *Autoscaler, error) {
	if err := asCfg.fillDefaults(); err != nil {
		return nil, nil, err
	}
	if len(gwCfg.Backends) != 0 {
		return nil, nil, fmt.Errorf("gateway: NewElastic derives Backends; set Min/Max instead")
	}
	replicas, err := SpawnReplicas(asCfg.Min, svcCfg)
	if err != nil {
		return nil, nil, err
	}
	for _, rep := range replicas {
		gwCfg.Backends = append(gwCfg.Backends, rep.URL)
	}
	g, err := newGateway(gwCfg, asCfg.Max)
	if err != nil {
		CloseReplicas(replicas)
		return nil, nil, err
	}
	as := &Autoscaler{
		g:      g,
		svcCfg: svcCfg,
		cfg:    asCfg,
		pool:   map[int]*Replica{},
		stop:   make(chan struct{}),
	}
	for i, rep := range replicas {
		as.pool[i] = rep
		g.WirePromote(rep)
	}
	if gwCfg.Gate != nil {
		// Re-wire the gate's queue signal to the autoscaler's own
		// target, so shedding and scaling read the same pressure.
		gwCfg.Gate.SetQueueFunc(as.pressureFromInflight)
	}
	g.obs.GaugeFunc("gateway_autoscale_pool", func() float64 { return float64(as.Active()) })
	g.obs.CounterFunc("gateway_autoscale_up_total", as.scaleUps.Load)
	g.obs.CounterFunc("gateway_autoscale_down_total", as.scaleDowns.Load)
	as.wg.Add(1)
	go as.loop()
	return g, as, nil
}

// Close stops the autoscaler loop and every replica it owns.
func (as *Autoscaler) Close() {
	as.stopOnce.Do(func() { close(as.stop) })
	as.wg.Wait()
	as.mu.Lock()
	defer as.mu.Unlock()
	for slot, rep := range as.pool {
		rep.Close()
		delete(as.pool, slot)
	}
}

// Active returns the current pool size.
func (as *Autoscaler) Active() int {
	as.mu.Lock()
	defer as.mu.Unlock()
	return len(as.pool)
}

func (as *Autoscaler) loop() {
	defer as.wg.Done()
	ticker := time.NewTicker(autoscaleInterval)
	defer ticker.Stop()
	for {
		select {
		case <-as.stop:
			return
		case <-ticker.C:
			as.tick()
		}
	}
}

// pressureFromInflight is the queue-occupancy signal: gateway in-flight
// requests against the pool's aggregate target.
func (as *Autoscaler) pressureFromInflight() float64 {
	active := as.Active()
	if active == 0 {
		return 1
	}
	return float64(as.g.inflight.Load()) / float64(active*targetInflight)
}

// tick evaluates one interval and applies at most one scaling action.
func (as *Autoscaler) tick() {
	score := as.evaluate()
	as.mu.Lock()
	active := len(as.pool)
	var action func()
	switch {
	case score >= 1:
		as.downTicks = 0
		as.upTicks++
		if as.upTicks >= upAfter && active < as.cfg.Max {
			as.upTicks = 0
			action = as.scaleUpLocked()
		}
	case score <= idleBelow:
		as.upTicks = 0
		as.downTicks++
		if as.downTicks >= downAfter && active > as.cfg.Min {
			as.downTicks = 0
			action = as.scaleDownLocked()
		}
	default:
		as.upTicks, as.downTicks = 0, 0
	}
	as.mu.Unlock()
	if action != nil {
		action()
	}
}

// evaluate computes the pressure score for the tick that just ended:
// the maximum of in-flight occupancy and the tick's windowed p99 over
// SLO, and at least 1 when the tenant gate shed any request for
// overload. Windowing subtracts the previous reqSeconds snapshot, so an
// old latency spike cannot hold the score up forever.
//
// The gate reads the same in-flight occupancy but refuses work below
// the 1.0 a busy tick needs (0.75 for bulk, 0.95 for interactive), and
// its fast 429s pull the windowed p99 down, so without the shed signal
// a gated pool sheds load instead of growing. Rate-limit sheds do not
// count: a tenant over its own quota is not a fleet short of replicas.
func (as *Autoscaler) evaluate() float64 {
	uppers, cum := as.g.reqSeconds.CumulativeBuckets()
	var shed uint64
	if gate := as.g.cfg.Gate; gate != nil {
		for _, snap := range gate.Snapshots() {
			shed += snap.Overloaded
		}
	}
	as.mu.Lock()
	shedding := shed > as.lastShed
	as.lastShed = shed
	var delta []uint64
	if len(as.lastCum) == len(cum) {
		delta = make([]uint64, len(cum))
		for i := range cum {
			delta[i] = cum[i] - as.lastCum[i]
		}
	} else {
		delta = cum
	}
	as.lastCum = cum
	as.mu.Unlock()

	score := as.pressureFromInflight()
	if shedding {
		score = max(score, 1)
	}
	if total := delta[len(delta)-1]; total >= 4 {
		// Too few samples and the p99 is one request's noise.
		p99 := obs.BucketQuantile(uppers, delta, 0.99)
		if s := p99 / as.cfg.P99SLO.Seconds(); s > score {
			score = s
		}
	}
	return score
}

// scaleUpLocked (as.mu held) picks the first vacant slot and returns
// the action — spawn, attach, adopt — to run unlocked: attaching
// probes and drains over the network and must not block Active().
func (as *Autoscaler) scaleUpLocked() func() {
	slot := -1
	for s := 0; s < as.cfg.Max; s++ {
		if _, occupied := as.pool[s]; !occupied {
			slot = s
			break
		}
	}
	if slot < 0 {
		return nil
	}
	// Reserve the slot so a concurrent evaluation cannot double-fill it.
	as.pool[slot] = nil
	return func() {
		reps, err := SpawnReplicas(1, as.svcCfg)
		if err == nil {
			as.g.WirePromote(reps[0])
			err = as.g.Attach(slot, reps[0].URL)
			if err != nil {
				CloseReplicas(reps)
			}
		}
		as.mu.Lock()
		if err != nil {
			delete(as.pool, slot)
			as.mu.Unlock()
			log.Printf("gateway: autoscale up failed: %v", err)
			return
		}
		as.pool[slot] = reps[0]
		as.mu.Unlock()
		as.scaleUps.Add(1)
		log.Printf("gateway: autoscale up: slot %d -> %s (pool %d)", slot, reps[0].URL, as.Active())
	}
}

// scaleDownLocked (as.mu held) removes the highest occupied slot from
// the pool and returns the action that detaches it and closes the
// replica after the drain grace.
func (as *Autoscaler) scaleDownLocked() func() {
	slot := -1
	for s := range as.pool {
		if s > slot && as.pool[s] != nil {
			slot = s
		}
	}
	if slot < 0 {
		return nil
	}
	rep := as.pool[slot]
	delete(as.pool, slot)
	return func() {
		if _, err := as.g.Detach(slot); err != nil {
			log.Printf("gateway: autoscale down: detach slot %d: %v", slot, err)
		}
		as.scaleDowns.Add(1)
		log.Printf("gateway: autoscale down: slot %d (pool %d)", slot, as.Active())
		// New traffic stopped at Detach; give in-flight proxies the
		// grace to finish before the process goes away.
		as.wg.Add(1)
		go func() {
			defer as.wg.Done()
			select {
			case <-time.After(drainGrace):
			case <-as.stop:
			}
			rep.Close()
		}()
	}
}
