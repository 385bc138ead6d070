package wire

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// clientConn is one established, handshaken connection. deadline
// records whether the last exchange left an I/O deadline set on it.
type clientConn struct {
	c        net.Conn
	fr       *Framer
	deadline bool
}

func (cc *clientConn) close() { cc.c.Close() }

// Pool is a small fixed-capacity pool of persistent client
// connections to one wire listener. Connections are checked out
// exclusively for one request/response exchange (requests on a
// connection are strictly serial, so responses never interleave),
// dialed lazily, handshaken once, and discarded on any transport
// error — the next request dials fresh.
type Pool struct {
	addr        string
	apiKey      string
	dialTimeout time.Duration
	idle        chan *clientConn
	nextID      atomic.Uint64
	closed      atomic.Bool
}

// NewPool builds a pool toward addr (host:port). maxIdle bounds the
// retained idle connections (≤0 means 4); more than maxIdle concurrent
// exchanges still work — the extras dial their own connection and the
// surplus is closed on release.
func NewPool(addr, apiKey string, maxIdle int) *Pool {
	if maxIdle <= 0 {
		maxIdle = 4
	}
	return &Pool{
		addr:        addr,
		apiKey:      apiKey,
		dialTimeout: 2 * time.Second,
		idle:        make(chan *clientConn, maxIdle),
	}
}

// Close drops the idle connections. In-flight exchanges finish on
// their own connections and are discarded on release.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	for {
		select {
		case cc := <-p.idle:
			cc.close()
		default:
			return
		}
	}
}

// dial establishes and handshakes one connection: Hello carrying the
// API key, expect HelloAck.
func (p *Pool) dial(ctx context.Context) (*clientConn, error) {
	d := net.Dialer{Timeout: p.dialTimeout}
	c, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrTransport, p.addr, err)
	}
	cc := &clientConn{c: c, fr: NewFramer(c)}
	if dl, ok := ctx.Deadline(); ok {
		c.SetDeadline(dl)
	} else {
		// I/O deadline on a live socket — inherently wall-clock; the
		// handshake timeout never feeds simulated or replayed state.
		//yalalint:ignore wallclock socket handshake deadline, real I/O not simulation state
		c.SetDeadline(time.Now().Add(p.dialTimeout))
	}
	buf := AppendHello(GetBuf(), p.apiKey)
	err = cc.fr.WriteFrame(TypeHello, 0, buf)
	PutBuf(buf)
	if err != nil {
		cc.close()
		return nil, err
	}
	f, err := cc.fr.ReadFrame()
	if err != nil {
		cc.close()
		return nil, fmt.Errorf("%w: hello: %v", ErrTransport, err)
	}
	if f.Type != TypeHelloAck {
		cc.close()
		return nil, fmt.Errorf("%w: hello answered with frame type %d", ErrTransport, f.Type)
	}
	c.SetDeadline(time.Time{})
	return cc, nil
}

// Do performs one request/response exchange: write a frame of the
// given type, read the answer, and hand it to handle before the
// connection is released (the frame's payload is only valid inside
// handle). Transport-level failures are wrapped with ErrTransport;
// handle's error is returned as-is. The connection deadline follows
// ctx's deadline when set.
func (p *Pool) Do(ctx context.Context, typ byte, payload []byte, handle func(Frame) error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrTransport, err)
	}
	var cc *clientConn
	select {
	case cc = <-p.idle:
	default:
		var err error
		if cc, err = p.dial(ctx); err != nil {
			return err
		}
	}
	// A connection without a deadline needs none cleared: callers with
	// no timeout skip the poller's timer on every exchange.
	if dl, ok := ctx.Deadline(); ok || cc.deadline {
		cc.c.SetDeadline(dl)
		cc.deadline = ok
	}
	id := p.nextID.Add(1)
	if err := cc.fr.WriteFrame(typ, id, payload); err != nil {
		cc.close()
		return err
	}
	f, err := cc.fr.ReadFrame()
	if err != nil {
		cc.close()
		return fmt.Errorf("%w: %v", ErrTransport, err)
	}
	if f.ID != id {
		cc.close()
		return fmt.Errorf("%w: response id %d for request %d", ErrTransport, f.ID, id)
	}
	herr := handle(f)
	if p.closed.Load() {
		cc.close()
		return herr
	}
	select {
	case p.idle <- cc:
	default:
		cc.close()
	}
	return herr
}
