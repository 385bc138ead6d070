package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
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
//
// A pool dialing a loopback address moves each new connection to the
// same-host socket the server offers in that connection's HelloAck
// (doc.go); refused is the last offered name the pool could not reach,
// which it does not try again.
type Pool struct {
	addr        string
	apiKey      string
	dialTimeout time.Duration
	idle        chan *clientConn
	nextID      atomic.Uint64
	closed      atomic.Bool

	mu      sync.Mutex
	refused string
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

// Loopback reports whether addr is a TCP address on the loopback
// interface: the only peers a server offers its same-host socket to,
// and the only servers whose offer a pool follows.
func Loopback(addr net.Addr) bool {
	a, ok := addr.(*net.TCPAddr)
	return ok && a.IP.IsLoopback()
}

// dial establishes and handshakes one connection over TCP, then moves
// it to the same-host socket a loopback server offers in that handshake,
// unless that name has failed before. The pool dials only a name the
// server offered on a connection that is still open, never one it
// remembers from an earlier one: a live server holds its name, so no
// other process can be listening there to receive the API key, while a
// name an exited server released can be bound by anyone. A failed
// upgrade leaves the connection on TCP. The name is refused only when the
// socket itself failed: not when ctx ended, nor when its listen backlog
// was momentarily full (EAGAIN).
func (p *Pool) dial(ctx context.Context) (*clientConn, error) {
	cc, offer, err := p.handshake(ctx, "tcp", p.addr)
	if err != nil || offer == "" || !Loopback(cc.c.RemoteAddr()) {
		return cc, err
	}
	p.mu.Lock()
	refused := offer == p.refused
	p.mu.Unlock()
	if refused {
		return cc, nil
	}
	uc, _, err := p.handshake(ctx, "unix", offer)
	if err != nil {
		if ctx.Err() == nil && !errors.Is(err, syscall.EAGAIN) {
			p.mu.Lock()
			p.refused = offer
			p.mu.Unlock()
		}
		return cc, nil
	}
	cc.close()
	return uc, nil
}

// handshake dials addr on network and opens the connection: Hello
// carrying the API key, expect HelloAck. It also returns the same-host
// socket the ack offers: "" for none, or for an offer that does not
// decode, which leaves the connection on the transport it dialed.
func (p *Pool) handshake(ctx context.Context, network, addr string) (*clientConn, string, error) {
	d := net.Dialer{Timeout: p.dialTimeout}
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, "", fmt.Errorf("%w: dial %s: %w", ErrTransport, addr, err)
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
		return nil, "", err
	}
	f, err := cc.fr.ReadFrame()
	if err != nil {
		cc.close()
		return nil, "", fmt.Errorf("%w: hello: %v", ErrTransport, err)
	}
	if f.Type != TypeHelloAck {
		cc.close()
		return nil, "", fmt.Errorf("%w: hello answered with frame type %d", ErrTransport, f.Type)
	}
	offer, _ := DecodeHelloAck(f.Payload)
	c.SetDeadline(time.Time{})
	return cc, offer, nil
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
