package wire

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// offerServer is a wire listener on loopback TCP that offers, in every
// TCP HelloAck, whatever name offer holds ("" for none). Each echo is
// answered with the network the connection arrived on, so a test sees
// which transport a pool exchange rode. onHello, when set, runs as a TCP
// Hello arrives, before its ack is written.
type offerServer struct {
	t       *testing.T
	addr    string
	offer   atomic.Pointer[string]
	onHello atomic.Pointer[func()]
}

func newOfferServer(t *testing.T, offer string) *offerServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &offerServer{t: t, addr: lis.Addr().String()}
	s.offer.Store(&offer)
	s.serve(lis)
	return s
}

// testSocket returns an abstract socket name no other test uses.
func testSocket() string {
	return fmt.Sprintf("@yalawire-test-%d-%d", os.Getpid(), socketSeq.Add(1))
}

var socketSeq atomic.Int64

// listenUnix opens a same-host socket under a fresh abstract name served
// like the TCP listener, and offers it. Closing the returned listener is
// what a server exit does to it.
func (s *offerServer) listenUnix() (net.Listener, string) {
	s.t.Helper()
	if runtime.GOOS != "linux" {
		s.t.Skip("abstract Unix sockets are Linux-only")
	}
	name := testSocket()
	lis, err := net.Listen("unix", name)
	if err != nil {
		s.t.Fatal(err)
	}
	s.serve(lis)
	s.offer.Store(&name)
	return lis, name
}

func (s *offerServer) serve(lis net.Listener) {
	s.t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go s.conn(c)
		}
	}()
}

func (s *offerServer) conn(c net.Conn) {
	defer c.Close()
	fr := NewFramer(c)
	f, err := fr.ReadFrame()
	if err != nil || f.Type != TypeHello {
		return
	}
	var offer string
	if Loopback(c.RemoteAddr()) {
		offer = *s.offer.Load()
		if h := s.onHello.Load(); h != nil {
			(*h)()
		}
	}
	if fr.WriteFrame(TypeHelloAck, f.ID, AppendHelloAck(nil, offer)) != nil {
		return
	}
	network := []byte(c.LocalAddr().Network())
	for {
		f, err := fr.ReadFrame()
		if err != nil || fr.WriteFrame(TypeEchoAck, f.ID, network) != nil {
			return
		}
	}
}

// via dials one fresh pool connection and returns the network it rides.
func via(t *testing.T, p *Pool) string {
	t.Helper()
	cc, err := p.dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.close()
	return cc.c.RemoteAddr().Network()
}

// echoVia runs one exchange through the pool and returns the network
// the server saw it on.
func echoVia(t *testing.T, p *Pool) string {
	t.Helper()
	var network string
	err := p.Do(context.Background(), TypeEcho, nil, func(f Frame) error {
		network = string(f.Payload)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return network
}

// TestPoolStaysOnTCPWithoutOffer: a server whose HelloAck is empty — any
// server older than the offer — keeps the pool on TCP.
func TestPoolStaysOnTCPWithoutOffer(t *testing.T) {
	s := newOfferServer(t, "")
	p := NewPool(s.addr, "key", 2)
	defer p.Close()
	for i := 0; i < 3; i++ {
		if got := echoVia(t, p); got != "tcp" {
			t.Fatalf("exchange %d rode %s, want tcp", i, got)
		}
	}
	if p.refused != "" {
		t.Fatalf("pool refused %q with nothing offered", p.refused)
	}
}

// TestPoolUpgradesToOfferedSocket: a loopback server's offer moves each
// new pool connection to the socket, and only while the server offers
// it: the pool never dials a name on its own.
func TestPoolUpgradesToOfferedSocket(t *testing.T) {
	s := newOfferServer(t, "")
	s.listenUnix()
	p := NewPool(s.addr, "key", 2)
	defer p.Close()
	if got := echoVia(t, p); got != "unix" {
		t.Fatalf("first exchange rode %s, want unix", got)
	}
	if got := via(t, p); got != "unix" {
		t.Fatalf("a second dial rode %s, want unix", got)
	}
	s.offer.Store(new(string))
	if got := via(t, p); got != "tcp" {
		t.Fatalf("a dial the server offered nothing rode %s, want tcp", got)
	}
}

// TestPoolRefusesUnreachableOffer: an offered socket nobody listens on,
// or one that does not complete the handshake, leaves the pool on TCP,
// and later dials do not try that name again.
func TestPoolRefusesUnreachableOffer(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("abstract Unix sockets are Linux-only")
	}
	t.Run("nothing listens", func(t *testing.T) {
		s := newOfferServer(t, testSocket())
		p := NewPool(s.addr, "", 1)
		defer p.Close()
		for i := 0; i < 3; i++ {
			if got := via(t, p); got != "tcp" {
				t.Fatalf("dial %d rode %s, want tcp", i, got)
			}
		}
		if p.refused != *s.offer.Load() {
			t.Fatalf("pool refused %q, want the offer %q", p.refused, *s.offer.Load())
		}
	})
	t.Run("handshake fails", func(t *testing.T) {
		s := newOfferServer(t, "")
		name := testSocket()
		lis, err := net.Listen("unix", name)
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		var accepted atomic.Int64
		go func() {
			for {
				c, err := lis.Accept()
				if err != nil {
					return
				}
				accepted.Add(1)
				c.Close() // hangs up on the Hello
			}
		}()
		s.offer.Store(&name)
		p := NewPool(s.addr, "", 1)
		defer p.Close()
		for i := 0; i < 4; i++ {
			if got := via(t, p); got != "tcp" {
				t.Fatalf("dial %d rode %s, want tcp", i, got)
			}
		}
		if n := accepted.Load(); n != 1 {
			t.Fatalf("the refused socket was dialed %d times over 4 connections, want 1", n)
		}
	})
}

// TestPoolFollowsServerRestart: a server that restarts offers a new
// name and the pool follows it. The released old name, bound by another
// process, is never dialed, so the API key and the traffic never reach
// it; nor is it dialed once the server offers no name at all.
func TestPoolFollowsServerRestart(t *testing.T) {
	s := newOfferServer(t, "")
	old, first := s.listenUnix()
	p := NewPool(s.addr, "key", 1)
	defer p.Close()
	if got := via(t, p); got != "unix" {
		t.Fatalf("first dial rode %s, want unix", got)
	}
	old.Close()
	impostor, err := net.Listen("unix", first)
	if err != nil {
		t.Fatal(err)
	}
	defer impostor.Close()
	var taken atomic.Int64
	go func() {
		for {
			c, err := impostor.Accept()
			if err != nil {
				return
			}
			taken.Add(1)
			c.Close()
		}
	}()
	s.listenUnix()
	if got := via(t, p); got != "unix" {
		t.Fatalf("dial after the restart rode %s, want unix", got)
	}
	s.offer.Store(new(string))
	if got := via(t, p); got != "tcp" {
		t.Fatalf("dial with nothing offered rode %s, want tcp", got)
	}
	if n := taken.Load(); n != 0 {
		t.Fatalf("the released name's new listener was dialed %d times", n)
	}
	if p.refused != "" {
		t.Fatalf("pool refused %q; no offered socket failed", p.refused)
	}
}

// TestPoolUpgradeSurvivesCanceledContext: a caller's ctx that ends
// between the TCP handshake and the socket's leaves that connection on
// TCP but the name unrefused, so a later dial still upgrades.
func TestPoolUpgradeSurvivesCanceledContext(t *testing.T) {
	s := newOfferServer(t, "")
	s.listenUnix()
	p := NewPool(s.addr, "", 1)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancelOnHello := func() { cancel() }
	s.onHello.Store(&cancelOnHello)
	cc, err := p.dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := cc.c.RemoteAddr().Network()
	cc.close()
	if got != "tcp" {
		t.Fatalf("dial whose ctx ended before the upgrade rode %s, want tcp", got)
	}
	s.onHello.Store(nil)
	if p.refused != "" {
		t.Fatalf("a canceled ctx refused %q", p.refused)
	}
	if got := via(t, p); got != "unix" {
		t.Fatalf("dial after the canceled one rode %s, want unix", got)
	}
}

// TestPoolUpgradeConcurrent: many exchanges racing through one pool's
// first dials all complete, and all end up on the socket.
func TestPoolUpgradeConcurrent(t *testing.T) {
	s := newOfferServer(t, "")
	s.listenUnix()
	p := NewPool(s.addr, "", 4)
	defer p.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- p.Do(context.Background(), TypeEcho, nil, func(f Frame) error {
				if string(f.Payload) != "unix" {
					return fmt.Errorf("exchange rode %s", f.Payload)
				}
				return nil
			})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoopback(t *testing.T) {
	for _, c := range []struct {
		addr net.Addr
		want bool
	}{
		{&net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}, true},
		{&net.TCPAddr{IP: net.IPv4(127, 3, 2, 1)}, true},
		{&net.TCPAddr{IP: net.IPv6loopback}, true},
		{&net.TCPAddr{IP: net.IPv4(10, 0, 0, 7)}, false},
		{&net.TCPAddr{IP: net.ParseIP("2001:db8::1")}, false},
		{&net.TCPAddr{}, false},
		{&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}, false},
		{&net.UnixAddr{Name: "@yalawire-x", Net: "unix"}, false},
		{nil, false},
	} {
		if got := Loopback(c.addr); got != c.want {
			t.Errorf("Loopback(%v) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestHelloAckOffer(t *testing.T) {
	for _, name := range []string{"", "@yalawire-0123456789abcdef", "@" + string(make([]byte, maxLocalName-1))} {
		got, err := DecodeHelloAck(AppendHelloAck(nil, name))
		if err != nil || got != name {
			t.Errorf("HelloAck offering %q decoded to %q, %v", name, got, err)
		}
	}
	for _, bad := range [][]byte{
		AppendHelloAck(nil, "/run/yala.sock"),                       // a socket file
		AppendHelloAck(nil, "@"+string(make([]byte, maxLocalName))), // too long for an address
		{0x80},           // truncated uvarint
		{0x40, '@', 'x'}, // length past the payload
		append(AppendHelloAck(nil, "@yalawire-0123456789abcdef"), 0x00), // trailing byte
	} {
		if got, err := DecodeHelloAck(bad); err == nil {
			t.Errorf("HelloAck payload %x decoded to %q, want an error", bad, got)
		}
	}
}
