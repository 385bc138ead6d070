package wire

import (
	"net"
	"os"
	"syscall"
	"testing"
)

// TestPoolUpgradeSurvivesFullBacklog: an offered socket whose listen
// backlog is full refuses the connect with EAGAIN. That connection stays
// on TCP but the name is not refused, so once the server accepts again
// the next dial upgrades.
func TestPoolUpgradeSurvivesFullBacklog(t *testing.T) {
	s := newOfferServer(t, "")
	name := testSocket()
	fd, err := syscall.Socket(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := os.NewFile(uintptr(fd), name)
	defer f.Close()
	// A backlog of 0 holds one pending connection; the next connect
	// finds it full.
	if err := syscall.Bind(fd, &syscall.SockaddrUnix{Name: name}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	lis, err := net.FileListener(f)
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	pending, err := net.Dial("unix", name)
	if err != nil {
		t.Fatal(err)
	}
	defer pending.Close()
	s.offer.Store(&name)
	p := NewPool(s.addr, "", 1)
	defer p.Close()
	if got := via(t, p); got != "tcp" {
		t.Fatalf("dial against a full backlog rode %s, want tcp", got)
	}
	if p.refused != "" {
		t.Fatalf("a full backlog refused %q", p.refused)
	}
	s.serve(lis)
	if got := via(t, p); got != "unix" {
		t.Fatalf("dial once the backlog drains rode %s, want unix", got)
	}
}
