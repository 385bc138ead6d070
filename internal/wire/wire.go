// Package wire implements "yalawire", the length-prefixed binary
// protocol behind the predict hot path. See doc.go for the protocol
// overview and frame layout.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Version is the protocol version carried in every frame header. A
// server answers a frame with an unknown version with an Error frame
// and closes the connection — the client falls back to HTTP, so /v2
// JSON stays the compatible front door across version skew.
const Version = 1

// MaxPayload bounds a single frame's payload, mirroring the HTTP
// layer's request-body cap (api.MaxBodyBytes) and the response-read
// caps: no peer can make the other side buffer more than this.
const MaxPayload = 10 << 20

// maxKeptBuf is the largest buffer kept for reuse once its frame is
// done, both by a Framer between reads and by the encode-buffer pool:
// one large frame must not pin megabytes for a connection's lifetime.
const maxKeptBuf = 1 << 20

// payloadStep is the largest payload a Framer allocates up front. A
// longer payload grows its buffer as its bytes arrive, from this step
// on, doubling, so a header declaring more than the peer sends cannot
// make the reader allocate the declared length.
const payloadStep = 64 << 10

// headerSize is the fixed frame prefix: magic(2) version(1) type(1)
// length(4, big-endian) request-id(8, big-endian).
const headerSize = 16

// magic0, magic1 open every frame ("YW"); anything else on the socket
// is not yalawire and the connection is torn down immediately.
const (
	magic0 = 'Y'
	magic1 = 'W'
)

// Frame types. Requests and responses pair up: a peer answers TypeX
// with TypeXAck/TypeXResp carrying the same request id, or with
// TypeError.
const (
	// TypeHello opens a connection: payload is the client's API key
	// (may be empty). The server answers TypeHelloAck. Any other first
	// frame is a protocol error.
	TypeHello byte = 1
	// TypeHelloAck acknowledges TypeHello; empty payload.
	TypeHelloAck byte = 2
	// TypeEcho asks the peer to reflect the payload back verbatim as
	// TypeEchoAck. It bypasses serving entirely — it exists to measure
	// the transport floor (framing + syscalls, zero serving cost).
	TypeEcho    byte = 3
	TypeEchoAck byte = 4
	// TypePredict carries a binary PredictRequest; answered with
	// TypePredictResp (PredictResponse) or TypeError.
	TypePredict     byte = 5
	TypePredictResp byte = 6
	// TypeBatch carries a BatchRequest; answered with TypeBatchResp.
	TypeBatch     byte = 7
	TypeBatchResp byte = 8
	// TypeCall tunnels a generic HTTP-shaped request (method, URI,
	// body) for verbs without a typed frame — the gateway uses it to
	// reach wire upstreams without re-encoding JSON bodies. Answered
	// with TypeCallResp carrying the status, selected headers, and raw
	// body bytes.
	TypeCall     byte = 9
	TypeCallResp byte = 10
	// TypeError reports a request failure: an ErrorFrame payload with
	// the same status/code/message the /v2 JSON envelope would carry.
	TypeError byte = 15
)

// Framing errors. ErrTransport additionally tags connection-level
// failures (dial, read, write, framing) so callers can distinguish
// "the transport broke — fall back" from "the server answered with an
// application error".
var (
	ErrTransport  = errors.New("wire: transport failure")
	errMagic      = errors.New("wire: bad frame magic")
	errVersion    = errors.New("wire: unsupported protocol version")
	errOversized  = fmt.Errorf("wire: frame exceeds %d-byte payload cap", MaxPayload)
	errTruncated  = errors.New("wire: truncated payload")
	errBadPayload = errors.New("wire: malformed payload")
)

// Frame is one decoded frame. Payload aliases the Framer's internal
// read buffer: it is valid only until the next ReadFrame on the same
// Framer — decode or copy before reading again.
type Frame struct {
	Type    byte
	ID      uint64
	Payload []byte
}

// Framer reads and writes frames over one stream. It is not
// goroutine-safe; a connection is driven by one goroutine at a time
// (the server's per-conn loop, or a pooled client conn checked out
// exclusively).
type Framer struct {
	br   *bufio.Reader
	bw   *bufio.Writer
	rbuf []byte // payload buffer, reused across ReadFrame calls
	hdr  [headerSize]byte
}

// NewFramer wraps a stream (normally a net.Conn) for framed I/O.
func NewFramer(rw io.ReadWriter) *Framer {
	return &Framer{br: bufio.NewReaderSize(rw, 32<<10), bw: bufio.NewWriterSize(rw, 32<<10)}
}

// WriteFrame writes and flushes one frame. The payload is not
// retained.
func (f *Framer) WriteFrame(typ byte, id uint64, payload []byte) error {
	if len(payload) > MaxPayload {
		return errOversized
	}
	f.hdr[0], f.hdr[1], f.hdr[2], f.hdr[3] = magic0, magic1, Version, typ
	binary.BigEndian.PutUint32(f.hdr[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint64(f.hdr[8:16], id)
	if _, err := f.bw.Write(f.hdr[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrTransport, err)
	}
	if _, err := f.bw.Write(payload); err != nil {
		return fmt.Errorf("%w: %v", ErrTransport, err)
	}
	if err := f.bw.Flush(); err != nil {
		return fmt.Errorf("%w: %v", ErrTransport, err)
	}
	return nil
}

// ReadFrame reads the next frame. The returned payload is only valid
// until the next ReadFrame. io.EOF is returned bare on a clean
// between-frames close so server loops can distinguish hangup from
// protocol damage.
func (f *Framer) ReadFrame() (Frame, error) {
	if cap(f.rbuf) > maxKeptBuf {
		f.rbuf = nil // the previous frame is done; do not idle on its buffer
	}
	if _, err := io.ReadFull(f.br, f.hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: %v", ErrTransport, err)
	}
	if f.hdr[0] != magic0 || f.hdr[1] != magic1 {
		return Frame{}, fmt.Errorf("%w: %v", ErrTransport, errMagic)
	}
	if f.hdr[2] != Version {
		return Frame{}, fmt.Errorf("%w: %v (got %d, want %d)", ErrTransport, errVersion, f.hdr[2], Version)
	}
	n := binary.BigEndian.Uint32(f.hdr[4:8])
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("%w: %v", ErrTransport, errOversized)
	}
	if err := f.readPayload(int(n)); err != nil {
		return Frame{}, fmt.Errorf("%w: %v", ErrTransport, errTruncated)
	}
	return Frame{Type: f.hdr[3], ID: binary.BigEndian.Uint64(f.hdr[8:16]), Payload: f.rbuf}, nil
}

// readPayload reads an n-byte payload into f.rbuf. A payload that fits
// the buffer, or is at most payloadStep long, is read in one go; a
// longer one is read in steps that grow the buffer only as far as the
// bytes that have arrived justify.
func (f *Framer) readPayload(n int) error {
	if n > cap(f.rbuf) && n <= payloadStep {
		f.rbuf = make([]byte, n)
	}
	if n <= cap(f.rbuf) {
		f.rbuf = f.rbuf[:n]
		_, err := io.ReadFull(f.br, f.rbuf)
		return err
	}
	buf := f.rbuf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), payloadStep)))
		}
		m, err := io.ReadFull(f.br, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			return err
		}
	}
	f.rbuf = buf
	return nil
}

// bufPool recycles encode buffers so the steady-state hot path
// allocates nothing for framing: GetBuf for an empty append target,
// PutBuf when the frame has been written. A slice put into a sync.Pool
// by value is boxed — an allocation per Put — so buffers travel as
// *[]byte and hdrPool recycles the headers while their buffer is out.
var (
	bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}
	hdrPool = sync.Pool{New: func() any { return new([]byte) }}
)

// GetBuf returns an empty pooled append buffer.
func GetBuf() []byte {
	h := bufPool.Get().(*[]byte)
	b := (*h)[:0]
	*h = nil
	hdrPool.Put(h)
	return b
}

// PutBuf returns a buffer obtained from GetBuf (possibly grown) to the
// pool. Oversized buffers are dropped so one huge batch doesn't pin
// megabytes in the pool forever.
func PutBuf(b []byte) {
	if cap(b) > maxKeptBuf {
		return
	}
	h := hdrPool.Get().(*[]byte)
	*h = b[:0]
	bufPool.Put(h)
}
