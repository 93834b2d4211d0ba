package zmap

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"followscent/internal/netbatch"
)

// Transport carries raw IPv6+ICMPv6 packets between the prober and a
// network (simulated or real).
type Transport interface {
	// Send transmits one probe packet.
	Send(pkt []byte) error
	// Recv copies the next inbound packet into buf and returns its
	// length. It blocks until a packet arrives or the transport is
	// closed, returning io.EOF once closed and drained.
	Recv(buf []byte) (int, error)
	// Close stops the transport; pending Recv calls drain buffered
	// packets and then fail with io.EOF.
	Close() error
}

// Responder answers probe packets — satisfied by *simnet.World.
type Responder interface {
	HandlePacket(req []byte, buf []byte) ([]byte, bool)
}

// Exchanger is an optional Transport extension for in-process
// transports that produce at most one response synchronously per probe.
// The scan engine collapses Send+Recv into one Exchange call on such
// transports: no response queue, no receiver goroutine, no buffer
// recycling — the contention-free simulator hot path.
type Exchanger interface {
	// Exchange answers pkt, appending the response to buf, and reports
	// whether a response was produced. The returned slice may use buf's
	// backing array; the caller owns it until the next call.
	Exchange(pkt, buf []byte) ([]byte, bool)
}

// BatchTransport is an optional Transport extension for transports that
// can move several packets per operation (vectored I/O — sendmmsg and
// recvmmsg on the UDP wire path). The engine detects it the way it
// detects Exchanger, and uses it when Config.Batch > 1.
//
// Semantics are exactly those of the equivalent single-packet calls:
// SendBatch(pkts) is indistinguishable from len(pkts) Sends in order,
// and each packet RecvBatch delivers is one Recv's worth. Only the
// syscall count changes, never what is on the wire.
type BatchTransport interface {
	Transport
	// SendBatch transmits pkts in order and returns how many were sent.
	// err == nil implies every packet went out; on error the first n
	// were transmitted and the caller may retry pkts[n:].
	SendBatch(pkts [][]byte) (int, error)
	// RecvBatch blocks until at least one inbound packet is available,
	// then fills up to min(len(bufs), len(sizes)) of them, recording
	// each packet's length in sizes[i]. It returns the number of
	// packets delivered; n > 0 implies err == nil. Like Recv it returns
	// io.EOF once the transport is closed and drained.
	RecvBatch(bufs [][]byte, sizes []int) (int, error)
}

// Loopback is the in-process transport: Send answers synchronously
// through a Responder and queues the reply for Recv. It is the
// laptop-scale path used by tests, examples and the figure harness.
type Loopback struct {
	responder Responder

	mu     sync.Mutex
	closed bool
	ch     chan []byte
	// free recycles response buffers between Recv (producer of free
	// buffers) and Send (consumer); both ends live in this type, so
	// ownership is sound: a buffer handed to ch is not touched by Send
	// again until Recv returns it.
	free sync.Pool
}

// NewLoopback returns a loopback transport with the given queue depth.
func NewLoopback(r Responder, depth int) *Loopback {
	if depth <= 0 {
		depth = 4096
	}
	l := &Loopback{responder: r, ch: make(chan []byte, depth)}
	l.free.New = func() any { b := make([]byte, 0, 2048); return &b }
	return l
}

// Send implements Transport. If the response queue is full, Send blocks
// until the receiver catches up: the loopback favours deterministic
// completeness over realism (packet loss is the simulator's job, where it
// is seeded and reproducible). Send must not be called concurrently with
// or after Close — the Scan engine guarantees that ordering.
func (l *Loopback) Send(pkt []byte) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("zmap: loopback closed")
	}
	l.mu.Unlock()

	bufp := l.free.Get().(*[]byte)
	resp, ok := l.responder.HandlePacket(pkt, (*bufp)[:0])
	if !ok {
		l.free.Put(bufp)
		return nil
	}
	*bufp = resp
	l.ch <- resp
	return nil
}

// Exchange implements Exchanger: the probe is answered synchronously
// through the Responder without touching the queue. Whatever the
// Responder writes per probe is shared by every worker on this loopback
// (Scan with Workers > 1 shares one; a World counts each probe), so a
// multi-worker scan wants one loopback per worker, each over its own
// simnet.World.NewLane.
func (l *Loopback) Exchange(pkt, buf []byte) ([]byte, bool) {
	return l.responder.HandlePacket(pkt, buf)
}

// Recv implements Transport.
func (l *Loopback) Recv(buf []byte) (int, error) {
	pkt, ok := <-l.ch
	if !ok {
		return 0, io.EOF
	}
	if len(pkt) > len(buf) {
		return 0, fmt.Errorf("zmap: packet of %d bytes exceeds buffer", len(pkt))
	}
	n := copy(buf, pkt)
	if poolable(pkt) {
		pkt = pkt[:0]
		l.free.Put(&pkt)
	}
	return n, nil
}

// maxPooledBuf caps what Recv returns to the free pool. A response
// larger than the standard 2 KiB buffer forced HandlePacket to allocate
// a bigger one; re-pooling it would pin that outlier capacity forever
// (the pool never shrinks buffers), so oversized buffers are dropped
// for the GC instead.
const maxPooledBuf = 2048

func poolable(b []byte) bool { return cap(b) <= maxPooledBuf }

// Close implements Transport.
func (l *Loopback) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.ch)
	}
	return nil
}

// UDP is the wire transport: byte-exact ICMPv6 packets encapsulated in
// UDP datagrams to a simnetd server. Raw ICMPv6 sockets need privileges
// and a real vantage point; the UDP path exercises identical packet
// craft/parse/checksum and socket I/O code.
type UDP struct {
	conn *net.UDPConn
	nb   *netbatch.Conn

	mu     sync.Mutex
	closed bool
	// armed records whether SetRecvDeadline has a deadline in force.
	// Only then is a read timeout the cooldown's end-of-scan signal
	// (io.EOF); a timeout with no armed deadline is some other party's
	// doing and surfaces as a transient error instead of silently
	// ending the receive loop.
	armed atomic.Bool
}

// DialUDP connects to a simnetd at addr (host:port). Each call opens
// its own socket, so a per-worker factory (see UDPFactory) gives every
// scan worker a private kernel queue — replies land on the socket of
// the worker that probed, with no cross-worker receive contention.
func DialUDP(addr string) (*UDP, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("zmap: resolving %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("zmap: dialing %q: %w", addr, err)
	}
	// Large socket buffers matter at high probe rates; best-effort.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	nb, err := netbatch.NewConn(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("zmap: batching %q: %w", addr, err)
	}
	return &UDP{conn: conn, nb: nb}, nil
}

// UDPFactory returns a TransportFactory that dials addr once per
// worker — the socket fan-out configuration for wire scans.
func UDPFactory(addr string) TransportFactory {
	return func(int) (Transport, error) { return DialUDP(addr) }
}

// Send implements Transport.
func (u *UDP) Send(pkt []byte) error {
	_, err := u.conn.Write(pkt)
	if err != nil {
		return fmt.Errorf("zmap: udp send: %w", err)
	}
	return nil
}

// SendBatch implements BatchTransport: one sendmmsg per call where the
// platform has it.
func (u *UDP) SendBatch(pkts [][]byte) (int, error) {
	n, err := u.nb.WriteBatch(pkts, nil)
	if err != nil {
		return n, fmt.Errorf("zmap: udp send batch: %w", err)
	}
	return n, nil
}

// Recv implements Transport. It reads through the batch layer: once
// RecvBatch has armed receive offload on this socket, coalesced
// datagrams must be split back out here too, one per call — before
// that, this is a plain single-datagram read.
func (u *UDP) Recv(buf []byte) (int, error) {
	n, err := u.nb.Read(buf)
	if err != nil {
		return 0, u.recvErr(err)
	}
	return n, nil
}

// RecvBatch implements BatchTransport: one recvmmsg per call where the
// platform has it, with Recv's exact error mapping.
func (u *UDP) RecvBatch(bufs [][]byte, sizes []int) (int, error) {
	n, err := u.nb.ReadBatch(bufs, sizes, nil)
	if err != nil {
		return 0, u.recvErr(err)
	}
	return n, nil
}

// recvErr maps a socket read error onto the Transport contract: EOF
// once closed, EOF on an armed cooldown deadline expiring, a transient
// error for any other timeout, and a hard error otherwise.
func (u *UDP) recvErr(err error) error {
	u.mu.Lock()
	closed := u.closed
	u.mu.Unlock()
	if closed {
		return io.EOF
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if u.armed.Load() {
			return io.EOF
		}
		return fmt.Errorf("%w: udp recv timeout with no deadline armed: %v", ErrTransient, err)
	}
	return fmt.Errorf("zmap: udp recv: %w", err)
}

// Close implements Transport.
func (u *UDP) Close() error {
	u.mu.Lock()
	u.closed = true
	u.mu.Unlock()
	return u.conn.Close()
}

// SetRecvDeadline bounds how long Recv may block (used for cooldown).
// A non-zero deadline arms the timeout→io.EOF translation; the zero
// time clears both the deadline and the translation.
func (u *UDP) SetRecvDeadline(t time.Time) error {
	u.armed.Store(!t.IsZero())
	return u.conn.SetReadDeadline(t)
}

// batchAdapter layers BatchTransport over any single-packet Transport
// by looping. It lets the engine run one asynchronous code path
// regardless of the transport underneath — a Batch > 1 scan over the
// Loopback goes through exactly the loops a wire scan does, and a scan
// at width 1 wraps even a BatchTransport in it so every probe stays a
// plain Send and every reply a plain Recv — and doubles as the
// conformance-suite reference implementation of batch semantics.
type batchAdapter struct {
	tr Transport
}

// NewBatchAdapter wraps tr with loop-based SendBatch/RecvBatch. If tr
// already implements BatchTransport it is returned unchanged.
func NewBatchAdapter(tr Transport) BatchTransport {
	if bt, ok := tr.(BatchTransport); ok {
		return bt
	}
	return &batchAdapter{tr: tr}
}

func (a *batchAdapter) Send(pkt []byte) error        { return a.tr.Send(pkt) }
func (a *batchAdapter) Recv(buf []byte) (int, error) { return a.tr.Recv(buf) }
func (a *batchAdapter) Close() error                 { return a.tr.Close() }

func (a *batchAdapter) SendBatch(pkts [][]byte) (int, error) {
	for i, pkt := range pkts {
		if err := a.tr.Send(pkt); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

func (a *batchAdapter) RecvBatch(bufs [][]byte, sizes []int) (int, error) {
	// One blocking receive per call: a plain Transport has no way to
	// drain further packets without risking a block, so the adapter
	// trades batch width for unchanged semantics.
	n := len(bufs)
	if len(sizes) < n {
		n = len(sizes)
	}
	if n == 0 {
		return 0, nil
	}
	m, err := a.tr.Recv(bufs[0])
	if err != nil {
		return 0, err
	}
	sizes[0] = m
	return 1, nil
}
