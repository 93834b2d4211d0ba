package simnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"followscent/internal/netbatch"
	"followscent/internal/wire"
)

// ErrTimescale refuses a non-zero ServeUDP timescale.
var ErrTimescale = errors.New("simnet: ServeUDP timescale must be 0; clients set the clock through ServeClock")

// ErrClockRequest is SetClock's error for a request ServeClock refused.
var ErrClockRequest = errors.New("simnet: malformed clock request")

// ListenUDP opens the socket ServeUDP answers on, with the kernel
// buffers bursty batched senders need (8 MiB each way, best-effort)
// in place before it returns: the first flushes of a scan can arrive
// before the serving goroutine has run, and would otherwise land on —
// and overflow — the default buffer.
func ListenUDP(addr *net.UDPAddr) (*net.UDPConn, error) {
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadBuffer(8 << 20)
	_ = conn.SetWriteBuffer(8 << 20)
	return conn, nil
}

// clockRequest is ServeClock's one request: set the clock to T. The
// reply is empty, or the refusal's reason.
type clockRequest struct {
	Op string    `json:"op"` // "set"
	T  time.Time `json:"t"`
}

// ServeClock answers set-clock requests on ln until ctx is cancelled:
// a client sets the clock to its replica's before it probes (SetClock),
// so the world answers at the instant the in-process one would. Setting
// is absolute, so every client of a day may send it; any other op, or
// a zero time, is refused and moves nothing.
func (w *World) ServeClock(ctx context.Context, ln net.Listener) error {
	return wire.Serve(ctx, ln, wire.Handle(func(_ context.Context, req clockRequest) string {
		switch {
		case req.Op != "set":
			return fmt.Sprintf("unknown op %q", req.Op)
		case req.T.IsZero():
			return "zero time"
		}
		w.clock.Set(req.T)
		return ""
	}), nil)
}

// SetClock sets the clock of the world ServeClock serves at addr to t,
// in one round trip on a fresh connection. A refusal is ErrClockRequest.
func SetClock(addr string, t time.Time) error {
	c, err := wire.Dial[clockRequest, string](addr)
	if err != nil {
		return err
	}
	defer c.Close()
	refusal, err := c.Do(clockRequest{Op: "set", T: t})
	if err == nil && refusal != "" {
		err = fmt.Errorf("%w at %s: %s", ErrClockRequest, addr, refusal)
	}
	return err
}

// ServeUDP answers ICMPv6-in-UDP probes on conn until ctx is cancelled:
// each datagram is one raw IPv6+ICMPv6 packet, answered (or not) exactly
// as the simulated Internet would. This is the backend for cmd/simnetd
// and for the cross-socket integration tests — the prober exercises real
// socket I/O against byte-exact wire format.
//
// The wire loop is vectored where the platform allows (recvmmsg in,
// sendmmsg out — see internal/netbatch), but the simulation is applied
// strictly per datagram in arrival order: each probe goes through
// HandlePacket and the link-fate dice (loss, duplication, reordering,
// rate limits) exactly as the per-packet loop applied them, so a
// world's observable behavior is bit-identical whether probes arrive
// singly or in batches. Only the syscall count differs.
//
// timescale must be 0 (ErrTimescale): the clock moves only when a
// client sets it through ServeClock.
func (w *World) ServeUDP(ctx context.Context, conn *net.UDPConn, timescale float64) error {
	if timescale != 0 {
		return ErrTimescale
	}
	// Unblock the read loop on cancellation.
	defer context.AfterFunc(ctx, func() { _ = conn.SetReadDeadline(time.Now()) })()

	// For a socket not opened by ListenUDP; best-effort.
	_ = conn.SetReadBuffer(8 << 20)
	_ = conn.SetWriteBuffer(8 << 20)
	nb, err := netbatch.NewConn(conn)
	if err != nil {
		return fmt.Errorf("simnet: udp batching: %w", err)
	}

	// One recvmmsg stride of inbound probes. Lanes keep the per-packet
	// loop's 64 KiB ceiling so no datagram it accepted is truncated here.
	const batch = 64
	const inLane = 64 << 10
	inBacking := make([]byte, batch*inLane)
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = inBacking[i*inLane : (i+1)*inLane]
	}
	sizes := make([]int, batch)
	peers := make([]net.UDPAddr, batch)
	for i := range peers {
		peers[i].IP = make(net.IP, 0, 16)
	}

	// The outbound queue for one stride: every response generated while
	// handling a recv batch is enqueued (a duplicated response twice —
	// two queue entries, one buffer) and flushed in a single sendmmsg,
	// preserving the exact write order of the per-packet loop. Each
	// response is built in (or copied to) its own reusable lane; worst
	// case is one response plus one flushed held datagram per probe.
	outPkts := make([][]byte, 0, 2*(batch+1))
	outPeers := make([]*net.UDPAddr, 0, 2*(batch+1))
	respLanes := make([][]byte, 2*batch+2)
	for i := range respLanes {
		respLanes[i] = make([]byte, 0, 2048)
	}
	lane := 0
	enqueue := func(pkt []byte, peer *net.UDPAddr, dup bool) {
		outPkts = append(outPkts, pkt)
		outPeers = append(outPeers, peer)
		if dup {
			outPkts = append(outPkts, pkt)
			outPeers = append(outPeers, peer)
		}
	}
	flushOut := func() error {
		if len(outPkts) == 0 {
			return nil
		}
		_, err := nb.WriteBatch(outPkts, outPeers)
		outPkts = outPkts[:0]
		outPeers = outPeers[:0]
		lane = 0
		return err
	}

	// Link effects (PoolSpec dup_prob/reorder_prob) are applied here, on
	// the wire only: a duplicated response is written twice, a reordered
	// one is held back and delivered after the next response (or flushed
	// after a short idle so it is delayed, never lost). At most one
	// datagram is ever in the held slot. The held datagram owns its
	// buffer and peer storage — both survive across strides.
	var held []byte
	heldBuf := make([]byte, 0, 2048)
	heldPeer := net.UDPAddr{IP: make(net.IP, 0, 16)}
	var heldDup bool
	enqueueHeld := func() {
		if held == nil {
			return
		}
		// Copy into a queue lane: the held slot must be free for a new
		// reordered response within the same stride.
		l := append(respLanes[lane][:0], held...)
		respLanes[lane] = l
		lane++
		enqueue(l, &heldPeer, heldDup)
		held = nil
	}

	for {
		if held != nil {
			_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		}
		n, err := nb.ReadBatch(bufs, sizes, peers)
		if err != nil {
			if ctx.Err() != nil {
				enqueueHeld()
				_ = flushOut()
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// Idle with a held datagram: flush it and clear the
				// deadline. The cancellation goroutine may have raced us
				// setting an immediate deadline, so re-check the context
				// after clearing (it sets ctx.Err before the deadline).
				enqueueHeld()
				if werr := flushOut(); werr != nil && ctx.Err() == nil {
					return fmt.Errorf("simnet: udp write: %w", werr)
				}
				_ = conn.SetReadDeadline(time.Time{})
				if ctx.Err() != nil {
					return nil
				}
				continue
			}
			return fmt.Errorf("simnet: udp read: %w", err)
		}
		for i := 0; i < n; i++ {
			resp, ok := w.HandlePacket(bufs[i][:sizes[i]], respLanes[lane][:0])
			if !ok {
				continue
			}
			respLanes[lane] = resp
			dup, reorder := w.LinkFate(resp)
			if reorder && held == nil {
				heldBuf = append(heldBuf[:0], resp...)
				held = heldBuf
				heldPeer.IP = append(heldPeer.IP[:0], peers[i].IP...)
				heldPeer.Port = peers[i].Port
				heldPeer.Zone = peers[i].Zone
				heldDup = dup
				continue
			}
			lane++
			enqueue(resp, &peers[i], dup)
			enqueueHeld()
		}
		if err := flushOut(); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("simnet: udp write: %w", err)
		}
	}
}
