package zmap

import (
	"errors"
	"fmt"
	"time"
)

// FaultPlan schedules deterministic transport faults. All probability
// decisions are pure functions of (Seed, packet bytes) — the same plan
// over the same probe set injects the same faults regardless of how the
// probes are split across workers, which is what lets the
// fault-schedule determinism test hold across worker counts. Only
// per-worker-local faults (DieAfterSends, recv stall timing) derive a
// worker-specific seed, the same way the scanner derives shard salts.
type FaultPlan struct {
	// Seed keys every fault decision. Zero is a valid seed.
	Seed uint64

	// DropProb silently discards the matching fraction of inbound
	// packets, keyed by response content.
	DropProb float64
	// DupProb delivers the matching fraction of inbound packets twice,
	// keyed by response content.
	DupProb float64

	// StallProb makes the matching fraction of Recv calls stall for
	// Stall and then fail with a transient timeout, keyed by the
	// worker-local call index — no inbound packet is consumed or lost.
	StallProb float64
	// Stall is the injected stall duration (default 0: fail instantly).
	Stall time.Duration

	// DieAfterSends kills the send side permanently after that many
	// successful sends (0 = never): every later Send fails with a
	// non-transient error, modeling hard transport death. The receive
	// side keeps draining until Close — responses already in flight for
	// probes the checkpoint marks as sent must still surface, or resume
	// could never reproduce them.
	DieAfterSends uint64
}

// errTransportDead is the non-transient death FaultTransport injects.
var errTransportDead = errors.New("zmap: fault-injected transport death")

// FaultTransport wraps a Transport with the faults a FaultPlan
// schedules. It deliberately does not implement Exchanger even when the
// inner transport does: faults must flow through the engine's real
// send/receive error paths, not the synchronous fast path.
//
// Concurrency matches the engine's use of a per-worker transport: Send
// state is touched only by the sending goroutine, Recv state only by
// the receiving one; Close is safe against both.
type FaultTransport struct {
	inner   Transport
	plan    FaultPlan
	wseed   uint64 // worker-derived, for worker-local faults only
	sent    uint64 // successful sends, for DieAfterSends
	recvN   uint64 // worker-local Recv call index, for stalls
	pending []byte // duplicate waiting for redelivery
}

// NewFaultTransport wraps inner for the given worker under plan.
func NewFaultTransport(inner Transport, plan FaultPlan, worker int) *FaultTransport {
	return &FaultTransport{
		inner: inner,
		plan:  plan,
		wseed: plan.Seed ^ uint64(worker)*hashSeed,
	}
}

// foldBytes hashes b under seed with the package's SplitMix64 chain,
// eight bytes at a time plus a length word — the content key behind
// every cross-worker-deterministic fault decision.
func foldBytes(seed uint64, b []byte) uint64 {
	h := hashWord(hashSeed, seed)
	for len(b) >= 8 {
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		h = hashWord(h, w)
		b = b[8:]
	}
	var last uint64
	for i, c := range b {
		last |= uint64(c) << (8 * i)
	}
	return hashWord(hashWord(h, last), uint64(len(b)))
}

// probHit maps hash h onto [0,1) and reports whether it lands under p.
func probHit(h uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(h>>11)/(1<<53) < p
}

// Send implements Transport.
func (f *FaultTransport) Send(pkt []byte) error {
	if f.plan.DieAfterSends > 0 && f.sent >= f.plan.DieAfterSends {
		return errTransportDead
	}
	if err := f.inner.Send(pkt); err != nil {
		return err
	}
	f.sent++
	return nil
}

// Recv implements Transport.
func (f *FaultTransport) Recv(buf []byte) (int, error) {
	if f.pending != nil {
		n := copy(buf, f.pending)
		f.pending = nil
		return n, nil
	}
	if f.plan.StallProb > 0 {
		call := f.recvN
		f.recvN++
		if probHit(hashWord(f.wseed, call^0x57a1), f.plan.StallProb) {
			if f.plan.Stall > 0 {
				time.Sleep(f.plan.Stall)
			}
			return 0, fmt.Errorf("fault-injected recv timeout: %w", ErrTransient)
		}
	}
	for {
		n, err := f.inner.Recv(buf)
		if err != nil {
			return 0, err
		}
		h := foldBytes(f.plan.Seed, buf[:n])
		if probHit(hashWord(h, 0xd409), f.plan.DropProb) {
			continue
		}
		if probHit(hashWord(h, 0xd412), f.plan.DupProb) {
			f.pending = append(f.pending[:0], buf[:n]...)
		}
		return n, nil
	}
}

// Close implements Transport.
func (f *FaultTransport) Close() error { return f.inner.Close() }
