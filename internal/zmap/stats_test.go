package zmap

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"unsafe"

	"followscent/internal/icmp6"
	"followscent/internal/ip6"
)

// countingResponder is echoResponder with a tally of its own: calls is
// every probe it saw, answers every reply it gave. One target in eight
// gets a reply with a flipped echo identifier, which the scan must
// count Invalid.
// atCall, when set, runs once on the atCall-th call — inline in the
// sending worker, so whatever it does lands mid-walk.
type countingResponder struct {
	calls, answers atomic.Uint64
	atCall         uint64
	hook           func()
}

func (c *countingResponder) HandlePacket(req, buf []byte) ([]byte, bool) {
	if n := c.calls.Add(1); n == c.atCall && c.hook != nil {
		c.hook()
	}
	var pkt icmp6.Packet
	if err := pkt.Unmarshal(req); err != nil {
		return buf, false
	}
	id, seq, ok := pkt.Message.Echo()
	if !ok {
		return buf, false
	}
	h := hashWord(hashSeed, pkt.Header.Dst.IID())
	if h%4 == 0 {
		return buf, false
	}
	if h%8 == 1 {
		id ^= 1
	}
	c.answers.Add(1)
	return icmp6.AppendEchoReply(buf, pkt.Header.Dst, pkt.Header.Src, id, seq, nil), true
}

// TestStatsExactOnEveryExit pins Stats to what the transport and the
// handler actually saw, on every way a scan can end: Sent is every
// probe the responder answered or dropped, Received every reply it
// gave, Matched + Invalid splits Received, and Matched is the handler's
// call count. The engine keeps these as per-worker tallies folded once
// every worker has exited, so a path that returned before the fold, or
// folded before a worker finished, would show here.
func TestStatsExactOnEveryExit(t *testing.T) {
	ts, err := NewSubnetTargets([]ip6.Prefix{ip6.MustParsePrefix("2001:db8:1::/52")}, 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	// dying wraps worker w's loopback so it dies after 40 sends when w
	// is the one picked; the others get the bare loopback.
	dying := func(r Responder, pick int) TransportFactory {
		return func(w int) (Transport, error) {
			lb := NewLoopback(r, 0)
			if w != pick {
				return lb, nil
			}
			return NewFaultTransport(lb, FaultPlan{DieAfterSends: 40}, w), nil
		}
	}
	for _, workers := range []int{1, 2, 4} {
		for _, batch := range []int{0, 64} {
			base := Config{Source: vantage, Seed: 5, Workers: workers, Batch: batch}
			t.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batch), func(t *testing.T) {
				check := func(t *testing.T, r *countingResponder, st Stats, handled uint64, until bool) {
					t.Helper()
					if st.Sent != r.calls.Load() {
						t.Errorf("Sent = %d, the responder saw %d probes", st.Sent, r.calls.Load())
					}
					if st.Received != r.answers.Load() {
						t.Errorf("Received = %d, the responder gave %d replies", st.Received, r.answers.Load())
					}
					if st.Matched+st.Invalid != st.Received {
						t.Errorf("Matched %d + Invalid %d != Received %d", st.Matched, st.Invalid, st.Received)
					}
					if !until && st.Matched != handled {
						t.Errorf("Matched = %d, the handler ran %d times", st.Matched, handled)
					}
					if st.Invalid == 0 && st.Received > 256 {
						t.Errorf("no reply counted Invalid of %d received", st.Received)
					}
				}
				lb := func(r Responder) TransportFactory {
					return func(int) (Transport, error) { return NewLoopback(r, 0), nil }
				}

				t.Run("exhaustion", func(t *testing.T) {
					r := &countingResponder{}
					var handled uint64
					st, err := ScanWorkers(context.Background(), lb(r), ts, base, func(Result) { handled++ })
					if err != nil {
						t.Fatal(err)
					}
					if st.Sent != ts.Len() {
						t.Fatalf("Sent = %d, want every one of %d targets", st.Sent, ts.Len())
					}
					check(t, r, st, handled, false)
				})

				t.Run("cancel", func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					r := &countingResponder{atCall: 100, hook: cancel}
					var handled uint64
					st, err := ScanWorkers(ctx, lb(r), ts, base, func(Result) { handled++ })
					if !errors.Is(err, context.Canceled) || st.Sent >= ts.Len() {
						t.Fatalf("err = %v after %d of %d probes, want a cancelled walk", err, st.Sent, ts.Len())
					}
					check(t, r, st, handled, false)
				})

				t.Run("abort", func(t *testing.T) {
					r := &countingResponder{}
					var handled uint64
					st, err := ScanWorkers(context.Background(), dying(r, 0), ts, base, func(Result) { handled++ })
					var pe *PartialError
					if err == nil || errors.As(err, &pe) {
						t.Fatalf("err = %v, want the transport's error", err)
					}
					check(t, r, st, handled, false)
				})

				t.Run("quarantine", func(t *testing.T) {
					cfg := base
					cfg.Failure = QuarantineWorker{}
					r := &countingResponder{}
					var handled uint64
					st, err := ScanWorkers(context.Background(), dying(r, workers-1), ts, cfg, func(Result) { handled++ })
					var pe *PartialError
					if !errors.As(err, &pe) {
						t.Fatalf("err = %v, want *PartialError", err)
					}
					check(t, r, st, handled, false)
				})

				t.Run("until", func(t *testing.T) {
					r := &countingResponder{}
					s := &Scanner{NewTransport: func() (Transport, error) { return NewLoopback(r, 0), nil }, Config: base}
					res, cost, st, err := s.ScanUntil(context.Background(), ts, 3, func(res Result) bool {
						return hashWord(7, res.Target.IID())%64 == 0
					})
					if err != nil || res == nil || cost >= ts.Len() {
						t.Fatalf("ScanUntil = %v, %v at cost %d of %d probes, want an early find", res, err, cost, ts.Len())
					}
					check(t, r, st, 0, true)
				})
			})
		}
	}
}

// TestWorkerTallyLayout guards the layout that keeps the engine's
// per-probe counting off shared cache lines: a tally fills whole lines,
// the walk's sent counter starts on a different line from the receive
// side's counters, and wherever the tally slice lands no two
// neighbouring workers' counters share a line.
func TestWorkerTallyLayout(t *testing.T) {
	var wt workerTally
	size := unsafe.Sizeof(wt)
	if size%64 != 0 {
		t.Errorf("workerTally is %d bytes, not a whole number of 64-byte lines", size)
	}
	word := unsafe.Sizeof(wt.sent)
	send := [2]uintptr{unsafe.Offsetof(wt.sent), word}
	recv := [2]uintptr{unsafe.Offsetof(wt.received), unsafe.Offsetof(wt.invalid) + word - unsafe.Offsetof(wt.received)}
	if unsafe.Offsetof(wt.matched) < recv[0] || unsafe.Offsetof(wt.matched) >= recv[0]+recv[1] {
		t.Fatal("matched is not between received and invalid")
	}
	if send[0]/64 == recv[0]/64 {
		t.Errorf("sent (offset %d) and received (offset %d) start on one 64-byte line", send[0], recv[0])
	}
	for _, c := range []struct {
		name string
		a, b [2]uintptr
	}{
		{"sent and the receive side", send, recv},
		{"the receive side and the next worker's sent", recv, [2]uintptr{size + send[0], send[1]}},
	} {
		if shareLine(c.a[0], c.a[1], c.b[0], c.b[1]) {
			t.Errorf("%s can share a 64-byte line", c.name)
		}
	}
}

// shareLine reports whether bytes [a, a+an) and [b, b+bn) of one object
// can fall on a common 64-byte line for some 8-byte-aligned placement of
// the object.
func shareLine(a, an, b, bn uintptr) bool {
	for base := uintptr(0); base < 64; base += 8 {
		af, al := (base+a)/64, (base+a+an-1)/64
		bf, bl := (base+b)/64, (base+b+bn-1)/64
		if af <= bl && bf <= al {
			return true
		}
	}
	return false
}
