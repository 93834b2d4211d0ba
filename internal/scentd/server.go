package scentd

import (
	"context"
	"fmt"
	"net"
	"time"

	"followscent/internal/bgp"
	"followscent/internal/core"
	"followscent/internal/ip6"
	"followscent/internal/oui"
	"followscent/internal/wire"
	"followscent/internal/zmap"
)

// Server answers framed queries against a Store. Every request reads
// the snapshot current at its arrival — two requests on one connection
// may legitimately see different day sets if a commit lands between
// them, but no request ever sees a half-ingested day.
type Server struct {
	Store *Store
	// OUI resolves vendor names (nil = builtin registry).
	OUI *oui.Registry
	// Track enables the op=track live-probing path (nil = rejected).
	Track *TrackBackend
	// Logf, when set, receives per-connection lifecycle lines.
	Logf func(format string, args ...any)
}

// TrackBackend is the live-probing half of op=track: the §6 adversary
// run on demand, seeded with the per-AS inferences from the snapshot
// that answered the request.
type TrackBackend struct {
	// NewSession builds the tracking environment for one request. The
	// snapshot that answers the request is passed so the session can
	// align its world clock with the corpus's last committed day (a
	// tracker probes "today onward", and today is defined by how far
	// ingestion has advanced).
	NewSession func(snap *core.Snapshot) (*TrackSession, error)
	// WidenBits is the §6 motivated-adversary pool widening (0 = off).
	WidenBits int
}

// TrackSession is one request's tracking environment.
type TrackSession struct {
	Scanner *zmap.Scanner
	RIB     *bgp.Table
	Wait    func(time.Duration)
}

// Serve accepts and handles connections until ctx is cancelled (the
// listener is closed to unblock Accept). Each connection gets its own
// goroutine; Serve returns after every handler has drained. The accept
// loop and the per-connection request loop are the shared internal/wire
// ones, so scentd and the campaign coordinator serve identically.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return wire.Serve(ctx, ln, wire.Handle(s.answer), s.Logf)
}

// answer serves one request from the snapshot current at its arrival.
func (s *Server) answer(ctx context.Context, req Request) Response {
	snap := s.Store.Snapshot()
	if req.Op == "track" {
		return s.track(ctx, snap, req)
	}
	reg := s.OUI
	if reg == nil {
		reg = oui.Builtin()
	}
	return Answer(snap, reg, req)
}

// track runs the live §6 adversary for one device, seeded with the
// snapshot's Algorithm 1/2 inferences.
func (s *Server) track(ctx context.Context, snap *core.Snapshot, req Request) Response {
	if s.Track == nil || s.Track.NewSession == nil {
		return errResponse(snap, "track: not enabled on this server")
	}
	a, err := ip6.ParseAddr(req.Addr)
	if err != nil {
		return errResponse(snap, "track: %v", err)
	}
	st, err := core.NewTrackState(a)
	if err != nil {
		return errResponse(snap, "track: %v", err)
	}
	days := req.Days
	if days <= 0 {
		days = 7
	}
	salt := req.Salt
	if salt == 0 {
		salt = 0x7ac4
	}
	sess, err := s.Track.NewSession(snap)
	if err != nil {
		return errResponse(snap, "track: session: %v", err)
	}
	tracker := &core.Tracker{
		Scanner:   sess.Scanner,
		RIB:       sess.RIB,
		AllocBits: snap.AllocationByAS(),
		PoolBits:  snap.PoolByAS(),
		WidenBits: s.Track.WidenBits,
	}
	if err := tracker.Track(ctx, st, days, salt, sess.Wait); err != nil {
		return errResponse(snap, "track: %v", err)
	}
	sum := core.Summarize(st)
	tr := &TrackResult{
		IID:       fmt.Sprintf("%016x", uint64(st.IID)),
		DaysFound: sum.DaysFound,
		Slash64s:  sum.Slash64s,
	}
	for _, d := range st.History {
		row := TrackRow{Day: d.Day, Found: d.Found, Moved: d.Moved, Probes: d.ProbesSent}
		if d.Found {
			row.Addr = d.Addr.String()
		}
		tr.History = append(tr.History, row)
	}
	return Response{OK: true, Days: snap.Days(), Track: tr}
}
