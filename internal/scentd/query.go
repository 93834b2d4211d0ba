package scentd

import (
	"fmt"
	"sort"
	"strconv"

	"followscent/internal/core"
	"followscent/internal/ip6"
	"followscent/internal/oui"
	"followscent/internal/uint128"
)

// Answer computes the response to one read-only request against a
// snapshot. It is a pure function of (snapshot, registry, request) —
// the Server calls it per request, and the consistency tests call it
// directly as the batch oracle: a served answer must be byte-identical
// to Answer over an equal corpus, and because the server does nothing
// else, it is.
//
// The track op probes the live (simulated) Internet and so cannot be
// answered from a snapshot alone; it is handled by the Server's
// TrackBackend, not here.
func Answer(snap *core.Snapshot, reg *oui.Registry, req Request) Response {
	resp := Response{Days: snap.Days()}
	switch req.Op {
	case "stats":
		c := snap.Corpus()
		probes, responses := c.Totals()
		total, eui := c.UniqueAddrs()
		resp.Stats = &StatsResult{
			IIDs:        snap.NumIIDs(),
			Probes:      probes,
			Responses:   responses,
			UniqueAddrs: total,
			UniqueEUI:   eui,
		}
	case "lookup":
		a, err := ip6.ParseAddr(req.Addr)
		if err != nil {
			return errResponse(snap, "lookup: %v", err)
		}
		resp.Lookup = &LookupResult{}
		if iid, ok := snap.Observed(a); ok {
			rec, _ := snap.Corpus().Lookup(iid)
			resp.Lookup.Found = true
			resp.Lookup.IID = fmt.Sprintf("%016x", uint64(iid))
			if mac, ok := rec.MAC(); ok {
				resp.Lookup.MAC = mac.String()
				resp.Lookup.Vendor = reg.NameOrUnknown(mac.OUI())
			}
			resp.Lookup.Prefixes = rec.PrefixCount()
			// rec.Days is chronological: count day changes.
			for i := range rec.Days {
				if i == 0 || rec.Days[i].Day != rec.Days[i-1].Day {
					resp.Lookup.DaysSeen++
				}
			}
		}
	case "prefixes":
		iid, err := parseIID(req.IID)
		if err != nil {
			return errResponse(snap, "prefixes: %v", err)
		}
		pr := &PrefixesResult{IID: fmt.Sprintf("%016x", uint64(iid))}
		ts := snap.Corpus().TimeSeries(iid)
		pr.Found = len(ts) > 0
		for _, tp := range ts {
			pr.History = append(pr.History, PrefixDay{
				Day:    tp.Day,
				Prefix: ip6.AddrFrom128(uint128.New(tp.PrefixHi, 0)).Slash64().String(),
			})
		}
		resp.Prefixes = pr
	case "vendors":
		var pool ip6.Prefix
		if req.Prefix != "" {
			p, err := ip6.ParsePrefix(req.Prefix)
			if err != nil {
				return errResponse(snap, "vendors: %v", err)
			}
			pool = p
		}
		for _, row := range snap.VendorCensus(pool) {
			resp.Vendors = append(resp.Vendors, VendorRow{
				OUI:     row.OUI.String(),
				Vendor:  reg.NameOrUnknown(row.OUI),
				Devices: row.Devices,
			})
		}
	case "pools":
		alloc, pools := snap.AllocationByAS(), snap.PoolByAS()
		asns := map[uint32]struct{}{}
		for asn := range alloc {
			asns[asn] = struct{}{}
		}
		for asn := range pools {
			asns[asn] = struct{}{}
		}
		for asn := range asns {
			resp.Pools = append(resp.Pools, PoolRow{
				ASN: asn, AllocBits: alloc[asn], PoolBits: pools[asn],
			})
		}
		sort.Slice(resp.Pools, func(i, j int) bool { return resp.Pools[i].ASN < resp.Pools[j].ASN })
	default:
		return errResponse(snap, "unknown op %q", req.Op)
	}
	resp.OK = true
	return resp
}

func errResponse(snap *core.Snapshot, format string, args ...any) Response {
	return Response{Days: snap.Days(), Error: fmt.Sprintf(format, args...)}
}

func parseIID(s string) (core.IID, error) {
	if s == "" {
		return 0, fmt.Errorf("iid is required")
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("bad iid %q: %w", s, err)
	}
	return core.IID(v), nil
}
