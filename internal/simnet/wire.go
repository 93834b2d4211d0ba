package simnet

import (
	"followscent/internal/icmp6"
	"followscent/internal/ip6"
)

// HandlePacket answers one raw IPv6 probe packet with a raw response
// packet appended to buf, exactly as the simulated Internet would. It
// returns (nil-extended buf, false) when the probe is dropped or
// malformed — silence, as on the real network.
//
// Four probe modalities are answered, matching the prober's probe
// modules:
//
//   - ICMPv6 Echo Requests (§3.1/§7): answered with an Echo Reply from
//     a live target, or an ICMPv6 error from the periphery.
//   - UDP datagrams to closed ports: a live target answers Destination
//     Unreachable / Port Unreachable from its own address (no UDP
//     service exists anywhere in the simulated edge); vacant delegated
//     space elicits the same periphery errors as an echo probe.
//   - TCP SYNs to closed ports: a live target answers with a TCP
//     RST/ACK segment from its own address (no listener exists
//     anywhere in the simulated edge); vacant delegated space elicits
//     the periphery errors. The loss, silence and rate-limit state is
//     the same table every ICMPv6-answering modality shares.
//   - Neighbor Solicitations at hop limit 255: the on-link world. The
//     vantage is modeled as attached to the target's link, so a
//     currently-occupied WAN address defends itself with a solicited
//     Neighbor Advertisement and a vacant one is silence. NDP is how
//     the link itself functions, so even Silent devices (whose
//     firewalls drop echo probes) answer, and the off-link loss and
//     ICMPv6 rate-limit machinery does not apply.
//   - MLD General Queries (next header 0: every MLD message rides a
//     Router-Alert hop-by-hop header) at hop limit 1: the second
//     on-link enumeration path. The queried link is named by the
//     RFC 3306 prefix-scoped all-nodes group in the destination
//     (ip6.AllNodesGroup — the simulator's routable stand-in for
//     sending to ff02::1 on an attached link); the link's current
//     listener answers with an MLDv2 Report naming its solicited-node
//     membership. Multicast listening, like neighbor resolution, is
//     how the link functions, so Silent devices report too, and the
//     off-link loss/rate-limit machinery does not apply.
//
// The echo identifier/sequence (or UDP/TCP ports) salt the
// loss/response determinism so retransmissions are independent trials.
//
// HandlePacket counts into lane 0; see NewLane for concurrent callers.
func (w *World) HandlePacket(req []byte, buf []byte) ([]byte, bool) {
	return w.handlePacket(&w.lanes[0], req, buf)
}

// handlePacket is HandlePacket counting into lane c.
func (w *World) handlePacket(c *statLane, req []byte, buf []byte) ([]byte, bool) {
	// Dispatch on the raw next-header byte before any parsing: the
	// ICMPv6 branch is the simulator hot path, and Packet.Unmarshal
	// below parses the full header exactly once.
	if len(req) < icmp6.HeaderLen || req[0]>>4 != 6 {
		return buf, false
	}
	switch req[6] {
	case icmp6.ProtoICMPv6:
		var p icmp6.Packet
		if err := p.Unmarshal(req); err != nil {
			return buf, false
		}
		switch p.Message.Type {
		case icmp6.TypeEchoRequest:
			id, seq, ok := p.Message.Echo()
			if !ok {
				return buf, false
			}
			salt := uint64(id)<<16 | uint64(seq)
			var resp Response
			if !w.queryCounted(c, &resp, modalityEcho, p.Header.Dst, int(p.Header.HopLimit), salt) {
				return buf, false
			}
			if resp.Echo {
				return icmp6.AppendEchoReply(buf, resp.From, p.Header.Src, id, seq, p.Message.EchoPayload()), true
			}
			return icmp6.AppendError(buf, resp.Type, resp.Code, resp.From, p.Header.Src, req), true

		case icmp6.TypeNeighborSolicitation:
			return w.answerSolicitation(c, &p, buf)
		}
		return buf, false

	case icmp6.ProtoHopByHop:
		return w.answerMLDQuery(c, req, buf)

	case icmp6.ProtoUDP:
		var h icmp6.Header
		if err := h.Unmarshal(req); err != nil {
			return buf, false
		}
		payload := req[icmp6.HeaderLen:]
		if len(payload) < int(h.PayloadLen) || len(payload) < icmp6.UDPHeaderLen {
			return buf, false
		}
		payload = payload[:h.PayloadLen]
		if icmp6.UDPChecksum(h.Src, h.Dst, payload) != 0 {
			return buf, false
		}
		sport, dport, _, err := icmp6.ParseUDP(payload)
		if err != nil {
			return buf, false
		}
		salt := uint64(sport)<<16 | uint64(dport)
		var resp Response
		if !w.queryCounted(c, &resp, modalityUDP, h.Dst, int(h.HopLimit), salt) {
			return buf, false
		}
		if resp.Echo {
			// The probed address exists and the datagram reached it: every
			// port in the probed range is closed, so the target itself
			// originates Port Unreachable — the second periphery-discovery
			// observable.
			return icmp6.AppendError(buf, icmp6.TypeDestinationUnreachable,
				icmp6.CodePortUnreachable, resp.From, h.Src, req), true
		}
		return icmp6.AppendError(buf, resp.Type, resp.Code, resp.From, h.Src, req), true

	case icmp6.ProtoTCP:
		var h icmp6.Header
		if err := h.Unmarshal(req); err != nil {
			return buf, false
		}
		payload := req[icmp6.HeaderLen:]
		if len(payload) < int(h.PayloadLen) || len(payload) < icmp6.TCPHeaderLen {
			return buf, false
		}
		payload = payload[:h.PayloadLen]
		if icmp6.TCPChecksum(h.Src, h.Dst, payload) != 0 {
			return buf, false
		}
		th, err := icmp6.ParseTCP(payload)
		if err != nil || th.Flags&icmp6.TCPFlagSyn == 0 || th.Flags&(icmp6.TCPFlagRst|icmp6.TCPFlagAck) != 0 {
			// Only connection-opening SYNs are answered; anything else
			// belongs to no simulated flow and is dropped, as a stateful
			// edge would.
			return buf, false
		}
		salt := uint64(th.SrcPort)<<16 | uint64(th.DstPort)
		var resp Response
		if !w.queryCounted(c, &resp, modalityTCP, h.Dst, int(h.HopLimit), salt) {
			return buf, false
		}
		if resp.Echo {
			// The probed address exists and the SYN reached it: every port
			// in the probed range is closed, so the target itself resets
			// the connection attempt (RFC 9293 §3.5.2) — the third
			// periphery-discovery observable, and the one that survives
			// edges filtering ICMPv6 entirely.
			return icmp6.AppendTCPRstAck(buf, resp.From, h.Src, th.DstPort, th.SrcPort, th.Seq+1), true
		}
		return icmp6.AppendError(buf, resp.Type, resp.Code, resp.From, h.Src, req), true
	}
	return buf, false
}

// answerSolicitation is the on-link world: a Neighbor Solicitation for
// a currently-occupied WAN address is answered by that address itself
// with a solicited advertisement; everything else is silence. The
// vantage is modeled as attached to whatever link holds the target —
// RFC 4861's validation rules (hop limit 255, solicited-node or unicast
// destination) are enforced, and because NDP is how the link functions
// at all, Silent devices answer too: an edge that filters ICMPv6 Echo
// still cannot opt out of neighbor resolution.
func (w *World) answerSolicitation(c *statLane, p *icmp6.Packet, buf []byte) ([]byte, bool) {
	c.probes.Add(1)
	if p.Header.HopLimit != icmp6.NDPHopLimit {
		return buf, false
	}
	target, ok := p.Message.NDPTarget()
	if !ok {
		return buf, false
	}
	if p.Header.Dst != ip6.SolicitedNode(target) && p.Header.Dst != target {
		return buf, false
	}
	if !w.neighbor(target) {
		return buf, false
	}
	c.resps.Add(1)
	return icmp6.AppendNeighborAdvertisement(buf, target, p.Header.Src, target,
		icmp6.NAFlagSolicited|icmp6.NAFlagOverride), true
}

// answerMLDQuery is the multicast-listener half of the on-link world: a
// General Query for a link whose first /64 currently holds a WAN
// address is answered by that listener with an MLDv2 Report naming its
// solicited-node group; everything else is silence. RFC 3810's
// validation rules are enforced — hop limit 1 (link-scope multicast
// never crosses a router), a link-local querier source, the Router
// Alert hop-by-hop header and a verifying checksum — and, like the NS
// path, the report is derived from occupancy ground truth, so Silent
// devices report too. The report's source is the listener's WAN
// address (the simulated CPE's on-link identity, exactly as in the NS
// path): one report names a full 128-bit address the prober never had
// to guess.
func (w *World) answerMLDQuery(c *statLane, req []byte, buf []byte) ([]byte, bool) {
	c.probes.Add(1)
	var p icmp6.Packet
	if err := p.UnmarshalMLD(req); err != nil {
		return buf, false
	}
	if p.Header.HopLimit != icmp6.MLDHopLimit {
		return buf, false
	}
	if !p.Header.Src.IsLinkLocal() {
		// RFC 3810 §5.1.14: queries from a non-link-local source are
		// dropped.
		return buf, false
	}
	if p.Message.Type != icmp6.TypeMLDQuery || p.Message.Code != 0 {
		return buf, false
	}
	group, ok := p.Message.MLDGroup()
	if !ok || !group.IsZero() {
		// Only General Queries are answered; group-specific queries name
		// listeners the prober already knows 24 bits of.
		return buf, false
	}
	link, ok := ip6.GroupLink(p.Header.Dst)
	if !ok {
		return buf, false
	}
	wan, ok := w.listenerOn(link)
	if !ok {
		return buf, false
	}
	c.resps.Add(1)
	return icmp6.AppendMLDv2Report(buf, wan, icmp6.AllMLDv2Routers,
		[]ip6.Addr{ip6.SolicitedNode(wan)}), true
}

// listenerOn returns the WAN address listening on the given /64 link at
// the current virtual instant, if any: the occupant of the covering
// allocation block, provided its WAN /64 is this link.
func (w *World) listenerOn(link ip6.Prefix) (ip6.Addr, bool) {
	base := link.Addr()
	p := w.providerFor(base)
	if p == nil {
		return ip6.Addr{}, false
	}
	pool := p.poolFor(base)
	if pool == nil {
		return ip6.Addr{}, false
	}
	cache := pool.cacheAt(w.clock.sinceEpoch())
	idx, ok := cache.occupant(pool.blockIndex(base))
	if !ok {
		return ip6.Addr{}, false
	}
	wan := cache.wan[idx]
	if wan.Slash64() != link {
		return ip6.Addr{}, false
	}
	return wan, true
}

// neighbor reports whether target is a WAN address some CPE holds at
// the current virtual instant — the ground truth an on-link prober can
// extract from the link regardless of the device's ICMP behaviour.
func (w *World) neighbor(target ip6.Addr) bool {
	p := w.providerFor(target)
	if p == nil {
		return false
	}
	pool := p.poolFor(target)
	if pool == nil {
		return false
	}
	cache := pool.cacheAt(w.clock.sinceEpoch())
	idx, ok := cache.occupant(pool.blockIndex(target))
	if !ok {
		return false
	}
	return cache.wan[idx] == target
}
