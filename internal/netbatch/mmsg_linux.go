//go:build linux && (amd64 || arm64)

package netbatch

import (
	"errors"
	"net"
	"os"
	"sync"
	"syscall"
	"unsafe"
)

// On 64-bit Linux the kernel's mmsghdr is struct msghdr (56 bytes)
// followed by the per-message byte count; stdlib syscall.Msghdr has the
// matching layout on amd64/arm64 (Iovlen/Controllen are uint64 there,
// which is why this file is gated to those GOARCHes — everything else
// takes the fallback loop).
const batched = true

// maxChunk bounds scratch growth: larger application batches are split
// into several sendmmsg/recvmmsg calls, still far from one-per-packet.
const maxChunk = 512

// UDP generic segmentation offload: one sendmsg carries a run of
// equal-size payloads concatenated into a single super-datagram, and
// the kernel splits it back into individual datagrams at the cheapest
// layer it can. The on-wire (and on-loopback) result is bit-identical
// to per-packet sends — only the per-datagram syscall and skb setup
// cost is amortised, which on loopback dwarfs what sendmmsg alone
// saves. Segments must share one destination (the connected peer) and
// one size, except the last, which may be shorter.
const (
	solUDP        = 17  // SOL_UDP
	udpSegment    = 103 // UDP_SEGMENT cmsg/sockopt
	udpGRO        = 104 // UDP_GRO sockopt & cmsg type
	gsoMaxSegs    = 64  // kernel UDP_MAX_SEGMENTS
	gsoMaxPayload = 65000
	gsoCmsgSpace  = 24 // CMSG_SPACE(sizeof(uint16)) on 64-bit

	// The GRO receive stride: each of these scratch buffers can hold a
	// maximally coalesced super-datagram, which the splitter turns back
	// into up to gsoMaxSegs individual datagrams.
	groStride  = 8
	groBufSize = 65535
	groCtrl    = 64
)

// groSeg is one datagram split out of a coalesced receive, queued for a
// future read call. Its buffer and address backing are recycled.
type groSeg struct {
	buf  []byte
	addr net.UDPAddr
}

// groState is the receive-offload scratch: kernel-filled super-datagram
// buffers, their control messages, and the FIFO of split-out datagrams
// not yet handed to the caller.
type groState struct {
	bufs    [groStride][]byte
	ctrls   [groStride][]byte
	pending []groSeg
	head    int
	pool    [][]byte    // recycled segment copies
	peer    net.UDPAddr // decode scratch for the current message's sender
	one     [1][]byte   // single-datagram Read scratch
	oneSize [1]int
}

type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// side is one direction's reusable syscall scratch. Each direction has
// its own lock so concurrent senders serialize against each other but
// never against the receiver.
type side struct {
	mu    sync.Mutex
	hdrs  []mmsghdr
	iov   []syscall.Iovec
	names []syscall.RawSockaddrInet6 // large enough for either family
	gso   []byte                     // concatenated segments for one GSO send
	name  syscall.RawSockaddrInet6   // one GSO run's shared destination
	cmsg  [gsoCmsgSpace]byte

	// Persistent syscall thunks with argument/result slots: the funcs
	// handed to RawConn.Read/Write are built once in init, so the
	// steady-state hot path allocates no closures or capture cells.
	sysN    int // in: message count for do
	sysRet  int // out: syscall result
	sysErr  syscall.Errno
	gsoLen  int   // in: bytes of gso to send via doGSO
	gsoName *byte // in: destination sockaddr for doGSO (nil = connected)
	gsoNLen uint32
	do      func(fd uintptr) bool // recvmmsg / sendmmsg over hdrs[:sysN]
	doGSO   func(fd uintptr) bool // sendmsg of gso[:gsoLen] with UDP_SEGMENT
}

func (s *side) ensure(n int) {
	if cap(s.hdrs) < n {
		s.hdrs = make([]mmsghdr, n)
		s.iov = make([]syscall.Iovec, n)
		s.names = make([]syscall.RawSockaddrInet6, n)
	}
	s.hdrs = s.hdrs[:n]
	s.iov = s.iov[:n]
	s.names = s.names[:n]
}

type sysConn struct {
	rc       syscall.RawConn
	v6       bool // socket family: encode destinations to match
	gsoOff   bool // kernel rejected UDP_SEGMENT; guarded by wr.mu
	groTried bool // guarded by rd.mu
	gro      *groState
	rd       side
	wr       side
}

func (c *sysConn) init(u *net.UDPConn) error {
	rc, err := u.SyscallConn()
	if err != nil {
		return err
	}
	c.rc = rc
	cerr := rc.Control(func(fd uintptr) {
		sa, err := syscall.Getsockname(int(fd))
		if err == nil {
			_, c.v6 = sa.(*syscall.SockaddrInet6)
		}
	})
	c.rd.do = func(fd uintptr) bool {
		s := &c.rd
		r, _, errno := syscall.Syscall6(sysRECVMMSG,
			fd, uintptr(unsafe.Pointer(&s.hdrs[0])), uintptr(s.sysN), 0, 0, 0)
		if errno == syscall.EAGAIN {
			return false
		}
		if errno != 0 {
			s.sysErr = errno
		} else {
			s.sysRet = int(r)
		}
		return true
	}
	c.wr.do = func(fd uintptr) bool {
		s := &c.wr
		r, _, errno := syscall.Syscall6(sysSENDMMSG,
			fd, uintptr(unsafe.Pointer(&s.hdrs[0])), uintptr(s.sysN), 0, 0, 0)
		if errno == syscall.EAGAIN {
			return false
		}
		if errno != 0 {
			s.sysErr = errno
		} else {
			s.sysRet = int(r)
		}
		return true
	}
	c.wr.doGSO = func(fd uintptr) bool {
		s := &c.wr
		iov := syscall.Iovec{Base: &s.gso[0], Len: uint64(s.gsoLen)}
		hdr := syscall.Msghdr{
			Iov:        &iov,
			Iovlen:     1,
			Name:       s.gsoName,
			Namelen:    s.gsoNLen,
			Control:    &s.cmsg[0],
			Controllen: gsoCmsgSpace,
		}
		r, _, errno := syscall.Syscall(syscall.SYS_SENDMSG,
			fd, uintptr(unsafe.Pointer(&hdr)), 0)
		if errno == syscall.EAGAIN {
			return false
		}
		if errno != 0 {
			s.sysErr = errno
		} else {
			s.sysRet = int(r)
		}
		return true
	}
	return cerr
}

func (c *sysConn) readBatch(u *net.UDPConn, bufs [][]byte, sizes []int, addrs []net.UDPAddr) (int, error) {
	s := &c.rd
	s.mu.Lock()
	defer s.mu.Unlock()
	if !c.groTried {
		c.groTried = true
		var ok bool
		_ = c.rc.Control(func(fd uintptr) {
			ok = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
		})
		if ok {
			g := &groState{}
			for i := range g.bufs {
				g.bufs[i] = make([]byte, groBufSize)
				g.ctrls[i] = make([]byte, groCtrl)
			}
			c.gro = g
		}
	}
	if c.gro != nil {
		return c.readGRO(bufs, sizes, addrs)
	}
	n := len(bufs)
	if n > maxChunk {
		n = maxChunk
	}
	s.ensure(n)
	for i := 0; i < n; i++ {
		s.iov[i] = syscall.Iovec{Base: &bufs[i][0], Len: uint64(len(bufs[i]))}
		h := &s.hdrs[i].hdr
		*h = syscall.Msghdr{Iov: &s.iov[i], Iovlen: 1}
		if addrs != nil {
			s.names[i] = syscall.RawSockaddrInet6{}
			h.Name = (*byte)(unsafe.Pointer(&s.names[i]))
			h.Namelen = uint32(unsafe.Sizeof(s.names[i]))
		}
		s.hdrs[i].len = 0
	}
	s.sysN, s.sysRet, s.sysErr = n, 0, 0
	err := c.rc.Read(s.do)
	if err != nil {
		return 0, err
	}
	if s.sysErr != 0 {
		return 0, &net.OpError{Op: "read", Net: "udp", Err: os.NewSyscallError("recvmmsg", s.sysErr)}
	}
	got := s.sysRet
	for i := 0; i < got; i++ {
		sizes[i] = int(s.hdrs[i].len)
		if addrs != nil {
			decodeSockaddr(&addrs[i], &s.names[i])
		}
	}
	return got, nil
}

// readGRO is the receive path once offload is armed: serve the queue of
// already-split datagrams first, else recvmmsg a stride of (possibly
// coalesced) messages, split each back into its original datagrams, and
// serve from the refilled queue. Called with rd.mu held.
func (c *sysConn) readGRO(bufs [][]byte, sizes []int, addrs []net.UDPAddr) (int, error) {
	g := c.gro
	if n := g.serve(bufs, sizes, addrs); n > 0 {
		return n, nil
	}
	s := &c.rd
	n := groStride
	s.ensure(n)
	for i := 0; i < n; i++ {
		s.iov[i] = syscall.Iovec{Base: &g.bufs[i][0], Len: groBufSize}
		h := &s.hdrs[i].hdr
		*h = syscall.Msghdr{
			Iov:        &s.iov[i],
			Iovlen:     1,
			Control:    &g.ctrls[i][0],
			Controllen: groCtrl,
		}
		s.names[i] = syscall.RawSockaddrInet6{}
		h.Name = (*byte)(unsafe.Pointer(&s.names[i]))
		h.Namelen = uint32(unsafe.Sizeof(s.names[i]))
		s.hdrs[i].len = 0
	}
	s.sysN, s.sysRet, s.sysErr = n, 0, 0
	err := c.rc.Read(s.do)
	if err != nil {
		return 0, err
	}
	if s.sysErr != 0 {
		return 0, &net.OpError{Op: "read", Net: "udp", Err: os.NewSyscallError("recvmmsg", s.sysErr)}
	}
	got := s.sysRet
	for i := 0; i < got; i++ {
		mlen := int(s.hdrs[i].len)
		decodeSockaddr(&g.peer, &s.names[i])
		seg := groSegSize(g.ctrls[i], int(s.hdrs[i].hdr.Controllen))
		if seg <= 0 || seg >= mlen {
			g.push(g.bufs[i][:mlen])
			continue
		}
		for off := 0; off < mlen; off += seg {
			end := off + seg
			if end > mlen {
				end = mlen
			}
			g.push(g.bufs[i][off:end])
		}
	}
	return g.serve(bufs, sizes, addrs), nil
}

// serve copies queued datagrams into the caller's buffers, oldest
// first, and returns how many it delivered.
func (g *groState) serve(bufs [][]byte, sizes []int, addrs []net.UDPAddr) int {
	filled := 0
	for filled < len(bufs) && g.head < len(g.pending) {
		seg := &g.pending[g.head]
		sizes[filled] = copy(bufs[filled], seg.buf)
		if addrs != nil {
			setAddr(&addrs[filled], seg.addr.IP, seg.addr.Port, seg.addr.Zone)
		}
		g.pool = append(g.pool, seg.buf)
		seg.buf = nil
		g.head++
		filled++
	}
	if g.head == len(g.pending) {
		g.pending = g.pending[:0]
		g.head = 0
	}
	return filled
}

// push queues one split-out datagram (copying it — the scratch buffer
// is reused by the next syscall), stamped with the current message's
// sender. Entry buffers and address backing recycle through the pool.
func (g *groState) push(p []byte) {
	if len(g.pending) < cap(g.pending) {
		g.pending = g.pending[:len(g.pending)+1]
	} else {
		g.pending = append(g.pending, groSeg{})
	}
	e := &g.pending[len(g.pending)-1]
	var b []byte
	if n := len(g.pool); n > 0 {
		b = g.pool[n-1]
		g.pool = g.pool[:n-1]
	}
	if cap(b) < len(p) {
		c := len(p)
		if c < 2048 {
			c = 2048
		}
		b = make([]byte, 0, c)
	}
	e.buf = append(b[:0], p...)
	setAddr(&e.addr, g.peer.IP, g.peer.Port, g.peer.Zone)
}

// groSegSize walks a control buffer for the UDP_GRO message carrying
// the coalesced segment size; 0 means the datagram arrived uncoalesced.
func groSegSize(ctrl []byte, n int) int {
	if n > len(ctrl) {
		n = len(ctrl)
	}
	for off := 0; off+16 <= n; {
		l := int(*(*uint64)(unsafe.Pointer(&ctrl[off])))
		if l < 16 || off+l > n {
			return 0
		}
		level := *(*int32)(unsafe.Pointer(&ctrl[off+8]))
		typ := *(*int32)(unsafe.Pointer(&ctrl[off+12]))
		if level == solUDP && typ == udpGRO && l >= 16+4 {
			return int(*(*int32)(unsafe.Pointer(&ctrl[off+16])))
		}
		off += (l + 7) &^ 7
	}
	return 0
}

// read is the single-datagram path. Before ReadBatch ever runs it is a
// plain connection read; afterwards it must drain the offload queue, so
// it serves one split-out datagram per call with identical semantics.
func (c *sysConn) read(u *net.UDPConn, buf []byte) (int, error) {
	c.rd.mu.Lock()
	if g := c.gro; g != nil {
		g.one[0] = buf
		_, err := c.readGRO(g.one[:], g.oneSize[:], nil)
		g.one[0] = nil
		n := g.oneSize[0]
		c.rd.mu.Unlock()
		if err != nil {
			return 0, err
		}
		return n, nil
	}
	c.rd.mu.Unlock()
	return u.Read(buf)
}

func (c *sysConn) writeBatch(u *net.UDPConn, pkts [][]byte, addrs []*net.UDPAddr) (int, error) {
	s := &c.wr
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for total < len(pkts) {
		// A run of same-destination, same-size packets collapses into
		// segmented super-datagrams; anything else goes via sendmmsg up
		// to where the next such run starts.
		if !c.gsoOff {
			if run, seg := gsoRun(pkts, addrs, total); run > 0 {
				n, err, handled := c.writeGSO(pkts[total:total+run], seg, addrAt(addrs, total))
				if handled {
					total += n
					if err != nil {
						return total, err
					}
					continue
				}
			}
		}
		end := total + 1
		if !c.gsoOff {
			for end < len(pkts) {
				if run, _ := gsoRun(pkts, addrs, end); run > 0 {
					break
				}
				end++
			}
		} else {
			end = len(pkts)
		}
		sent, err := c.sendMMsg(pkts[total:end], sliceAddrs(addrs, total, end))
		total += sent
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// sendMMsg transmits pkts via sendmmsg in maxChunk slices. addrs is
// nil for a connected socket, else one destination per packet.
func (c *sysConn) sendMMsg(pkts [][]byte, addrs []*net.UDPAddr) (int, error) {
	s := &c.wr
	total := 0
	for total < len(pkts) {
		n := len(pkts) - total
		if n > maxChunk {
			n = maxChunk
		}
		s.ensure(n)
		for i := 0; i < n; i++ {
			pkt := pkts[total+i]
			s.iov[i] = syscall.Iovec{Base: &pkt[0], Len: uint64(len(pkt))}
			h := &s.hdrs[i].hdr
			*h = syscall.Msghdr{Iov: &s.iov[i], Iovlen: 1}
			if addrs != nil && addrs[total+i] != nil {
				nl, err := encodeSockaddr(&s.names[i], addrs[total+i], c.v6)
				if err != nil {
					return total, err
				}
				h.Name = (*byte)(unsafe.Pointer(&s.names[i]))
				h.Namelen = nl
			}
			s.hdrs[i].len = 0
		}
		s.sysN, s.sysRet, s.sysErr = n, 0, 0
		err := c.rc.Write(s.do)
		if err != nil {
			return total, err
		}
		if s.sysErr != 0 {
			return total, &net.OpError{Op: "write", Net: "udp", Err: os.NewSyscallError("sendmmsg", s.sysErr)}
		}
		if s.sysRet == 0 {
			return total, errors.New("netbatch: sendmmsg made no progress")
		}
		total += s.sysRet
	}
	return total, nil
}

// addrAt returns the destination for packet i, nil on connected sends.
func addrAt(addrs []*net.UDPAddr, i int) *net.UDPAddr {
	if addrs == nil {
		return nil
	}
	return addrs[i]
}

func sliceAddrs(addrs []*net.UDPAddr, lo, hi int) []*net.UDPAddr {
	if addrs == nil {
		return nil
	}
	return addrs[lo:hi]
}

func sameDest(a, b *net.UDPAddr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a == b || (a.Port == b.Port && a.Zone == b.Zone && a.IP.Equal(b.IP))
}

// gsoRun reports the length and segment size of the GSO-able run
// starting at pkts[i]: two or more packets to one destination, every
// one the first packet's non-zero size except possibly a shorter final
// one. run == 0 means no such run starts at i.
func gsoRun(pkts [][]byte, addrs []*net.UDPAddr, i int) (run, seg int) {
	seg = len(pkts[i])
	if seg == 0 {
		return 0, 0
	}
	dst := addrAt(addrs, i)
	j := i + 1
	for j < len(pkts) && len(pkts[j]) == seg && sameDest(dst, addrAt(addrs, j)) {
		j++
	}
	// One shorter same-destination packet may ride along as the run's
	// tail segment.
	if j < len(pkts) && len(pkts[j]) > 0 && len(pkts[j]) < seg && sameDest(dst, addrAt(addrs, j)) {
		j++
	}
	if j-i < 2 {
		return 0, 0
	}
	return j - i, seg
}

// putGSOCmsg encodes {cmsghdr{CMSG_LEN(2), SOL_UDP, UDP_SEGMENT},
// uint16(seg)} — the per-call segmentation request, so the socket
// itself is never left in a segmenting state that would corrupt a
// later single-packet Write.
func putGSOCmsg(b []byte, seg uint16) {
	*(*uint64)(unsafe.Pointer(&b[0])) = 18 // CMSG_LEN(sizeof(uint16))
	*(*int32)(unsafe.Pointer(&b[8])) = solUDP
	*(*int32)(unsafe.Pointer(&b[12])) = udpSegment
	*(*uint16)(unsafe.Pointer(&b[16])) = seg
}

// writeGSO sends pkts to one destination (dst, or the connected peer
// when dst is nil) as segmented super-datagrams, at most gsoMaxSegs
// packets per sendmsg. Called with wr.mu held. handled == false means
// the kernel lacks UDP_SEGMENT and nothing was sent — the caller falls
// back to sendmmsg (and remembers, via gsoOff, not to retry).
func (c *sysConn) writeGSO(pkts [][]byte, seg int, dst *net.UDPAddr) (total int, err error, handled bool) {
	maxSegs := gsoMaxSegs
	if m := gsoMaxPayload / seg; m < maxSegs {
		maxSegs = m
	}
	if maxSegs < 2 {
		return 0, nil, false
	}
	s := &c.wr
	if cap(s.gso) < maxSegs*seg {
		s.gso = make([]byte, 0, maxSegs*seg)
	}
	putGSOCmsg(s.cmsg[:], uint16(seg))
	var namePtr *byte
	var nameLen uint32
	if dst != nil {
		nl, err := encodeSockaddr(&s.name, dst, c.v6)
		if err != nil {
			return 0, err, true
		}
		namePtr = (*byte)(unsafe.Pointer(&s.name))
		nameLen = nl
	}
	for total < len(pkts) {
		end := total + maxSegs
		if end > len(pkts) {
			end = len(pkts)
		}
		buf := s.gso[:0]
		for _, p := range pkts[total:end] {
			buf = append(buf, p...)
		}
		s.gso = buf[:cap(buf)]
		s.gsoLen = len(buf)
		s.gsoName = namePtr
		s.gsoNLen = nameLen
		s.sysRet, s.sysErr = 0, 0
		werr := c.rc.Write(s.doGSO)
		if werr != nil {
			return total, werr, true
		}
		if s.sysErr != 0 {
			if total == 0 {
				// Nothing sent yet: treat any refusal as "no GSO here"
				// (ENOPROTOOPT/EINVAL on older kernels) and retry the
				// whole batch via sendmmsg.
				c.gsoOff = true
				return 0, nil, false
			}
			return total, &net.OpError{Op: "write", Net: "udp", Err: os.NewSyscallError("sendmsg", s.sysErr)}, true
		}
		// The kernel takes a super-datagram whole or not at all; a short
		// count would mean a torn segment, so surface it loudly.
		if s.sysRet != len(buf) {
			return total + s.sysRet/seg, errors.New("netbatch: short gso send"), true
		}
		total = end
	}
	return total, nil, true
}

func decodeSockaddr(dst *net.UDPAddr, raw *syscall.RawSockaddrInet6) {
	switch raw.Family {
	case syscall.AF_INET:
		a4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(raw))
		setAddr(dst, a4.Addr[:], int(ntohs(a4.Port)), "")
	case syscall.AF_INET6:
		setAddr(dst, raw.Addr[:], int(ntohs(raw.Port)), "")
	default:
		setAddr(dst, nil, 0, "")
	}
}

// encodeSockaddr fills raw for a destination, matching the socket's
// family: a 4-byte IP on a v6 socket becomes v4-mapped, as the kernel
// itself would present it. IPv6 zone names are not resolved — the
// transports here speak to loopback or global addresses.
func encodeSockaddr(raw *syscall.RawSockaddrInet6, a *net.UDPAddr, v6 bool) (uint32, error) {
	if !v6 {
		ip4 := a.IP.To4()
		if ip4 == nil {
			return 0, errors.New("netbatch: IPv6 destination on an IPv4 socket")
		}
		a4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(raw))
		*a4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: htons(uint16(a.Port))}
		copy(a4.Addr[:], ip4)
		return uint32(unsafe.Sizeof(*a4)), nil
	}
	ip16 := a.IP.To16()
	if ip16 == nil {
		return 0, errors.New("netbatch: destination has no IP")
	}
	*raw = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: htons(uint16(a.Port))}
	copy(raw.Addr[:], ip16)
	return uint32(unsafe.Sizeof(*raw)), nil
}

func htons(p uint16) uint16 { return p>>8 | p<<8 }
func ntohs(p uint16) uint16 { return p>>8 | p<<8 }
