package elements

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/packet"
)

// CheckIPHeader validates IPv4 headers: version, header length, total
// length, checksum, and source addresses that may never appear on the
// wire (configured "bad" addresses — typically 0.0.0.0 and
// 255.255.255.255 plus local broadcasts). Valid packets continue on
// output 0 with their network-header annotation set; invalid packets go
// to output 1 or are dropped.
type CheckIPHeader struct {
	core.Base
	bad  map[packet.IP4]bool
	Bad  int64
	Good int64
}

// Configure accepts an optional space-separated list of bad source
// addresses.
func (e *CheckIPHeader) Configure(args []string) error {
	e.bad = map[packet.IP4]bool{
		{0, 0, 0, 0}:         true,
		{255, 255, 255, 255}: true,
	}
	if len(args) > 1 {
		return fmt.Errorf("CheckIPHeader: too many arguments")
	}
	if len(args) == 1 && args[0] != "" {
		for _, f := range strings.Fields(args[0]) {
			ip, err := packet.ParseIP4(f)
			if err != nil {
				return fmt.Errorf("CheckIPHeader: %v", err)
			}
			e.bad[ip] = true
		}
	}
	return nil
}

// valid is the header check itself, shared with IPInputCombo: it
// reports whether p starts with a sound IPv4 header from an acceptable
// source, and on success sets the network-header annotation and trims
// link-layer padding beyond the IP total length.
func (e *CheckIPHeader) valid(p *packet.Packet) bool {
	d := p.Data()
	if len(d) < packet.IPHeaderMinLen {
		return false
	}
	h := packet.IP4Header(d)
	hl := h.HeaderLen()
	if h.Version() != 4 || hl < packet.IPHeaderMinLen || hl > len(d) {
		return false
	}
	tl := h.TotalLen()
	if tl < hl || tl > len(d) || !h.ChecksumOK() || e.bad[h.Src()] {
		return false
	}
	p.Anno.NetworkOffset = 0
	if tl < p.Len() {
		p.Take(p.Len() - tl)
	}
	return true
}

// SimpleAction validates the header; failures leave on output 1.
func (e *CheckIPHeader) SimpleAction(p *packet.Packet) *packet.Packet {
	e.MemFetch(1) // first touch of the packet's IP header
	if !e.valid(p) {
		atomic.AddInt64(&e.Bad, 1)
		e.CheckedPush(1, p)
		return nil
	}
	atomic.AddInt64(&e.Good, 1)
	return p
}

// GetIPAddress copies the IP address at a byte offset into the
// destination-IP annotation (offset 16 reads the IP header's
// destination field).
type GetIPAddress struct {
	core.Base
	offset int
}

// Configure accepts the byte offset.
func (e *GetIPAddress) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("GetIPAddress: expects OFFSET")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 0 {
		return fmt.Errorf("GetIPAddress: bad offset %q", args[0])
	}
	e.offset = n
	return nil
}

// SimpleAction annotates.
func (e *GetIPAddress) SimpleAction(p *packet.Packet) *packet.Packet {
	d := p.Data()
	if len(d) >= e.offset+4 {
		copy(p.Anno.DstIPAnno[:], d[e.offset:e.offset+4])
	}
	return p
}

// route is one LookupIPRoute table entry.
type route struct {
	dst     uint32
	mask    uint32
	maskLen int
	gw      packet.IP4
	port    int
}

// LookupIPRoute performs longest-prefix-match routing on the
// destination-IP annotation. Each configuration argument is
// "ADDR/LEN [GW] PORT"; a non-zero gateway replaces the annotation
// (next hop), and the packet leaves on the route's output port.
type LookupIPRoute struct {
	core.Base
	routes  []route
	NoRoute int64
	Lookups int64
}

// parseRouteArg parses one "ADDR/LEN [GW] PORT" route specification.
func parseRouteArg(arg string) (route, error) {
	fields := strings.Fields(arg)
	if len(fields) != 2 && len(fields) != 3 {
		return route{}, fmt.Errorf("want \"ADDR/LEN [GW] PORT\", got %q", arg)
	}
	addrStr := fields[0]
	prefixLen := 32
	if slash := strings.IndexByte(addrStr, '/'); slash >= 0 {
		n, err := strconv.Atoi(addrStr[slash+1:])
		if err != nil || n < 0 || n > 32 {
			return route{}, fmt.Errorf("bad prefix %q", addrStr)
		}
		prefixLen = n
		addrStr = addrStr[:slash]
	}
	addr, err := packet.ParseIP4(addrStr)
	if err != nil {
		return route{}, err
	}
	var gw packet.IP4
	portStr := fields[len(fields)-1]
	if len(fields) == 3 {
		if gw, err = packet.ParseIP4(fields[1]); err != nil {
			return route{}, err
		}
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port < 0 {
		return route{}, fmt.Errorf("bad port %q", portStr)
	}
	mask := uint32(0)
	if prefixLen > 0 {
		mask = ^uint32(0) << (32 - prefixLen)
	}
	return route{dst: addr.Uint32() & mask, mask: mask, maskLen: prefixLen, gw: gw, port: port}, nil
}

// Configure parses the route table.
func (e *LookupIPRoute) Configure(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("LookupIPRoute: expects at least one route")
	}
	for i, arg := range args {
		r, err := parseRouteArg(arg)
		if err != nil {
			return fmt.Errorf("LookupIPRoute: route %d: %v", i, err)
		}
		e.routes = append(e.routes, r)
	}
	return nil
}

// AddRoute appends a route at runtime and bumps the route guard so any
// flow fast path re-validates against the new table.
func (e *LookupIPRoute) AddRoute(arg string) error {
	r, err := parseRouteArg(arg)
	if err != nil {
		return fmt.Errorf("LookupIPRoute: %v", err)
	}
	e.routes = append(e.routes, r)
	e.BumpGuard(core.GuardRoute)
	return nil
}

// RemoveRoute deletes every route whose prefix matches "ADDR/LEN" and
// bumps the route guard. Removing a route that is not present is an
// error (matching Click's ctrl handler behavior).
func (e *LookupIPRoute) RemoveRoute(arg string) error {
	// Parse via the common path by appending a dummy port.
	r, err := parseRouteArg(strings.TrimSpace(arg) + " 0")
	if err != nil {
		return fmt.Errorf("LookupIPRoute: %v", err)
	}
	kept := e.routes[:0]
	removed := 0
	for _, have := range e.routes {
		if have.dst == r.dst && have.maskLen == r.maskLen {
			removed++
			continue
		}
		kept = append(kept, have)
	}
	e.routes = kept
	if removed == 0 {
		return fmt.Errorf("LookupIPRoute: no route %s", strings.TrimSpace(arg))
	}
	e.BumpGuard(core.GuardRoute)
	return nil
}

// Lookup returns the route for an address (longest prefix wins).
func (e *LookupIPRoute) Lookup(a packet.IP4) (route, bool) {
	v := a.Uint32()
	best := -1
	bestLen := -1
	for i, r := range e.routes {
		if v&r.mask == r.dst && r.maskLen > bestLen {
			best, bestLen = i, r.maskLen
		}
	}
	if best < 0 {
		return route{}, false
	}
	return e.routes[best], true
}

// PushBatch routes on the destination annotation.
func (e *LookupIPRoute) PushBatch(port int, ps []*packet.Packet) {
	pushRun(routeRuns(&e.Base, e, ps))
}

func (e *LookupIPRoute) route(p *packet.Packet) int {
	e.Work()
	e.Charge(int64(len(e.routes)) * costLookupPerRoute)
	atomic.AddInt64(&e.Lookups, 1)
	dst := nextHop(p)
	r, ok := e.Lookup(dst)
	return routedPort(&e.Base, &e.NoRoute, r, ok, dst, p)
}

// nextHop returns the address p is forwarded towards: the destination
// annotation, or the IP header's destination when no element set one.
func nextHop(p *packet.Packet) packet.IP4 {
	if dst := p.Anno.DstIPAnno; !dst.IsZero() {
		return dst
	}
	return headerDst(p)
}

func headerDst(p *packet.Packet) (dst packet.IP4) {
	if ih, ok := p.IPHeader(); ok {
		dst = ih.Dst()
	}
	return dst
}

// routedPort is the forwarding decision of both routing elements, given
// the route r their table holds for p's next hop dst: leave the gateway
// (or dst itself, for a directly connected route) in the annotation and
// return the route's port of b. A miss is counted and returns -1.
func routedPort(b *core.Base, noRoute *int64, r route, ok bool, dst packet.IP4, p *packet.Packet) int {
	if !ok || r.port >= b.NOutputs() {
		atomic.AddInt64(noRoute, 1)
		return -1
	}
	if !r.gw.IsZero() {
		dst = r.gw
	}
	p.Anno.DstIPAnno = dst
	return r.port
}

// DropBroadcasts drops packets that arrived as link-level broadcasts —
// a router must not forward them (RFC 1812).
type DropBroadcasts struct {
	core.Base
	Drops int64
}

// linkBroadcast is the test DropBroadcasts and IPOutputCombo apply.
func linkBroadcast(p *packet.Packet) bool { return p.Anno.MACBroadcast }

// SimpleAction filters on the MACBroadcast annotation.
func (e *DropBroadcasts) SimpleAction(p *packet.Packet) *packet.Packet {
	if linkBroadcast(p) {
		atomic.AddInt64(&e.Drops, 1)
		e.Drop(p)
		return nil
	}
	return p
}

// IPGWOptions processes IP options a gateway must handle (record route,
// timestamp). Packets with malformed options go to output 1; packets
// without options (header length 20) pass through untouched.
type IPGWOptions struct {
	core.Base
	myIP packet.IP4
	Bad  int64
}

// parseMyAddr parses the single MYADDR argument naming the router's
// address on an interface.
func parseMyAddr(class string, args []string) (packet.IP4, error) {
	if len(args) != 1 {
		return packet.IP4{}, fmt.Errorf("%s: expects MYADDR", class)
	}
	return packet.ParseIP4(args[0])
}

// Configure accepts the router's address for record-route/timestamp
// slots.
func (e *IPGWOptions) Configure(args []string) (err error) {
	e.myIP, err = parseMyAddr("IPGWOptions", args)
	return err
}

// SimpleAction processes options; malformed ones leave on output 1.
func (e *IPGWOptions) SimpleAction(p *packet.Packet) *packet.Packet {
	h, ok := p.IPHeader()
	if !ok {
		e.Drop(p)
		return nil
	}
	if !e.processOptions(h) {
		atomic.AddInt64(&e.Bad, 1)
		e.CheckedPush(1, p)
		return nil
	}
	return p
}

// processOptions handles the options of h, if it has any, and returns
// false on a malformed one. IPOutputCombo shares it.
func (e *IPGWOptions) processOptions(h packet.IP4Header) bool {
	return h.HeaderLen() == packet.IPHeaderMinLen || e.walkOptions(h)
}

// walkOptions walks the options area, filling record-route slots.
func (e *IPGWOptions) walkOptions(h packet.IP4Header) bool {
	opts := h[packet.IPHeaderMinLen:h.HeaderLen()]
	changed := false
	for i := 0; i < len(opts); {
		switch opts[i] {
		case 0: // end of options
			i = len(opts)
		case 1: // no-op
			i++
		case 7: // record route
			if i+2 >= len(opts) {
				return false
			}
			olen, ptr := int(opts[i+1]), int(opts[i+2])
			if olen < 3 || i+olen > len(opts) {
				return false
			}
			if ptr >= 4 && ptr-1+4 <= olen {
				copy(opts[i+ptr-1:], e.myIP[:])
				opts[i+2] = byte(ptr + 4)
				changed = true
			}
			i += olen
		default:
			if i+1 >= len(opts) {
				return false
			}
			olen := int(opts[i+1])
			if olen < 2 || i+olen > len(opts) {
				return false
			}
			i += olen
		}
	}
	if changed {
		h.UpdateChecksum()
	}
	return true
}

// FixIPSrc rewrites the source address of packets carrying the
// fix-IP-src annotation (ICMP errors generated inside the router) to
// the output interface's address.
type FixIPSrc struct {
	core.Base
	myIP packet.IP4
}

// Configure accepts the interface address.
func (e *FixIPSrc) Configure(args []string) (err error) {
	e.myIP, err = parseMyAddr("FixIPSrc", args)
	return err
}

// SimpleAction rewrites flagged packets.
func (e *FixIPSrc) SimpleAction(p *packet.Packet) *packet.Packet {
	if p.Anno.FixIPSrc {
		e.rewrite(p)
	}
	return p
}

func (e *FixIPSrc) rewrite(p *packet.Packet) {
	if h, ok := p.IPHeader(); ok {
		h.SetSrc(e.myIP)
		h.UpdateChecksum()
	}
	p.Anno.FixIPSrc = false
}

// DecIPTTL decrements the TTL with an incremental checksum update;
// expired packets (TTL <= 1) go to output 1 for an ICMP time-exceeded
// error.
type DecIPTTL struct {
	core.Base
	Expired int64
}

// decTTL decrements the TTL of p, whose IP header is h, on a private
// copy of the data; false means the TTL has run out and p is untouched.
// DecIPTTL and IPOutputCombo share it.
func decTTL(p *packet.Packet, h packet.IP4Header) bool {
	if h.TTL() <= 1 {
		return false
	}
	p.Uniqueify()
	h, _ = p.IPHeader()
	h.DecTTLIncremental()
	return true
}

// SimpleAction decrements or expires.
func (e *DecIPTTL) SimpleAction(p *packet.Packet) *packet.Packet {
	h, ok := p.IPHeader()
	if !ok {
		e.Drop(p)
		return nil
	}
	if !decTTL(p, h) {
		atomic.AddInt64(&e.Expired, 1)
		e.CheckedPush(1, p)
		return nil
	}
	return p
}

// IPFragmenter splits packets larger than the MTU into fragments;
// packets with the don't-fragment flag go to output 1 for an ICMP
// "fragmentation needed" error.
type IPFragmenter struct {
	core.Base
	mtu       int
	Fragments int64
	DFDrops   int64
}

// Configure accepts the MTU.
func (e *IPFragmenter) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("IPFragmenter: expects MTU")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 68 {
		return fmt.Errorf("IPFragmenter: bad MTU %q", args[0])
	}
	e.mtu = n
	return nil
}

// PushBatch forwards, fragments, or rejects each packet. Packets that
// fit leave as one compacted batch on output 0; pending ones are flushed
// before a packet is fragmented, so output-0 order is arrival order.
func (e *IPFragmenter) PushBatch(port int, ps []*packet.Packet) {
	k := 0
	for _, p := range ps {
		e.Work()
		if p.Len() <= e.mtu {
			ps[k] = p
			k++
			continue
		}
		switch h, ok := p.IPHeader(); {
		case !ok:
			e.Drop(p)
		case h.DontFragment():
			atomic.AddInt64(&e.DFDrops, 1)
			e.CheckedPush(1, p)
		default:
			e.Output(0).PushBatch(ps[:k])
			k = 0
			e.fragment(p, h, e.Output(0))
		}
	}
	e.Output(0).PushBatch(ps[:k])
}

// fragment splits p, whose IP header is h, into MTU-sized fragments
// pushed on out, and kills p. IPOutputCombo shares it.
func (e *IPFragmenter) fragment(p *packet.Packet, h packet.IP4Header, out *core.OutPort) {
	hl := h.HeaderLen()
	payload := p.Data()[hl:]
	// Fragment payload size: multiple of 8.
	per := (e.mtu - hl) &^ 7
	origOff := h.FragOff()
	more := h.MoreFragments()
	for off := 0; off < len(payload); off += per {
		end := off + per
		last := false
		if end >= len(payload) {
			end = len(payload)
			last = true
		}
		frag := packet.Make(packet.DefaultHeadroom, hl+(end-off), packet.DefaultTailroom)
		d := frag.Data()
		copy(d[:hl], h[:hl])
		copy(d[hl:], payload[off:end])
		fh := packet.IP4Header(d)
		fh.SetTotalLen(hl + (end - off))
		fo := (origOff & 0xe000) | ((origOff & 0x1fff) + uint16(off/8))
		if !last || more {
			fo |= 0x2000 // more fragments
		}
		fh.SetFragOff(fo)
		fh.UpdateChecksum()
		frag.Anno = p.Anno
		frag.Anno.NetworkOffset = 0
		atomic.AddInt64(&e.Fragments, 1)
		out.Push(frag)
	}
	p.Kill()
}

// ICMPError encapsulates a received packet in an ICMP error message
// addressed to its source, marks it for source-address rewriting, and
// emits it (the IP router feeds these back into the routing table).
type ICMPError struct {
	core.Base
	myIP      packet.IP4
	icmpType  int
	icmpCode  int
	Generated int64
}

// Configure accepts MYADDR TYPE CODE (numeric or symbolic type).
func (e *ICMPError) Configure(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("ICMPError: expects MYADDR TYPE CODE")
	}
	var err error
	if e.myIP, err = packet.ParseIP4(args[0]); err != nil {
		return err
	}
	switch args[1] {
	case "timeexceeded":
		e.icmpType = packet.ICMPTimeExceeded
	case "unreachable":
		e.icmpType = packet.ICMPUnreachable
	case "redirect":
		e.icmpType = packet.ICMPRedirect
	case "parameterproblem":
		e.icmpType = packet.ICMPParameterProb
	default:
		if e.icmpType, err = strconv.Atoi(args[1]); err != nil {
			return fmt.Errorf("ICMPError: bad type %q", args[1])
		}
	}
	if e.icmpCode, err = strconv.Atoi(args[2]); err != nil {
		return fmt.Errorf("ICMPError: bad code %q", args[2])
	}
	return nil
}

// SimpleAction builds the error packet that takes p's place.
func (e *ICMPError) SimpleAction(p *packet.Packet) *packet.Packet {
	h, ok := p.IPHeader()
	if !ok {
		e.Drop(p)
		return nil
	}
	// Never generate errors about ICMP errors, fragments, broadcasts,
	// or bad sources (RFC 1812).
	if h.Proto() == packet.IPProtoICMP || h.FragOff()&0x1fff != 0 ||
		p.Anno.MACBroadcast || h.Src().IsZero() || h.Src().IsBroadcast() {
		e.Drop(p)
		return nil
	}
	src := h.Src()
	// Include the original IP header + 8 bytes of payload.
	quoted := h.HeaderLen() + 8
	if avail := p.Len() - p.Anno.NetworkOffsetOrZero(); quoted > avail {
		quoted = avail
	}
	n := packet.IPHeaderMinLen + packet.ICMPHeaderLen + quoted
	ep := packet.Make(packet.DefaultHeadroom, n, packet.DefaultTailroom)
	d := ep.Data()
	ih := packet.IP4Header(d)
	ih.SetVersionIHL(4, packet.IPHeaderMinLen)
	ih.SetTotalLen(n)
	ih.SetTTL(255)
	ih.SetProto(packet.IPProtoICMP)
	ih.SetSrc(e.myIP)
	ih.SetDst(src)
	ih.UpdateChecksum()
	icmp := d[packet.IPHeaderMinLen:]
	icmp[0] = byte(e.icmpType)
	icmp[1] = byte(e.icmpCode)
	copy(icmp[packet.ICMPHeaderLen:], h[:quoted])
	cs := packet.InternetChecksum(icmp)
	icmp[2], icmp[3] = byte(cs>>8), byte(cs)
	ep.Anno.NetworkOffset = 0
	ep.Anno.FixIPSrc = true
	ep.Anno.DstIPAnno = src
	p.Kill()
	atomic.AddInt64(&e.Generated, 1)
	return ep
}

// ICMPPingResponder answers ICMP echo requests addressed to the router:
// it swaps addresses, rewrites the type, fixes checksums, and emits the
// reply (which the configuration routes back through the table).
// Non-echo packets pass through to output 1 when connected, or are
// dropped.
type ICMPPingResponder struct {
	core.Base
	Replies int64
}

// SimpleAction answers echo requests; anything else leaves on output 1.
func (e *ICMPPingResponder) SimpleAction(p *packet.Packet) *packet.Packet {
	h, ok := p.IPHeader()
	hl := 0
	if ok {
		hl = h.HeaderLen()
		ok = h.Proto() == packet.IPProtoICMP && len(h) >= hl+packet.ICMPHeaderLen &&
			h[hl] == packet.ICMPEchoRequest
	}
	if !ok {
		e.CheckedPush(1, p)
		return nil
	}
	p.Uniqueify()
	h, _ = p.IPHeader()
	icmp := h[hl:]
	src, dst := h.Src(), h.Dst()
	h.SetSrc(dst)
	h.SetDst(src)
	h.SetTTL(255)
	h.UpdateChecksum()
	icmp[0] = packet.ICMPEchoReply
	icmp[2], icmp[3] = 0, 0
	cs := packet.InternetChecksum(icmp[:h.TotalLen()-hl])
	icmp[2], icmp[3] = byte(cs>>8), byte(cs)
	p.Anno.DstIPAnno = src
	p.Anno.Paint = 0 // replies never look like redirect candidates
	atomic.AddInt64(&e.Replies, 1)
	return p
}

// Handlers exports the reply count.
func (e *ICMPPingResponder) Handlers() []core.Handler {
	return []core.Handler{intHandler("count", func() int64 { return e.Replies })}
}
