package elements

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/packet"
)

// Paint sets the paint annotation; the IP router paints input packets
// with their arrival interface so CheckPaint can detect packets leaving
// the way they came (ICMP redirect).
type Paint struct {
	core.Base
	color byte
}

// parseColor parses the single paint color (0-255) argument every
// painting class takes.
func parseColor(class string, args []string) (byte, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("%s: expects COLOR", class)
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 0 || n > 255 {
		return 0, fmt.Errorf("%s: bad color %q", class, args[0])
	}
	return byte(n), nil
}

// Configure accepts the color (0-255).
func (e *Paint) Configure(args []string) (err error) {
	e.color, err = parseColor("Paint", args)
	return err
}

// SimpleAction paints.
func (e *Paint) SimpleAction(p *packet.Packet) *packet.Packet {
	p.Anno.Paint = e.color
	return p
}

// CheckPaint forwards every packet on output 0; packets whose paint
// matches the configured color additionally send a clone to output 1
// (the IP router wires that to an ICMP redirect generator).
type CheckPaint struct {
	core.Base
	color   byte
	Matched int64
}

// Configure accepts the color.
func (e *CheckPaint) Configure(args []string) (err error) {
	e.color, err = parseColor("CheckPaint", args)
	return err
}

// tee is the paint check itself, shared with IPOutputCombo: a packet
// painted e.color leaves a clone on output 1 of b, the element whose
// ports are in use, when that output is wired.
func (e *CheckPaint) tee(b *core.Base, p *packet.Packet) bool {
	match := p.Anno.Paint == e.color
	if match && b.NOutputs() > 1 {
		b.Output(1).Push(p.Clone())
	}
	return match
}

// SimpleAction checks the paint annotation.
func (e *CheckPaint) SimpleAction(p *packet.Packet) *packet.Packet {
	if e.tee(&e.Base, p) {
		atomic.AddInt64(&e.Matched, 1)
	}
	return p
}

// PaintTee clones matching packets to output 1 and forwards everything
// on output 0 (like CheckPaint, without the IP-router framing).
type PaintTee struct{ CheckPaint }

// Strip removes a fixed number of bytes from the front of each packet
// (the IP router strips the 14-byte Ethernet header).
type Strip struct {
	core.Base
	n int
}

// parseLength parses the single byte-count argument of Strip and
// Unstrip.
func parseLength(class string, args []string) (int, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf("%s: expects LENGTH", class)
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%s: bad length %q", class, args[0])
	}
	return n, nil
}

// Configure accepts the byte count.
func (e *Strip) Configure(args []string) (err error) {
	e.n, err = parseLength("Strip", args)
	return err
}

// strip is the step itself, shared with IPInputCombo; false means p is
// shorter than the strip length and untouched.
func (e *Strip) strip(p *packet.Packet) bool {
	if p.Len() < e.n {
		return false
	}
	p.Pull(e.n)
	return true
}

// SimpleAction strips; too-short packets are dropped.
func (e *Strip) SimpleAction(p *packet.Packet) *packet.Packet {
	if !e.strip(p) {
		e.Drop(p)
		return nil
	}
	return p
}

// Unstrip restores bytes previously stripped from the front.
type Unstrip struct {
	core.Base
	n int
}

// Configure accepts the byte count.
func (e *Unstrip) Configure(args []string) (err error) {
	e.n, err = parseLength("Unstrip", args)
	return err
}

// SimpleAction restores the bytes.
func (e *Unstrip) SimpleAction(p *packet.Packet) *packet.Packet {
	p.Push(e.n)
	return p
}

// EtherEncap prepends a fixed Ethernet header. ARP elimination (§7.2)
// replaces ARPQuerier with this on point-to-point links.
type EtherEncap struct {
	core.Base
	etherType uint16
	src, dst  packet.EtherAddr
}

// Configure accepts ETHERTYPE (hex) SRC DST.
func (e *EtherEncap) Configure(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("EtherEncap: expects ETHERTYPE SRC DST")
	}
	t, err := strconv.ParseUint(args[0], 16, 16)
	if err != nil {
		return fmt.Errorf("EtherEncap: bad ethertype %q", args[0])
	}
	e.etherType = uint16(t)
	if e.src, err = packet.ParseEther(args[1]); err != nil {
		return err
	}
	if e.dst, err = packet.ParseEther(args[2]); err != nil {
		return err
	}
	return nil
}

// SimpleAction encapsulates.
func (e *EtherEncap) SimpleAction(p *packet.Packet) *packet.Packet {
	encapEther(p, e.etherType, e.src, e.dst)
	return p
}

func encapEther(p *packet.Packet, etherType uint16, src, dst packet.EtherAddr) {
	d := p.Push(packet.EtherHeaderLen)
	eh := packet.Ether(d[:packet.EtherHeaderLen])
	eh.SetSrc(src)
	eh.SetDst(dst)
	eh.SetType(etherType)
}

// HostEtherFilter drops Ethernet packets not addressed to the host:
// output 0 gets packets for our address or broadcast/multicast; other
// packets go to output 1 or are dropped. It also sets the MACBroadcast
// annotation DropBroadcasts consumes.
type HostEtherFilter struct {
	core.Base
	addr packet.EtherAddr
}

// Configure accepts our Ethernet address.
func (e *HostEtherFilter) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("HostEtherFilter: expects ETH")
	}
	var err error
	e.addr, err = packet.ParseEther(args[0])
	return err
}

// SimpleAction filters on the destination MAC.
func (e *HostEtherFilter) SimpleAction(p *packet.Packet) *packet.Packet {
	eh, ok := p.EtherHeader()
	if !ok {
		e.Drop(p)
		return nil
	}
	dst := eh.Dst()
	switch {
	case dst == e.addr:
	case dst[0]&1 == 1: // broadcast or multicast
		p.Anno.MACBroadcast = true
	default:
		e.CheckedPush(1, p)
		return nil
	}
	return p
}

// ARPQuerier encapsulates IP packets in Ethernet headers found by ARP.
// Input 0 takes IP packets annotated with a next-hop address
// (GetIPAddress/LookupIPRoute set it); input 1 takes ARP responses.
// Output 0 emits Ethernet packets: encapsulated IP when the mapping is
// known, ARP queries otherwise (the IP packet is held, one deep per
// address, as in Click).
type ARPQuerier struct {
	core.Base
	ip   packet.IP4
	eth  packet.EtherAddr
	tbl  map[packet.IP4]packet.EtherAddr
	wait map[packet.IP4]*packet.Packet
	// Queries, Responses, and Drops instrument the element.
	Queries   int64
	Responses int64
	Drops     int64
}

// parseIPEth parses the IP ETH argument pair naming an interface.
func parseIPEth(class string, args []string) (ip packet.IP4, eth packet.EtherAddr, err error) {
	if len(args) != 2 {
		return ip, eth, fmt.Errorf("%s: expects IP ETH", class)
	}
	if ip, err = packet.ParseIP4(args[0]); err == nil {
		eth, err = packet.ParseEther(args[1])
	}
	return ip, eth, err
}

// Configure accepts our IP and Ethernet addresses.
func (e *ARPQuerier) Configure(args []string) (err error) {
	e.ip, e.eth, err = parseIPEth("ARPQuerier", args)
	e.tbl = map[packet.IP4]packet.EtherAddr{}
	e.wait = map[packet.IP4]*packet.Packet{}
	return err
}

// holdAndQuery takes the miss path: hold p (replacing any packet already
// waiting on next) and emit an ARP query. The hold outlives this push,
// so any flow-recording mark dies here: the release happens on a later
// response path.
func (e *ARPQuerier) holdAndQuery(next packet.IP4, p *packet.Packet) {
	p.Anno.FlowPending = nil
	old := e.wait[next]
	e.wait[next] = p
	if old != nil {
		atomic.AddInt64(&e.Drops, 1)
		e.Drop(old)
	}
	atomic.AddInt64(&e.Queries, 1)
	e.Output(0).Push(makeARP(packet.ARPOpRequest, packet.BroadcastEther, e.eth, e.ip, packet.EtherAddr{}, next))
}

// PushBatch handles IP packets (port 0) and ARP responses (port 1). IP
// packets whose mappings are known leave encapsulated in runs, as
// sub-batches; a miss takes the hold-and-query path.
func (e *ARPQuerier) PushBatch(port int, ps []*packet.Packet) {
	if port == 1 {
		for _, p := range ps {
			e.Work()
			e.handleResponse(p)
		}
		return
	}
	k := 0
	for _, p := range ps {
		e.Work()
		next := nextHop(p)
		ea, ok := e.tbl[next]
		if !ok {
			// Miss: emit pending hits first so output order is arrival
			// order.
			e.Output(0).PushBatch(ps[:k])
			k = 0
			e.holdAndQuery(next, p)
			continue
		}
		encapEther(p, packet.EtherTypeIP, e.eth, ea)
		ps[k] = p
		k++
	}
	e.Output(0).PushBatch(ps[:k])
}

// makeARP builds an Ethernet-framed ARP packet from srcEth/srcIP, sent
// to dstEth, about tgtEth/tgtIP.
func makeARP(op uint16, dstEth, srcEth packet.EtherAddr, srcIP packet.IP4, tgtEth packet.EtherAddr, tgtIP packet.IP4) *packet.Packet {
	q := packet.Make(packet.DefaultHeadroom, packet.EtherHeaderLen+packet.ARPHeaderLen, 0)
	d := q.Data()
	eh := packet.Ether(d[:packet.EtherHeaderLen])
	eh.SetDst(dstEth)
	eh.SetSrc(srcEth)
	eh.SetType(packet.EtherTypeARP)
	ah := packet.ARP(d[packet.EtherHeaderLen:])
	ah.InitARP()
	ah.SetOp(op)
	ah.SetSenderEther(srcEth)
	ah.SetSenderIP(srcIP)
	ah.SetTargetEther(tgtEth)
	ah.SetTargetIP(tgtIP)
	return q
}

func (e *ARPQuerier) handleResponse(p *packet.Packet) {
	ah, ok := p.ARPHeader(true)
	if !ok || ah.Op() != packet.ARPOpReply {
		e.Drop(p)
		return
	}
	ip := ah.SenderIP()
	eth := ah.SenderEther()
	e.tbl[ip] = eth
	held := e.wait[ip]
	if held != nil {
		delete(e.wait, ip)
	}
	e.BumpGuard(core.GuardARP)
	atomic.AddInt64(&e.Responses, 1)
	// The response is consumed here; telemetry counts it against the
	// conservation law like any other terminated packet.
	e.Drop(p)
	if held != nil {
		encapEther(held, packet.EtherTypeIP, e.eth, eth)
		e.Output(0).Push(held)
	}
}

// InsertEntry preloads an ARP table mapping (the simulator uses this to
// model an already-converged network).
func (e *ARPQuerier) InsertEntry(ip packet.IP4, eth packet.EtherAddr) {
	e.tbl[ip] = eth
	e.BumpGuard(core.GuardARP)
}

// ARPResponder replies to ARP requests for its configured address.
type ARPResponder struct {
	core.Base
	ip      packet.IP4
	eth     packet.EtherAddr
	Replies int64
}

// Configure accepts IP ETH.
func (e *ARPResponder) Configure(args []string) (err error) {
	e.ip, e.eth, err = parseIPEth("ARPResponder", args)
	return err
}

// SimpleAction answers ARP requests addressed to our IP with a reply
// that takes the request's place.
func (e *ARPResponder) SimpleAction(p *packet.Packet) *packet.Packet {
	ah, ok := p.ARPHeader(true)
	if !ok || ah.Op() != packet.ARPOpRequest || ah.TargetIP() != e.ip {
		e.Drop(p)
		return nil
	}
	reply := makeARP(packet.ARPOpReply, ah.SenderEther(), e.eth, e.ip, ah.SenderEther(), ah.SenderIP())
	p.Kill()
	atomic.AddInt64(&e.Replies, 1)
	return reply
}
