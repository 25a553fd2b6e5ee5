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

// Configure accepts the color (0-255).
func (e *Paint) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("Paint: expects COLOR")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 0 || n > 255 {
		return fmt.Errorf("Paint: bad color %q", args[0])
	}
	e.color = byte(n)
	return nil
}

// Push paints and forwards.
func (e *Paint) Push(port int, p *packet.Packet) {
	e.Work()
	p.Anno.Paint = e.color
	e.Output(0).Push(p)
}

// Pull pulls, paints, and returns.
func (e *Paint) Pull(port int) *packet.Packet {
	e.Work()
	p := e.Input(0).Pull()
	if p != nil {
		p.Anno.Paint = e.color
	}
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
func (e *CheckPaint) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("CheckPaint: expects COLOR")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 0 || n > 255 {
		return fmt.Errorf("CheckPaint: bad color %q", args[0])
	}
	e.color = byte(n)
	return nil
}

// Push checks the paint annotation.
func (e *CheckPaint) Push(port int, p *packet.Packet) {
	e.Work()
	if p.Anno.Paint == e.color {
		atomic.AddInt64(&e.Matched, 1)
		if e.NOutputs() > 1 {
			e.Output(1).Push(p.Clone())
		}
	}
	e.Output(0).Push(p)
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

// Configure accepts the byte count.
func (e *Strip) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("Strip: expects LENGTH")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 0 {
		return fmt.Errorf("Strip: bad length %q", args[0])
	}
	e.n = n
	return nil
}

// Push strips and forwards.
func (e *Strip) Push(port int, p *packet.Packet) {
	e.Work()
	if p.Len() < e.n {
		e.Drop(p)
		return
	}
	p.Pull(e.n)
	e.Output(0).Push(p)
}

// Unstrip restores bytes previously stripped from the front.
type Unstrip struct {
	core.Base
	n int
}

// Configure accepts the byte count.
func (e *Unstrip) Configure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("Unstrip: expects LENGTH")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 0 {
		return fmt.Errorf("Unstrip: bad length %q", args[0])
	}
	e.n = n
	return nil
}

// Push restores bytes and forwards.
func (e *Unstrip) Push(port int, p *packet.Packet) {
	e.Work()
	p.Push(e.n)
	e.Output(0).Push(p)
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

// Push encapsulates and forwards.
func (e *EtherEncap) Push(port int, p *packet.Packet) {
	e.Work()
	encapEther(p, e.etherType, e.src, e.dst)
	e.Output(0).Push(p)
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

// Push filters on the destination MAC.
func (e *HostEtherFilter) Push(port int, p *packet.Packet) {
	e.Work()
	eh, ok := p.EtherHeader()
	if !ok {
		e.Drop(p)
		return
	}
	dst := eh.Dst()
	switch {
	case dst == e.addr:
		e.Output(0).Push(p)
	case dst[0]&1 == 1: // broadcast or multicast
		p.Anno.MACBroadcast = true
		e.Output(0).Push(p)
	case e.NOutputs() > 1:
		e.Output(1).Push(p)
	default:
		e.Drop(p)
	}
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

// Configure accepts our IP and Ethernet addresses.
func (e *ARPQuerier) Configure(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("ARPQuerier: expects IP ETH")
	}
	var err error
	if e.ip, err = packet.ParseIP4(args[0]); err != nil {
		return err
	}
	if e.eth, err = packet.ParseEther(args[1]); err != nil {
		return err
	}
	e.tbl = map[packet.IP4]packet.EtherAddr{}
	e.wait = map[packet.IP4]*packet.Packet{}
	return nil
}

// Push handles IP packets (port 0) and ARP responses (port 1).
func (e *ARPQuerier) Push(port int, p *packet.Packet) {
	e.Work()
	if port == 1 {
		e.handleResponse(p)
		return
	}
	next := p.Anno.DstIPAnno
	if next.IsZero() {
		// Fall back to the IP header destination.
		if ih, ok := p.IPHeader(); ok {
			next = ih.Dst()
		}
	}
	if ea, ok := e.tbl[next]; ok {
		encapEther(p, packet.EtherTypeIP, e.eth, ea)
		e.Output(0).Push(p)
		return
	}
	// Unknown: hold the packet (replacing any previous) and query. The
	// hold outlives this push, so any flow-recording mark dies here: the
	// release happens on a later response path.
	p.Anno.FlowPending = nil
	old := e.wait[next]
	e.wait[next] = p
	if old != nil {
		atomic.AddInt64(&e.Drops, 1)
		e.Drop(old)
	}
	atomic.AddInt64(&e.Queries, 1)
	e.Output(0).Push(e.makeQuery(next))
}

// PushBatch encapsulates a batch of IP packets, forwarding runs whose
// mappings are known as sub-batches; misses fall back to the scalar
// hold-and-query path. ARP responses (port 1) are always scalar.
func (e *ARPQuerier) PushBatch(port int, ps []*packet.Packet) {
	if port == 1 {
		for _, p := range ps {
			e.Push(port, p)
		}
		return
	}
	k := 0
	flush := func() {
		e.Output(0).PushBatch(ps[:k])
		k = 0
	}
	for _, p := range ps {
		e.Work()
		next := p.Anno.DstIPAnno
		if next.IsZero() {
			if ih, ok := p.IPHeader(); ok {
				next = ih.Dst()
			}
		}
		ea, ok := e.tbl[next]
		if !ok {
			// Miss: emit pending hits first so output order matches the
			// scalar path, then take the hold-and-query path.
			flush()
			p.Anno.FlowPending = nil
			old := e.wait[next]
			e.wait[next] = p
			if old != nil {
				atomic.AddInt64(&e.Drops, 1)
				e.Drop(old)
			}
			atomic.AddInt64(&e.Queries, 1)
			e.Output(0).Push(e.makeQuery(next))
			continue
		}
		encapEther(p, packet.EtherTypeIP, e.eth, ea)
		ps[k] = p
		k++
	}
	flush()
}

func (e *ARPQuerier) makeQuery(target packet.IP4) *packet.Packet {
	q := packet.Make(packet.DefaultHeadroom, packet.EtherHeaderLen+packet.ARPHeaderLen, 0)
	d := q.Data()
	eh := packet.Ether(d[:packet.EtherHeaderLen])
	eh.SetDst(packet.BroadcastEther)
	eh.SetSrc(e.eth)
	eh.SetType(packet.EtherTypeARP)
	ah := packet.ARP(d[packet.EtherHeaderLen:])
	ah.InitARP()
	ah.SetOp(packet.ARPOpRequest)
	ah.SetSenderEther(e.eth)
	ah.SetSenderIP(e.ip)
	ah.SetTargetIP(target)
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
func (e *ARPResponder) Configure(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("ARPResponder: expects IP ETH")
	}
	var err error
	if e.ip, err = packet.ParseIP4(args[0]); err != nil {
		return err
	}
	if e.eth, err = packet.ParseEther(args[1]); err != nil {
		return err
	}
	return nil
}

// Push answers ARP requests addressed to our IP.
func (e *ARPResponder) Push(port int, p *packet.Packet) {
	e.Work()
	ah, ok := p.ARPHeader(true)
	if !ok || ah.Op() != packet.ARPOpRequest || ah.TargetIP() != e.ip {
		e.Drop(p)
		return
	}
	reply := packet.Make(packet.DefaultHeadroom, packet.EtherHeaderLen+packet.ARPHeaderLen, 0)
	d := reply.Data()
	eh := packet.Ether(d[:packet.EtherHeaderLen])
	eh.SetDst(ah.SenderEther())
	eh.SetSrc(e.eth)
	eh.SetType(packet.EtherTypeARP)
	rh := packet.ARP(d[packet.EtherHeaderLen:])
	rh.InitARP()
	rh.SetOp(packet.ARPOpReply)
	rh.SetSenderEther(e.eth)
	rh.SetSenderIP(e.ip)
	rh.SetTargetEther(ah.SenderEther())
	rh.SetTargetIP(ah.SenderIP())
	p.Kill()
	atomic.AddInt64(&e.Replies, 1)
	e.Output(0).Push(reply)
}
