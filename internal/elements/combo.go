package elements

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/packet"
)

// Combo elements are the special-purpose combination elements click-xform
// substitutes for chains of general-purpose elements (§6.2). Router
// designers are discouraged from naming them directly: configurations
// stay readable with the general elements, and click-xform installs the
// combos before installation.

// A combo holds its parts as unwired element values: it configures them
// through their own Configure and runs their per-packet steps itself,
// under one work charge and with its own ports, so every check exists
// once. A part's SimpleAction is called directly only where it touches
// neither ports nor drop accounting.

// IPInputCombo fuses Paint(COLOR) → Strip(14) → CheckIPHeader(BADSRC)
// and, when a third argument gives an annotation offset, GetIPAddress —
// the Figure 4/6 input-path combination. Output 0 carries valid IP
// packets; output 1 (optional) carries header failures.
type IPInputCombo struct {
	core.Base
	paint     Paint
	strip     Strip
	check     CheckIPHeader
	addr      *GetIPAddress // nil when GetIPAddress is not fused in
	Processed int64
}

// Configure accepts COLOR, BADSRC[, ANNO-OFFSET].
func (e *IPInputCombo) Configure(args []string) error {
	if len(args) != 2 && len(args) != 3 {
		return fmt.Errorf("IPInputCombo: expects COLOR, BADSRC [, OFFSET]")
	}
	e.strip.n = packet.EtherHeaderLen
	errs := []error{e.paint.Configure(args[:1]), e.check.Configure(args[1:2])}
	if len(args) == 3 {
		e.addr = &GetIPAddress{}
		errs = append(errs, e.addr.Configure(args[2:]))
	}
	return errors.Join(errs...)
}

// SimpleAction runs the fused input path in one traversal of the
// header.
func (e *IPInputCombo) SimpleAction(p *packet.Packet) *packet.Packet {
	e.MemFetch(1) // first touch of the packet's IP header
	e.paint.SimpleAction(p)
	if !e.strip.strip(p) {
		e.Drop(p)
		return nil
	}
	if !e.check.valid(p) {
		e.CheckedPush(1, p)
		return nil
	}
	if e.addr != nil {
		e.addr.SimpleAction(p)
	}
	atomic.AddInt64(&e.Processed, 1)
	return p
}

// IPOutputCombo fuses the output path: DropBroadcasts → CheckPaint(COLOR)
// → IPGWOptions(MYADDR) → FixIPSrc(MYADDR) → DecIPTTL → IPFragmenter(MTU).
// Outputs: 0 forward, 1 redirect (paint match), 2 bad options, 3 TTL
// expired, 4 fragmentation needed (DF set). It writes its own PushBatch
// because fragmenting emits several packets on output 0.
type IPOutputCombo struct {
	core.Base
	paint     CheckPaint
	gwOpts    IPGWOptions
	fixSrc    FixIPSrc
	frag      IPFragmenter
	Processed int64
}

// Configure accepts COLOR, MYADDR, MTU.
func (e *IPOutputCombo) Configure(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("IPOutputCombo: expects COLOR, MYADDR, MTU")
	}
	return errors.Join(
		e.paint.Configure(args[:1]), e.gwOpts.Configure(args[1:2]),
		e.fixSrc.Configure(args[1:2]), e.frag.Configure(args[2:]))
}

// process runs the fused output path on one packet and reports whether
// it survived, and if so whether it exceeds the MTU and the caller must
// fragment it (in order relative to other output-0 traffic). Packets
// that did not survive have already left on an error output or been
// dropped.
func (e *IPOutputCombo) process(p *packet.Packet) (ok, oversize bool) {
	e.Work()
	atomic.AddInt64(&e.Processed, 1)
	if linkBroadcast(p) {
		e.Drop(p)
		return false, false
	}
	e.paint.tee(&e.Base, p)
	h, ok := p.IPHeader()
	if !ok {
		e.Drop(p)
		return false, false
	}
	if !e.gwOpts.processOptions(h) {
		e.CheckedPush(2, p)
		return false, false
	}
	e.fixSrc.SimpleAction(p)
	if !decTTL(p, h) {
		e.CheckedPush(3, p)
		return false, false
	}
	if p.Len() <= e.frag.mtu {
		return true, false
	}
	if h, _ = p.IPHeader(); h.DontFragment() {
		e.CheckedPush(4, p)
		return false, false
	}
	return true, true
}

// fragment emits an oversize survivor of process as fragments.
func (e *IPOutputCombo) fragment(p *packet.Packet) {
	h, _ := p.IPHeader()
	e.frag.fragment(p, h, e.Output(0))
}

// PushBatch runs the fused output path over the batch, forwarding
// survivors as one compacted batch on output 0. When a packet needs
// fragmentation, pending survivors are flushed first so output-0 order
// matches the order the packets came in.
func (e *IPOutputCombo) PushBatch(port int, ps []*packet.Packet) {
	k := 0
	for _, p := range ps {
		ok, oversize := e.process(p)
		switch {
		case oversize:
			e.Output(0).PushBatch(ps[:k])
			k = 0
			e.fragment(p)
		case ok:
			ps[k] = p
			k++
		}
	}
	e.Output(0).PushBatch(ps[:k])
}

// EtherEncapARP is the combination element the multiple-router ARP
// elimination installs (§7.2): on a point-to-point link whose peer is
// known from the combined configuration, ARP machinery is unnecessary
// and a static encapsulation suffices. It differs from EtherEncap by
// also accepting (and discarding) stray ARP traffic on input 1, so it
// is port-compatible with the ARPQuerier it replaces.
type EtherEncapARP struct {
	core.Base
	src, dst packet.EtherAddr
}

// Configure accepts SRC DST.
func (e *EtherEncapARP) Configure(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("EtherEncapARP: expects SRC DST")
	}
	var err error
	if e.src, err = packet.ParseEther(args[0]); err != nil {
		return err
	}
	if e.dst, err = packet.ParseEther(args[1]); err != nil {
		return err
	}
	return nil
}

// PushBatch encapsulates IP packets; ARP responses on input 1 are
// dropped.
func (e *EtherEncapARP) PushBatch(port int, ps []*packet.Packet) {
	for _, p := range ps {
		e.Work()
		if port == 1 {
			e.Drop(p)
			continue
		}
		encapEther(p, packet.EtherTypeIP, e.src, e.dst)
	}
	if port == 0 {
		e.Output(0).PushBatch(ps)
	}
}
