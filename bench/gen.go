package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// Frame construction and the reference transforms the verifiers compare
// against are written here from the RFCs, not taken from repro/internal
// packet or elements, so that an expected output is never produced by
// the code under test.

const (
	etherLen   = 14
	ipMinLen   = 20
	protoICMP  = 1
	protoTCP   = 6
	protoUDP   = 17
	etherIP    = 0x0800
	etherARP   = 0x0806
	arpRequest = 1
	arpReply   = 2
)

// frameSpec describes one generated Ethernet/IPv4 frame. Size is the
// whole frame in bytes; the last four bytes carry Tag so that a device
// can tell which input an output frame came from.
type frameSpec struct {
	SrcEth, DstEth [6]byte
	Src, Dst       [4]byte
	Proto          byte
	Sport, Dport   uint16
	TTL            byte
	Size           int
	Options        bool // IHL 6: NOP NOP NOP EOL
	DF             bool
	BadChecksum    bool
	Tag            uint32
}

// ipChecksum is the RFC 1071 checksum of an IP header.
func ipChecksum(h []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(h); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(h[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

func (s frameSpec) build() []byte {
	f := make([]byte, s.Size)
	copy(f[0:6], s.DstEth[:])
	copy(f[6:12], s.SrcEth[:])
	binary.BigEndian.PutUint16(f[12:], etherIP)
	ip := f[etherLen:]
	hl := ipMinLen
	if s.Options {
		hl += 4
		copy(ip[ipMinLen:], []byte{1, 1, 1, 0})
	}
	ip[0] = 0x40 | byte(hl/4)
	binary.BigEndian.PutUint16(ip[2:], uint16(s.Size-etherLen))
	if s.DF {
		ip[6] = 0x40
	}
	ip[8] = s.TTL
	ip[9] = s.Proto
	copy(ip[12:16], s.Src[:])
	copy(ip[16:20], s.Dst[:])
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip[:hl]))
	if s.BadChecksum {
		ip[10] ^= 0x55
	}
	l4 := ip[hl:]
	binary.BigEndian.PutUint16(l4[0:], s.Sport)
	binary.BigEndian.PutUint16(l4[2:], s.Dport)
	switch s.Proto {
	case protoUDP:
		binary.BigEndian.PutUint16(l4[4:], uint16(len(l4)))
	case protoTCP:
		l4[12] = 5 << 4 // data offset
		l4[13] = 0x10   // ACK
		binary.BigEndian.PutUint16(l4[14:], 8192)
	}
	binary.BigEndian.PutUint32(f[s.Size-4:], s.Tag)
	return f
}

// frameTag reads the tag a frame built by frameSpec.build carries.
func frameTag(f []byte) uint32 {
	if len(f) < 4 {
		return ^uint32(0)
	}
	return binary.BigEndian.Uint32(f[len(f)-4:])
}

// arpRequestFrame is a who-has for target sent by (srcEth, srcIP).
func arpRequestFrame(srcEth [6]byte, srcIP, target [4]byte) []byte {
	f := make([]byte, 64)
	for i := 0; i < 6; i++ {
		f[i] = 0xff
	}
	copy(f[6:12], srcEth[:])
	binary.BigEndian.PutUint16(f[12:], etherARP)
	a := f[etherLen:]
	binary.BigEndian.PutUint16(a[0:], 1)       // Ethernet
	binary.BigEndian.PutUint16(a[2:], etherIP) // IPv4
	a[4], a[5] = 6, 4
	binary.BigEndian.PutUint16(a[6:], arpRequest)
	copy(a[8:14], srcEth[:])
	copy(a[14:18], srcIP[:])
	copy(a[24:28], target[:])
	return f
}

// forwardReference is what a standards-compliant router emits for a
// transit frame: new Ethernet addresses, TTL minus one, header checksum
// recomputed over the whole header. It is the fwd-base oracle.
func forwardReference(in []byte, srcEth, dstEth [6]byte) []byte {
	out := append([]byte(nil), in...)
	copy(out[0:6], dstEth[:])
	copy(out[6:12], srcEth[:])
	ip := out[etherLen:]
	hl := int(ip[0]&0x0f) * 4
	ip[8]--
	ip[10], ip[11] = 0, 0
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip[:hl]))
	return out
}

// outcome classifies an egress frame by what a host on the wire would
// see, without reference to which element produced it.
type outcome uint8

const (
	outForwarded outcome = iota // transit IP datagram
	outICMPTimeExceeded
	outICMPFragNeeded
	outICMPOther
	outARPRequest
	outARPReply
	outDropped // expected only: the frame must not appear on any egress
	outOther
	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	"forwarded", "icmp-time-exceeded", "icmp-frag-needed", "icmp-other",
	"arp-request", "arp-reply", "dropped", "other",
}

// classifyFrame reads an egress frame's headers.
func classifyFrame(f []byte) outcome {
	if len(f) < etherLen+8 {
		return outOther
	}
	switch binary.BigEndian.Uint16(f[12:]) {
	case etherARP:
		switch binary.BigEndian.Uint16(f[etherLen+6:]) {
		case arpRequest:
			return outARPRequest
		case arpReply:
			return outARPReply
		}
		return outOther
	case etherIP:
		ip := f[etherLen:]
		if len(ip) < ipMinLen {
			return outOther
		}
		if ip[9] != protoICMP {
			return outForwarded
		}
		hl := int(ip[0]&0x0f) * 4
		if len(ip) < hl+2 {
			return outOther
		}
		switch {
		case ip[hl] == 11:
			return outICMPTimeExceeded
		case ip[hl] == 3 && ip[hl+1] == 4:
			return outICMPFragNeeded
		}
		return outICMPOther
	}
	return outOther
}

// inputHash accumulates the digest printed as bench.input_sha256: every
// generated frame and every op-order decision goes through it, so equal
// digests mean byte-identical inputs.
type inputHash struct{ h hash.Hash }

func newInputHash() *inputHash { return &inputHash{h: sha256.New()} }

func (ih *inputHash) frame(f []byte) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(f)))
	ih.h.Write(n[:])
	ih.h.Write(f)
}

func (ih *inputHash) ints(vs ...int) {
	var n [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(n[:], uint64(v))
		ih.h.Write(n[:])
	}
}

func (ih *inputHash) text(s string) { ih.frame([]byte(s)) }

func (ih *inputHash) sum() string { return hex.EncodeToString(ih.h.Sum(nil)) }
