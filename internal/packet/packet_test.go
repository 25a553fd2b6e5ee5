package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

// poolReset discards everything the pool retains.
func poolReset() {
	pool.Lock()
	pool.hdrs, pool.blocks = nil, nil
	pool.Unlock()
}

// poolCount returns the number of retained blocks.
func poolCount() int {
	pool.Lock()
	defer pool.Unlock()
	return len(pool.blocks)
}

func TestMakeSizes(t *testing.T) {
	p := Make(10, 20, 30)
	if p.Len() != 20 {
		t.Errorf("Len = %d, want 20", p.Len())
	}
	if p.Headroom() != 10 {
		t.Errorf("Headroom = %d, want 10", p.Headroom())
	}
	if p.Tailroom() != 30 {
		t.Errorf("Tailroom = %d, want 30", p.Tailroom())
	}
}

func TestNewCopiesData(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	p := New(src)
	src[0] = 99
	if p.Data()[0] != 1 {
		t.Error("New did not copy data")
	}
	if !bytes.Equal(p.Data(), []byte{1, 2, 3, 4}) {
		t.Errorf("Data = %v", p.Data())
	}
}

func TestPushPull(t *testing.T) {
	p := New([]byte{5, 6, 7})
	d := p.Push(2)
	if len(d) != 5 {
		t.Fatalf("after Push(2) len = %d, want 5", len(d))
	}
	if d[0] != 0 || d[1] != 0 {
		t.Error("fresh headroom should read zero")
	}
	if d[2] != 5 {
		t.Error("Push moved existing data")
	}
	p.Pull(2)
	if !bytes.Equal(p.Data(), []byte{5, 6, 7}) {
		t.Errorf("after Pull(2) Data = %v", p.Data())
	}
}

func TestPullThenPushRestoresBytes(t *testing.T) {
	// sk_buff semantics: Pull moves a pointer; Push moves it back and
	// the stripped bytes reappear (Unstrip relies on this).
	p := New([]byte{0xAA, 0xBB, 0xCC, 0xDD})
	p.Pull(2)
	d := p.Push(2)
	if !bytes.Equal(d, []byte{0xAA, 0xBB, 0xCC, 0xDD}) {
		t.Errorf("restored data = %v", d)
	}
}

func TestPushBeyondHeadroomReallocates(t *testing.T) {
	p := Make(2, 4, 0)
	copy(p.Data(), []byte{1, 2, 3, 4})
	d := p.Push(10)
	if len(d) != 14 {
		t.Fatalf("len = %d, want 14", len(d))
	}
	if !bytes.Equal(d[10:], []byte{1, 2, 3, 4}) {
		t.Errorf("data tail = %v", d[10:])
	}
}

func TestPutTake(t *testing.T) {
	p := New([]byte{1})
	d := p.Put(3)
	if len(d) != 4 {
		t.Fatalf("len = %d, want 4", len(d))
	}
	p.Take(2)
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
}

func TestPullPanicsPastEnd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pull past end did not panic")
		}
	}()
	New([]byte{1, 2}).Pull(3)
}

func TestCloneSharesUntilUniqueify(t *testing.T) {
	p := New([]byte{1, 2, 3})
	q := p.Clone()
	if !p.Shared() || !q.Shared() {
		t.Fatal("clone not shared")
	}
	q.WritableData()[0] = 9
	if p.Data()[0] != 1 {
		t.Error("write to uniqueified clone affected original")
	}
	if q.Data()[0] != 9 {
		t.Error("write lost")
	}
	if p.Shared() {
		t.Error("original still marked shared after clone uniqueified")
	}
}

func TestCloneCopiesAnnotations(t *testing.T) {
	p := New(make([]byte, 20))
	p.Anno.Paint = 3
	p.Anno.DstIPAnno = MakeIP4(1, 2, 3, 4)
	q := p.Clone()
	q.Anno.Paint = 7
	if p.Anno.Paint != 3 {
		t.Error("annotations shared between clones")
	}
	if q.Anno.DstIPAnno != MakeIP4(1, 2, 3, 4) {
		t.Error("annotations not copied")
	}
}

func TestNetworkOffsetTracksPushPull(t *testing.T) {
	p := New(make([]byte, 40))
	p.Anno.NetworkOffset = 14
	p.Pull(14)
	if p.Anno.NetworkOffset != 0 {
		t.Errorf("after Pull(14) offset = %d, want 0", p.Anno.NetworkOffset)
	}
	p.Push(14)
	if p.Anno.NetworkOffset != 14 {
		t.Errorf("after Push(14) offset = %d, want 14", p.Anno.NetworkOffset)
	}
	p.Pull(20)
	if p.Anno.NetworkOffset != -1 {
		t.Errorf("offset pulled past header = %d, want -1", p.Anno.NetworkOffset)
	}
}

func TestRealign(t *testing.T) {
	p := Make(13, 8, 0)
	copy(p.Data(), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if p.AlignOffset(4) != 1 {
		t.Fatalf("AlignOffset = %d, want 1", p.AlignOffset(4))
	}
	p.Realign(4, 2)
	if p.AlignOffset(4) != 2 {
		t.Errorf("after Realign AlignOffset = %d, want 2", p.AlignOffset(4))
	}
	if !bytes.Equal(p.Data(), []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("Realign corrupted data: %v", p.Data())
	}
}

func TestPushPullRoundTripProperty(t *testing.T) {
	f := func(data []byte, n uint8) bool {
		p := New(data)
		k := int(n) % 64
		p.Push(k)
		p.Pull(k)
		return bytes.Equal(p.Data(), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseIP4(t *testing.T) {
	cases := []struct {
		in   string
		want IP4
		ok   bool
	}{
		{"1.2.3.4", IP4{1, 2, 3, 4}, true},
		{"255.255.255.255", IP4{255, 255, 255, 255}, true},
		{"0.0.0.0", IP4{}, true},
		{"18.26.4.24", IP4{18, 26, 4, 24}, true},
		{"1.2.3", IP4{}, false},
		{"1.2.3.4.5", IP4{}, false},
		{"1.2.3.256", IP4{}, false},
		{"1.2.3.x", IP4{}, false},
		{"", IP4{}, false},
		{"1..2.3", IP4{}, false},
	}
	for _, c := range cases {
		got, err := ParseIP4(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseIP4(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseIP4(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIP4RoundTripProperty(t *testing.T) {
	f := func(v uint32) bool {
		ip := IP4FromUint32(v)
		back, err := ParseIP4(ip.String())
		return err == nil && back == ip && back.Uint32() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseEther(t *testing.T) {
	e, err := ParseEther("00:a0:c9:9c:fd:9c")
	if err != nil {
		t.Fatal(err)
	}
	want := EtherAddr{0x00, 0xa0, 0xc9, 0x9c, 0xfd, 0x9c}
	if e != want {
		t.Errorf("got %v, want %v", e, want)
	}
	if e.String() != "00:a0:c9:9c:fd:9c" {
		t.Errorf("String = %q", e.String())
	}
	for _, bad := range []string{"", "00:11:22:33:44", "00:11:22:33:44:55:66", "zz:11:22:33:44:55"} {
		if _, err := ParseEther(bad); err == nil {
			t.Errorf("ParseEther(%q) succeeded", bad)
		}
	}
}

func TestIP4Predicates(t *testing.T) {
	if !MakeIP4(255, 255, 255, 255).IsBroadcast() {
		t.Error("broadcast not detected")
	}
	if !MakeIP4(224, 0, 0, 1).IsMulticast() {
		t.Error("multicast not detected")
	}
	if MakeIP4(18, 26, 4, 24).IsMulticast() {
		t.Error("unicast detected as multicast")
	}
	if !(IP4{}).IsZero() {
		t.Error("zero not detected")
	}
}

func TestInternetChecksum(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := InternetChecksum(b); got != ^uint16(0xddf2) {
		t.Errorf("checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
	// Odd length.
	if got := InternetChecksum([]byte{0x12}); got != ^uint16(0x1200) {
		t.Errorf("odd checksum = %#04x", got)
	}
}

func TestChecksumVerifiesBuiltPacket(t *testing.T) {
	p := BuildUDP4(EtherAddr{1}, EtherAddr{2}, MakeIP4(10, 0, 0, 1), MakeIP4(10, 0, 2, 1), 1234, 5678, make([]byte, 14))
	if p.Len() != 56 {
		t.Fatalf("packet len = %d, want 56 (14 Ether + 20 IP + 8 UDP + 14 data; CRC not carried)", p.Len())
	}
	ih, ok := p.IPHeader()
	if !ok {
		t.Fatal("no IP header")
	}
	if !ih.ChecksumOK() {
		t.Error("built packet has bad checksum")
	}
	if ih.Proto() != IPProtoUDP {
		t.Errorf("proto = %d", ih.Proto())
	}
	uh, ok := p.UDPHeader()
	if !ok {
		t.Fatal("no UDP header")
	}
	if uh.SrcPort() != 1234 || uh.DstPort() != 5678 {
		t.Errorf("ports = %d,%d", uh.SrcPort(), uh.DstPort())
	}
	if uh.Length() != 22 {
		t.Errorf("UDP length = %d, want 22", uh.Length())
	}
}

func TestDecTTLIncrementalMatchesFullRecompute(t *testing.T) {
	f := func(srcv, dstv uint32, ttl uint8, id uint16) bool {
		if ttl == 0 {
			ttl = 1
		}
		p := BuildUDP4(EtherAddr{}, EtherAddr{}, IP4FromUint32(srcv), IP4FromUint32(dstv), 1, 2, make([]byte, 14))
		ih, _ := p.IPHeader()
		ih.SetTTL(int(ttl))
		ih.SetID(id)
		ih.UpdateChecksum()
		ih.DecTTLIncremental()
		return ih.ChecksumOK() && ih.TTL() == int(ttl)-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEtherHeaderAccessors(t *testing.T) {
	p := Make(0, 20, 0)
	eh, ok := p.EtherHeader()
	if !ok {
		t.Fatal("no ether header")
	}
	src := EtherAddr{1, 2, 3, 4, 5, 6}
	dst := EtherAddr{7, 8, 9, 10, 11, 12}
	eh.SetSrc(src)
	eh.SetDst(dst)
	eh.SetType(EtherTypeARP)
	if eh.Src() != src || eh.Dst() != dst || eh.Type() != EtherTypeARP {
		t.Error("accessor round trip failed")
	}
	small := Make(0, 10, 0)
	if _, ok := small.EtherHeader(); ok {
		t.Error("EtherHeader on 10-byte packet should fail")
	}
}

func TestARPHeaderAccessors(t *testing.T) {
	p := Make(0, ARPHeaderLen, 0)
	ah, ok := p.ARPHeader(false)
	if !ok {
		t.Fatal("no ARP header")
	}
	ah.InitARP()
	ah.SetOp(ARPOpRequest)
	ah.SetSenderEther(EtherAddr{1, 1, 1, 1, 1, 1})
	ah.SetSenderIP(MakeIP4(10, 0, 0, 1))
	ah.SetTargetIP(MakeIP4(10, 0, 0, 2))
	if ah.Op() != ARPOpRequest {
		t.Error("op mismatch")
	}
	if ah.SenderIP() != MakeIP4(10, 0, 0, 1) || ah.TargetIP() != MakeIP4(10, 0, 0, 2) {
		t.Error("IP mismatch")
	}
	if ah.SenderEther() != (EtherAddr{1, 1, 1, 1, 1, 1}) {
		t.Error("ether mismatch")
	}
}

func TestKill(t *testing.T) {
	p := New([]byte{1})
	q := p.Clone()
	q.Kill()
	if p.Shared() {
		t.Error("Kill did not release reference")
	}
}

func TestIPHeaderRejectsShort(t *testing.T) {
	p := Make(0, 10, 0)
	if _, ok := p.IPHeader(); ok {
		t.Error("IPHeader on short packet should fail")
	}
	// Bad header length field.
	p2 := Make(0, 20, 0)
	p2.Data()[0] = 0x41 // version 4, IHL 1 (4 bytes) — invalid
	if _, ok := p2.IPHeader(); ok {
		t.Error("IPHeader with IHL<20 should fail")
	}
}

func TestBufferRecycling(t *testing.T) {
	poolReset()
	p := Make(10, 20, 10)
	p.Kill()
	if n := poolCount(); n != 1 {
		t.Fatalf("pool has %d buffers after Kill, want 1", n)
	}
	// The next Make reuses the buffer, zeroed.
	q := Make(5, 30, 5)
	if poolCount() != 0 {
		t.Error("pool not drained by Make")
	}
	for _, b := range q.Data() {
		if b != 0 {
			t.Fatal("recycled buffer not zeroed")
		}
	}
	// Shared packets only recycle on the last Kill.
	poolReset()
	a := Make(0, 8, 0)
	c := a.Clone()
	a.Kill()
	if poolCount() != 0 {
		t.Error("buffer recycled while a clone is alive")
	}
	c.Kill()
	if poolCount() != 1 {
		t.Error("buffer not recycled after last reference")
	}
	// Double Kill must not double-pool.
	poolReset()
	d := Make(0, 8, 0)
	d.Kill()
	d.Kill()
	if n := poolCount(); n != 1 {
		t.Errorf("double Kill pooled %d buffers", n)
	}
	if x, y := Make(0, 8, 0), Make(0, 8, 0); x == y {
		t.Error("double Kill pooled one header twice: two live packets share it")
	}
}

// TestRecycledSlackReadsZero pins that one packet's bytes never show in
// another's headroom or tailroom, whichever of New and Make reissues the
// buffer, and that a buffer outgrown by Push does not carry them either.
func TestRecycledSlackReadsZero(t *testing.T) {
	dirty := func() {
		p := Make(0, poolBufSize, 0)
		for i := range p.Data() {
			p.Data()[i] = 0xee
		}
		p.Kill()
	}
	allZero := func(what string, b []byte) {
		t.Helper()
		for i, c := range b {
			if c != 0 {
				t.Fatalf("%s: byte %d reads %#x, want 0", what, i, c)
			}
		}
	}
	poolReset()
	dirty()
	p := New([]byte{1, 2, 3})
	if !bytes.Equal(p.Data(), []byte{1, 2, 3}) {
		t.Fatalf("New data = %v", p.Data())
	}
	allZero("New headroom", p.Push(DefaultHeadroom)[:DefaultHeadroom])
	p.Pull(DefaultHeadroom)
	allZero("New tailroom", p.Put(DefaultTailroom)[3:])
	p.Kill()
	dirty()
	p = Make(8, 16, 8)
	allZero("Make", p.buf)
	dirty()
	p.Data()[0] = 7
	d := p.Push(8 + 1) // one past the headroom: moves to a second recycled buffer
	if d[9] != 7 {
		t.Error("expand lost the data")
	}
	allZero("expanded headroom", p.buf[:p.start+9])
	allZero("expanded tailroom", p.buf[p.end:])
	p.Kill()
}

// TestCopiesStayInPool pins the copy paths to the pool: a clone that is
// written, a Push past the headroom and a Realign each draw their new
// buffer from the free list and hand the old one back, so none of them
// allocates or shrinks the pool.
func TestCopiesStayInPool(t *testing.T) {
	if RaceEnabled {
		t.Skip("headers are not recycled under -race")
	}
	cycle := func() {
		p := New(make([]byte, 100))
		c := p.Clone()
		c.WritableData()[0] = 1
		p.Kill()
		c.Kill()
		p = New(make([]byte, 100))
		p.Push(DefaultHeadroom + 1)
		p.Realign(4, (p.AlignOffset(4)+2)%4)
		p.Kill()
	}
	poolReset()
	cycle()
	before := poolCount()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("copy paths allocate %v times per cycle, want 0", allocs)
	}
	if after := poolCount(); after != before {
		t.Errorf("pool holds %d blocks after 100 cycles, %d before: copies leak", after, before)
	}
}

// TestSteadyStateAllocatesNothing is the packet layer's allocation gate:
// after warm-up, a thousand consecutive make/kill and clone/kill round
// trips never reach the allocator.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	if RaceEnabled {
		t.Skip("headers are not recycled under -race")
	}
	small, big := make([]byte, 64), make([]byte, 1500)
	held := New(small)
	defer held.Kill()
	for name, f := range map[string]func(){
		"New(64)→Kill":   func() { New(small).Kill() },
		"New(1500)→Kill": func() { New(big).Kill() },
		"Clone→Kill":     func() { held.Clone().Kill() },
	} {
		if allocs := testing.AllocsPerRun(1000, f); allocs != 0 {
			t.Errorf("%s allocates %v times, want 0", name, allocs)
		}
	}
}

// TestUseAfterKillPanics holds race builds to their promise: a killed
// header is retired, so a stale pointer to it is caught, not aliased
// to whichever packet was made next.
func TestUseAfterKillPanics(t *testing.T) {
	if !RaceEnabled {
		t.Skip("killed headers are recycled without -race")
	}
	p := New([]byte{1})
	p.Kill()
	p.Kill()       // still a no-op
	New([]byte{2}) // would have reused p's header: p is someone else's now
	for name, use := range map[string]func(){
		"Kill":   func() { p.Kill() },
		"Data":   func() { p.Data() },
		"Len":    func() { p.Len() },
		"Clone":  func() { p.Clone() },
		"Push":   func() { p.Push(1) },
		"Take":   func() { p.Take(0) },
		"Shared": func() { p.Shared() },
	} {
		func() {
			defer func() {
				if r := recover(); r != "packet: use after Kill" {
					t.Errorf("%s after Kill: recovered %v, want the use-after-Kill panic", name, r)
				}
			}()
			use()
		}()
	}
}
