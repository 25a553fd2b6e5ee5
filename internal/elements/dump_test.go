package elements

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	pktio "repro/internal/io"
	"repro/internal/packet"
)

func TestDumpRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.pcap")

	// Record three packets with distinct contents and timestamps.
	rt := buildWith(t, "i :: Idle -> td :: ToDump("+path+");")
	td := rt.Find("td").(*ToDump)
	for i := 0; i < 3; i++ {
		p := udpPacket(packet.MakeIP4(1, 1, 1, byte(i+1)), packet.MakeIP4(2, 2, 2, 2))
		p.Anno.Timestamp = int64(i+1) * 1_500_000_000 // 1.5s apart
		td.Push(0, p)
	}
	if td.Written != 3 {
		t.Fatalf("written = %d", td.Written)
	}
	if err := td.Close(); err != nil {
		t.Fatal(err)
	}

	// Sanity: standard pcap header present — little-endian with the
	// nanosecond magic internal/io's writer uses, so the 1.5 s spacing
	// below survives exactly.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 24 || data[0] != 0x4d || data[1] != 0x3c || data[2] != 0xb2 || data[3] != 0xa1 {
		t.Fatalf("not a little-endian nanosecond pcap file: % x", data[:4])
	}

	// Replay through FromDump.
	rt2 := buildWith(t, "fd :: FromDump("+path+") -> out :: TestSink;")
	rt2.RunUntilIdle(100)
	out := rt2.Find("out").(*sink)
	if len(out.got) != 3 {
		t.Fatalf("replayed %d packets, want 3", len(out.got))
	}
	for i, p := range out.got {
		p.Anno.NetworkOffset = 14
		h, ok := p.IPHeader()
		if !ok {
			t.Fatalf("replayed packet %d has no IP header", i)
		}
		if h.Src() != packet.MakeIP4(1, 1, 1, byte(i+1)) {
			t.Errorf("packet %d src = %v", i, h.Src())
		}
		if p.Anno.Timestamp != int64(i+1)*1_500_000_000 {
			t.Errorf("packet %d timestamp = %d", i, p.Anno.Timestamp)
		}
	}
	if v, _ := rt2.ReadHandler("fd.remaining"); v != "0" {
		t.Errorf("remaining = %s", v)
	}
}

// FromDump reads what internal/io's reader reads, not a dialect of its
// own: a committed nanosecond-magic capture and a pcapng stream (the
// private codec this replaced rejected both as "bad magic"), and a
// timestamp before the epoch written through ToDump comes back clamped
// to zero instead of wrapped into the year 2106.
func TestFromDumpReadsEveryCaptureFormat(t *testing.T) {
	rt := buildWith(t, "fd :: FromDump(../../testdata/traces/udp_ports.pcap) -> out :: TestSink;")
	rt.RunUntilIdle(10000)
	recs, err := pktio.ReadPcapFile("../../testdata/traces/udp_ports.pcap")
	if err != nil {
		t.Fatal(err)
	}
	got := rt.Find("out").(*sink).got
	if len(got) == 0 || len(got) != len(recs) {
		t.Fatalf("replayed %d of %d nanosecond-magic records", len(got), len(recs))
	}
	for i, p := range got {
		if !bytes.Equal(p.Data(), recs[i].Data) || p.Anno.Timestamp != recs[i].TSNanos {
			t.Fatalf("record %d differs from the capture", i)
		}
	}

	// A minimal little-endian pcapng stream: section header, one
	// Ethernet interface, one enhanced packet block at 42 µs.
	frame := udpPacket(packet.MakeIP4(1, 1, 1, 1), packet.MakeIP4(2, 2, 2, 2)).Data()
	le := binary.LittleEndian
	var ng []byte
	block := func(btype uint32, body []byte) {
		for len(body)%4 != 0 {
			body = append(body, 0)
		}
		total := uint32(len(body) + 12)
		ng = le.AppendUint32(le.AppendUint32(ng, btype), total)
		ng = le.AppendUint32(append(ng, body...), total)
	}
	block(0x0a0d0d0a, le.AppendUint64(le.AppendUint32(le.AppendUint32(nil, 0x1a2b3c4d), 1), ^uint64(0)))
	block(1, le.AppendUint32(le.AppendUint32(nil, 1), 0)) // link type Ethernet, no snap length
	epb := le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, 0), 0), 42)
	epb = le.AppendUint32(le.AppendUint32(epb, uint32(len(frame))), uint32(len(frame)))
	block(6, append(epb, frame...))
	path := filepath.Join(t.TempDir(), "trace.pcapng")
	if err := os.WriteFile(path, ng, 0o644); err != nil {
		t.Fatal(err)
	}
	rt = buildWith(t, "fd :: FromDump("+path+") -> out :: TestSink;")
	rt.RunUntilIdle(10)
	got = rt.Find("out").(*sink).got
	if len(got) != 1 || !bytes.Equal(got[0].Data(), frame) || got[0].Anno.Timestamp != 42_000 {
		t.Fatalf("pcapng replay: %d packets", len(got))
	}

	path = filepath.Join(t.TempDir(), "early.pcap")
	rt = buildWith(t, "i :: Idle -> td :: ToDump("+path+");")
	p := packet.New(frame)
	p.Anno.Timestamp = -1
	rt.Find("td").Push(0, p)
	rt.Close()
	if recs, err = pktio.ReadPcapFile(path); err != nil || len(recs) != 1 || recs[0].TSNanos != 0 {
		t.Fatalf("negative timestamp: %v %+v", err, recs)
	}
}

func TestFromDumpErrors(t *testing.T) {
	if _, err := core.BuildFromText("f :: FromDump(/nonexistent.pcap) -> d :: Discard;",
		"t", testRegistry(), core.BuildOptions{}); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.pcap")
	os.WriteFile(bad, []byte("not a pcap"), 0o644)
	if _, err := core.BuildFromText("f :: FromDump("+bad+") -> d :: Discard;",
		"t", testRegistry(), core.BuildOptions{}); err == nil {
		t.Error("corrupt file accepted")
	}
}

func TestToDumpTerminalMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sink.pcap")
	rt := buildWith(t, "i :: Idle -> td :: ToDump("+path+");")
	td := rt.Find("td").(*ToDump)
	td.Push(0, udpPacket(packet.IP4{1}, packet.IP4{2}))
	td.Close()
	data, _ := os.ReadFile(path)
	if len(data) <= 24 {
		t.Error("terminal ToDump wrote no record")
	}
}
