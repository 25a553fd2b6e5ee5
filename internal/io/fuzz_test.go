package io

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzPcap feeds arbitrary bytes to the capture reader. The invariants:
// the reader never panics and never allocates unboundedly (truncated
// records, bad magic, and snap-length overflow must surface as errors),
// and whatever records it does accept survive a write-reread round trip
// bit-for-bit. This is the parser the replay difftest corpus and the
// -pcap-in flag trust with files from the outside world.
func FuzzPcap(f *testing.F) {
	// A small valid nanosecond capture.
	var valid bytes.Buffer
	wr, err := NewWriter(&valid, 0)
	if err != nil {
		f.Fatal(err)
	}
	for i, frame := range testFrames(3) {
		if err := wr.WriteRecord(Record{TSNanos: int64(i) * 1e6, Data: frame}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:30])             // truncated mid-record
	f.Add([]byte("not a capture at all")) // bad magic
	f.Add(buildPcapng())                  // pcapng section
	le := binary.LittleEndian
	overflow := make([]byte, 40)
	le.PutUint32(overflow[0:4], magicMicros)
	le.PutUint32(overflow[16:20], 0xffffffff) // huge declared snaplen
	le.PutUint32(overflow[20:24], linkEthernet)
	le.PutUint32(overflow[32:36], 1<<30) // giant record
	f.Add(overflow)

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as we got here
		}
		var recs []Record
		for len(recs) < 1024 {
			rec, err := rd.Next()
			if err != nil {
				break // io.EOF or a malformation error; either ends cleanly
			}
			if len(rec.Data) > maxCaptureLen {
				t.Fatalf("reader accepted a %d-byte record beyond the cap", len(rec.Data))
			}
			recs = append(recs, rec)
		}
		if len(recs) == 0 {
			return
		}
		// Round trip: accepted records must re-encode and re-read
		// identically (data, original length, and — because the writer
		// is nanosecond-precision — timestamps).
		var out bytes.Buffer
		w, err := NewWriter(&out, maxCaptureLen)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := w.WriteRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		again, err := ReadPcap(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip of accepted records failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip returned %d records, wrote %d", len(again), len(recs))
		}
		for i := range recs {
			if !bytes.Equal(again[i].Data, recs[i].Data) {
				t.Fatalf("record %d data changed across round trip", i)
			}
			if again[i].OrigLen != recs[i].OrigLen {
				t.Fatalf("record %d orig len %d → %d across round trip", i, recs[i].OrigLen, again[i].OrigLen)
			}
			want := clampTS(recs[i].TSNanos)
			if again[i].TSNanos != want {
				t.Fatalf("record %d ts %d → %d across round trip", i, want, again[i].TSNanos)
			}
		}
	})
}
