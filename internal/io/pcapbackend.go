package io

import (
	stdio "io"
	"os"
	"sync"
)

// CaptureSink serializes transmitted frames from one or more devices
// into a single pcap stream. Timestamps are a deterministic counter
// (one microsecond per frame), not wall-clock time, so the same run
// always produces byte-identical capture files — the property the
// replay difftest corpus asserts on.
type CaptureSink struct {
	mu     sync.Mutex
	w      *Writer
	closer stdio.Closer
	n      int64
	err    error
}

// NewCaptureSink writes a pcap header to w and returns a sink. A zero
// snaplen uses DefaultSnapLen.
func NewCaptureSink(w stdio.Writer, snaplen uint32) (*CaptureSink, error) {
	wr, err := NewWriter(w, snaplen)
	if err != nil {
		return nil, err
	}
	return &CaptureSink{w: wr}, nil
}

// CreateCaptureFile creates (truncating) a capture file and returns a
// sink whose Close flushes and closes it.
func CreateCaptureFile(path string) (*CaptureSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s, err := NewCaptureSink(f, 0)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.closer = f
	return s, nil
}

// WriteFrame appends one frame with the next deterministic timestamp.
func (s *CaptureSink) WriteFrame(f []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.w.WriteRecord(Record{TSNanos: s.n * 1e3, Data: f})
	s.n++
	return s.err
}

// Frames returns how many frames the sink captured.
func (s *CaptureSink) Frames() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Close closes the underlying file, if the sink owns one.
func (s *CaptureSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closer != nil {
		if err := s.closer.Close(); err != nil && s.err == nil {
			s.err = err
		}
		s.closer = nil
	}
	return s.err
}

// Pcap is a Backend that replays a recorded frame sequence in and
// captures transmitted frames out. Either side may be absent: a nil
// source receives nothing (Recv reports EOF immediately), a nil sink
// accepts and discards transmissions. Sinks may be shared between
// devices (one aggregate capture) or per-device.
type Pcap struct {
	src  []Record
	pos  int
	sink *CaptureSink
}

// NewPcap builds a backend over an in-memory record sequence and an
// optional capture sink.
func NewPcap(src []Record, sink *CaptureSink) *Pcap {
	return &Pcap{src: src, sink: sink}
}

// Open implements Backend.
func (b *Pcap) Open() error { return nil }

// Recv implements Backend: deliver the next frames of the replay; at
// the end of the recording it returns 0, io.EOF.
func (b *Pcap) Recv(buf [][]byte) (int, error) {
	n := 0
	for n < len(buf) && b.pos < len(b.src) {
		buf[n] = b.src[b.pos].Data
		b.pos++
		n++
	}
	if n == 0 {
		return 0, stdio.EOF
	}
	return n, nil
}

// Send implements Backend: append frames to the capture.
func (b *Pcap) Send(frames [][]byte) (int, error) {
	if b.sink == nil {
		return len(frames), nil
	}
	for i, f := range frames {
		if err := b.sink.WriteFrame(f); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}

// Close implements Backend. Shared sinks are closed by their owner,
// not per device.
func (b *Pcap) Close() error { return nil }

var (
	_ Backend = (*Pcap)(nil)
	_ Backend = (*UDP)(nil)
)
