package elements

import (
	"fmt"
	"os"

	"repro/internal/core"
	pktio "repro/internal/io"
	"repro/internal/packet"
)

// ToDump and FromDump are Click's trace elements: ToDump appends every
// passing packet to a tcpdump-format (pcap) file; FromDump replays one.
// They make simulated traffic inspectable with standard tools and give
// configurations reproducible packet sources. The capture format is
// internal/io's: ToDump writes nanosecond-precision classic pcap,
// FromDump reads anything that reader accepts (either byte order and
// precision, and pcapng).

// ToDump writes every passing packet to a pcap file and forwards it
// (or discards when it has no output).
type ToDump struct {
	core.Base
	path    string
	f       *os.File
	w       *pktio.Writer
	Written int64
}

// Configure accepts the output file name.
func (e *ToDump) Configure(args []string) error {
	if len(args) != 1 || args[0] == "" {
		return fmt.Errorf("ToDump: expects FILENAME")
	}
	e.path = args[0]
	return nil
}

// Initialize opens the file and writes the pcap header.
func (e *ToDump) Initialize(rt *core.Router) error {
	f, err := os.Create(e.path)
	if err != nil {
		return fmt.Errorf("ToDump: %v", err)
	}
	if e.w, err = pktio.NewWriter(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("ToDump: %v", err)
	}
	e.f = f
	return nil
}

// SimpleAction records the packet and forwards it.
func (e *ToDump) SimpleAction(p *packet.Packet) *packet.Packet {
	if e.f != nil {
		rec := pktio.Record{TSNanos: p.Anno.Timestamp, Data: p.Data()}
		if err := e.w.WriteRecord(rec); err == nil {
			e.Written++
		}
	}
	if e.NOutputs() > 0 {
		return p
	}
	// Terminal ToDump: the packet was delivered to the dump file.
	e.CountDelivered(1, int64(p.Len()))
	p.Kill()
	return nil
}

// Close flushes and closes the dump file.
func (e *ToDump) Close() error {
	if e.f == nil {
		return nil
	}
	err := e.f.Close()
	e.f = nil
	return err
}

// Handlers exports the record count.
func (e *ToDump) Handlers() []core.Handler {
	return []core.Handler{intHandler("count", func() int64 { return e.Written })}
}

// FromDump replays a pcap file: each task run pushes the next record as
// a packet (with its capture timestamp in the timestamp annotation).
type FromDump struct {
	core.Base
	path    string
	records []pktio.Record
	next    int
	Emitted int64
}

// Configure accepts the input file name.
func (e *FromDump) Configure(args []string) error {
	if len(args) != 1 || args[0] == "" {
		return fmt.Errorf("FromDump: expects FILENAME")
	}
	e.path = args[0]
	return nil
}

// Initialize loads and parses the file.
func (e *FromDump) Initialize(rt *core.Router) (err error) {
	if e.records, err = pktio.ReadPcapFile(e.path); err != nil {
		return fmt.Errorf("FromDump: %v", err)
	}
	return nil
}

// RunTask pushes the next record.
func (e *FromDump) RunTask() bool {
	if e.next >= len(e.records) {
		return false
	}
	e.Work()
	rec := e.records[e.next]
	p := packet.New(rec.Data)
	p.Anno.Timestamp = rec.TSNanos
	e.next++
	e.Emitted++
	e.Output(0).Push(p)
	return true
}

// Handlers exports replay progress.
func (e *FromDump) Handlers() []core.Handler {
	return []core.Handler{
		intHandler("count", func() int64 { return e.Emitted }),
		intHandler("remaining", func() int64 { return int64(len(e.records) - e.next) }),
	}
}
