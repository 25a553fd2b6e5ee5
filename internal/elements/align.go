package elements

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/packet"
)

// Align forces packet data to a known alignment (offset modulo modulus)
// by copying when necessary (§7.1). click-align inserts these where an
// element's required alignment conflicts with what upstream produces.
type Align struct {
	core.Base
	modulus int
	offset  int
	// Copies counts packets that actually needed realignment.
	Copies int64
}

// Configure accepts MODULUS OFFSET.
func (e *Align) Configure(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("Align: expects MODULUS OFFSET")
	}
	m, err := strconv.Atoi(args[0])
	if err != nil || m <= 0 || (m&(m-1)) != 0 {
		return fmt.Errorf("Align: bad modulus %q (want a power of two)", args[0])
	}
	off, err := strconv.Atoi(args[1])
	if err != nil || off < 0 || off >= m {
		return fmt.Errorf("Align: bad offset %q", args[1])
	}
	e.modulus, e.offset = m, off
	return nil
}

// SimpleAction realigns, charging the copy only when one is needed.
func (e *Align) SimpleAction(p *packet.Packet) *packet.Packet {
	if p.AlignOffset(e.modulus) != e.offset {
		atomic.AddInt64(&e.Copies, 1)
		e.Charge(costAlign)
		p.Realign(e.modulus, e.offset)
	}
	return p
}

// AlignmentInfo records, for the runtime's benefit, the packet data
// alignments click-align proved each element will observe. Elements
// could consult it to choose word-load strategies; this driver stores
// it for inspection (it is load-bearing for the tool-chain round trip:
// click-align's output must parse and build).
type AlignmentInfo struct {
	core.Base
	// Entries maps element names to "modulus offset" claims.
	Entries map[string]string
}

// Configure records "elementname modulus offset" arguments.
func (e *AlignmentInfo) Configure(args []string) error {
	e.Entries = map[string]string{}
	for _, a := range args {
		var name string
		var mod, off int
		if _, err := fmt.Sscanf(a, "%s %d %d", &name, &mod, &off); err != nil {
			return fmt.Errorf("AlignmentInfo: bad entry %q", a)
		}
		e.Entries[name] = fmt.Sprintf("%d %d", mod, off)
	}
	return nil
}
