// Package classifier implements Click's packet classification engine:
// decision-tree programs built from Classifier patterns or from the
// tcpdump-like predicate language of IPClassifier and IPFilter, the
// decision-tree optimizations applied to them, a tree-walking
// interpreter (the generic Classifier's inner loop, Figure 3a), and the
// compiled form click-fastclassifier produces (Figure 3b): the tree
// flattened into specialized matchers with inlined constants and no
// decision-tree memory traffic.
package classifier

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Target encodes a decision-tree edge destination: a node index, an
// output-port leaf, or the drop leaf (unmatched packets).
type Target int32

// Drop is the leaf for packets matching no pattern.
const Drop Target = -1

// LeafPort returns the leaf target emitting to output port p.
func LeafPort(p int) Target { return Target(-p - 2) }

// IsLeaf reports whether the target terminates classification.
func (t Target) IsLeaf() bool { return t < 0 }

// Port returns the leaf's output port; ok is false for Drop.
func (t Target) Port() (int, bool) {
	if t == Drop {
		return 0, false
	}
	return int(-t - 2), true
}

func (t Target) String() string {
	if t == Drop {
		return "drop"
	}
	if p, ok := t.Port(); ok {
		return fmt.Sprintf("[%d]", p)
	}
	return fmt.Sprintf("step_%d", int(t))
}

// Expr is one decision-tree node: compare a masked 32-bit big-endian
// word of packet data against a value (Figure 3a's Expr).
type Expr struct {
	// Offset is the byte offset of the word; always a multiple of 4.
	Offset int32
	Mask   uint32
	Value  uint32
	Yes    Target
	No     Target
}

func (e Expr) String() string {
	return fmt.Sprintf("%d/%08x%%%08x yes->%s no->%s", e.Offset, e.Value, e.Mask, e.Yes, e.No)
}

// Program is a decision tree over packet data. Node 0 is the root; an
// empty program sends every packet to Entry (which must be a leaf).
type Program struct {
	Exprs []Expr
	// Entry is the starting target (node 0 for non-empty programs).
	Entry Target
	// NOutputs is the number of output ports the program can emit to.
	NOutputs int
	// SafeLength is the minimum packet length such that no test reads
	// beyond the data; shorter packets take the slow, checked path.
	SafeLength int
}

// loadWord reads the big-endian word at off, zero-padding beyond the
// end of data.
func loadWord(data []byte, off int32) uint32 {
	if int(off)+4 <= len(data) {
		return binary.BigEndian.Uint32(data[off:])
	}
	var w uint32
	for i := int32(0); i < 4; i++ {
		w <<= 8
		if int(off+i) < len(data) {
			w |= uint32(data[off+i])
		}
	}
	return w
}

// testExpr evaluates one node against packet data. A test whose masked
// bytes extend beyond the packet fails (short packets cannot match).
func testExpr(e *Expr, data []byte) bool {
	end := int(e.Offset) + 4
	if end > len(data) {
		// Fail if the mask covers any missing byte.
		missing := end - len(data)
		if missing > 4 {
			missing = 4
		}
		var missMask uint32
		for i := 0; i < missing; i++ {
			missMask |= 0xff << (8 * i)
		}
		if e.Mask&missMask != 0 {
			return false
		}
	}
	return loadWord(data, e.Offset)&e.Mask == e.Value
}

// Match classifies data, returning the output port, whether the packet
// matched (false means drop), and the number of tree nodes visited (the
// quantity the cost model charges).
func (pr *Program) Match(data []byte) (port int, matched bool, steps int) {
	t := pr.Entry
	for !t.IsLeaf() {
		e := &pr.Exprs[t]
		steps++
		if testExpr(e, data) {
			t = e.Yes
		} else {
			t = e.No
		}
	}
	p, ok := t.Port()
	return p, ok, steps
}

// computeSafeLength fills SafeLength from the node list.
func (pr *Program) computeSafeLength() {
	max := 0
	for _, e := range pr.Exprs {
		if end := int(e.Offset) + 4; end > max {
			max = end
		}
	}
	pr.SafeLength = max
}

// Depth returns the longest root-to-leaf path length.
func (pr *Program) Depth() int {
	memo := make([]int, len(pr.Exprs))
	for i := range memo {
		memo[i] = -1
	}
	var depth func(t Target) int
	depth = func(t Target) int {
		if t.IsLeaf() {
			return 0
		}
		if memo[t] >= 0 {
			return memo[t]
		}
		memo[t] = 0 // cycle guard; trees are acyclic by construction
		y, n := depth(pr.Exprs[t].Yes), depth(pr.Exprs[t].No)
		if n > y {
			y = n
		}
		memo[t] = y + 1
		return y + 1
	}
	return depth(pr.Entry)
}

const hexDigits = "0123456789abcdef"

// appendHex8 appends v as exactly eight lowercase hex digits (%08x).
func appendHex8(b []byte, v uint32) []byte {
	for sh := 28; sh >= 0; sh -= 4 {
		b = append(b, hexDigits[(v>>uint(sh))&0xf])
	}
	return b
}

// writeTarget appends t in its textual form (drop, [port], step_N).
func writeTarget(b *strings.Builder, t Target) {
	if t == Drop {
		b.WriteString("drop")
		return
	}
	if p, ok := t.Port(); ok {
		b.WriteByte('[')
		b.WriteString(strconv.Itoa(p))
		b.WriteByte(']')
		return
	}
	b.WriteString("step_")
	b.WriteString(strconv.Itoa(int(t)))
}

// String renders the program in the human-readable form the programs
// archive members carry and ParseProgram reads. The rendering is
// hand-rolled rather than Fprintf-formatted: programs are serialized on
// every archive write, whose text also keys the intern table, which
// puts this on the control plane's admission path.
func (pr *Program) String() string {
	var b strings.Builder
	b.Grow(40 + 48*len(pr.Exprs))
	b.WriteString("noutputs ")
	b.WriteString(strconv.Itoa(pr.NOutputs))
	b.WriteString(" entry ")
	b.WriteString(strconv.Itoa(int(pr.Entry)))
	b.WriteString(" safe_length ")
	b.WriteString(strconv.Itoa(pr.SafeLength))
	b.WriteByte('\n')
	var hex [8]byte
	for i, e := range pr.Exprs {
		b.WriteString(strconv.Itoa(i))
		b.WriteString("  ")
		b.WriteString(strconv.Itoa(int(e.Offset)))
		b.WriteByte('/')
		b.Write(appendHex8(hex[:0], e.Value))
		b.WriteByte('%')
		b.Write(appendHex8(hex[:0], e.Mask))
		b.WriteString("  yes->")
		writeTarget(&b, e.Yes)
		b.WriteString("  no->")
		writeTarget(&b, e.No)
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseProgram parses Program.String output: the programs an archive
// carries, which the driver compiles and links when it reads a
// configuration back (§5.2).
func ParseProgram(s string) (*Program, error) {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) == 0 {
		return nil, fmt.Errorf("classifier: empty program text")
	}
	pr := &Program{}
	hf := strings.Fields(lines[0])
	headerOK := len(hf) == 6 && hf[0] == "noutputs" && hf[2] == "entry" && hf[4] == "safe_length"
	if headerOK {
		var e1, e2, e3 error
		var entry int
		pr.NOutputs, e1 = strconv.Atoi(hf[1])
		entry, e2 = strconv.Atoi(hf[3])
		pr.SafeLength, e3 = strconv.Atoi(hf[5])
		pr.Entry = Target(entry)
		headerOK = e1 == nil && e2 == nil && e3 == nil
	}
	if !headerOK {
		return nil, fmt.Errorf("classifier: bad program header %q", lines[0])
	}
	for _, line := range lines[1:] {
		if strings.TrimSpace(line) == "" {
			continue
		}
		// Hand-rolled for the same reason String is: the format is
		// four whitespace-separated tokens, "idx off/val%mask
		// yes->T no->T", and Sscanf dominated admission profiles.
		f := strings.Fields(line)
		bad := func() (*Program, error) {
			return nil, fmt.Errorf("classifier: bad program line %q", line)
		}
		if len(f) != 4 || !strings.HasPrefix(f[2], "yes->") || !strings.HasPrefix(f[3], "no->") {
			return bad()
		}
		idx, err := strconv.Atoi(f[0])
		if err != nil {
			return bad()
		}
		slash := strings.IndexByte(f[1], '/')
		pct := strings.IndexByte(f[1], '%')
		if slash < 0 || pct < slash {
			return bad()
		}
		off, err := strconv.Atoi(f[1][:slash])
		if err != nil {
			return bad()
		}
		val, err := strconv.ParseUint(f[1][slash+1:pct], 16, 32)
		if err != nil {
			return bad()
		}
		mask, err := strconv.ParseUint(f[1][pct+1:], 16, 32)
		if err != nil {
			return bad()
		}
		yes, err := parseTarget(f[2][len("yes->"):])
		if err != nil {
			return nil, err
		}
		no, err := parseTarget(f[3][len("no->"):])
		if err != nil {
			return nil, err
		}
		if idx != len(pr.Exprs) {
			return nil, fmt.Errorf("classifier: out-of-order node %d", idx)
		}
		pr.Exprs = append(pr.Exprs, Expr{Offset: int32(off), Mask: uint32(mask), Value: uint32(val), Yes: yes, No: no})
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	return pr, nil
}

func parseTarget(s string) (Target, error) {
	if s == "drop" {
		return Drop, nil
	}
	if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
		p, err := strconv.Atoi(s[1 : len(s)-1])
		if err != nil {
			return 0, fmt.Errorf("classifier: bad leaf %q", s)
		}
		return LeafPort(p), nil
	}
	if rest, ok := strings.CutPrefix(s, "step_"); ok {
		n, err := strconv.Atoi(rest)
		if err == nil {
			return Target(n), nil
		}
	}
	return 0, fmt.Errorf("classifier: bad target %q", s)
}

// Validate checks structural invariants: forward-only edges (hence
// acyclicity), in-range node references and ports, word-aligned
// offsets, and a SafeLength that covers every test (Compiled.Match
// reads packets at least that long unchecked).
func (pr *Program) Validate() error {
	check := func(from int, t Target) error {
		if t.IsLeaf() {
			if p, ok := t.Port(); ok && (p < 0 || p >= pr.NOutputs) {
				return fmt.Errorf("classifier: leaf port %d out of range [0,%d)", p, pr.NOutputs)
			}
			return nil
		}
		if int(t) >= len(pr.Exprs) {
			return fmt.Errorf("classifier: node reference %d out of range", int(t))
		}
		if int(t) <= from {
			return fmt.Errorf("classifier: backward edge %d -> %d", from, int(t))
		}
		return nil
	}
	if err := check(-1, pr.Entry); err != nil {
		return err
	}
	for i, e := range pr.Exprs {
		if e.Offset%4 != 0 || e.Offset < 0 {
			return fmt.Errorf("classifier: node %d offset %d not word-aligned", i, e.Offset)
		}
		if int(e.Offset)+4 > pr.SafeLength {
			return fmt.Errorf("classifier: node %d reads past safe length %d", i, pr.SafeLength)
		}
		if e.Value&^e.Mask != 0 {
			return fmt.Errorf("classifier: node %d value %08x outside mask %08x", i, e.Value, e.Mask)
		}
		if err := check(i, e.Yes); err != nil {
			return err
		}
		if err := check(i, e.No); err != nil {
			return err
		}
	}
	return nil
}
