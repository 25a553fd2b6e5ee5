package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
)

// tHandlerElem exports one read-only and one write-only handler, plus a
// counter handler named "drops" that must shadow the implicit telemetry
// handler of the same name.
type tHandlerElem struct {
	Base
	wrote string
	fake  int64
}

func (e *tHandlerElem) PushBatch(port int, ps []*packet.Packet) { killAll(ps) }

func (e *tHandlerElem) Handlers() []Handler {
	return []Handler{
		{Name: "status", Read: func() string { return "ready" }},
		{Name: "poke", Write: func(v string) error { e.wrote = v; return nil }},
		{Name: "drops", Read: func() string { return "fake" }},
	}
}

func handlerTestRegistry() *Registry {
	reg := testRegistry()
	reg.Register(&Spec{Name: "THandler", Processing: "h/", Ports: func(string) (graph.PortRange, graph.PortRange) {
		return graph.Between(0, 1), graph.Exactly(0)
	}, Make: func() Element { return &tHandlerElem{} }})
	return reg
}

func TestHandlerErrorPaths(t *testing.T) {
	rt, err := BuildFromText("a :: TPass -> h :: THandler;", "t", handlerTestRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"bad path (no dot)", func() error { _, err := rt.ReadHandler("nodot"); return err }, "bad handler path"},
		{"bad path (trailing dot)", func() error { _, err := rt.ReadHandler("a."); return err }, "bad handler path"},
		{"unknown element", func() error { _, err := rt.ReadHandler("ghost.class"); return err }, `no element "ghost"`},
		{"unknown handler", func() error { _, err := rt.ReadHandler("a.bogus"); return err }, `no handler "bogus"`},
		{"read write-only", func() error { _, err := rt.ReadHandler("h.poke"); return err }, "write-only"},
		{"write read-only", func() error { return rt.WriteHandler("h.status", "x") }, "read-only"},
		{"write implicit stats", func() error { return rt.WriteHandler("a.packets_in", "0") }, "read-only"},
		{"write unknown element", func() error { return rt.WriteHandler("ghost.poke", "x") }, `no element "ghost"`},
		{"names of unknown element", func() error { _, err := rt.HandlerNames("ghost"); return err }, `no element "ghost"`},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}

	// The happy paths around them still work.
	if v, err := rt.ReadHandler("h.status"); err != nil || v != "ready" {
		t.Errorf("h.status = %q, %v", v, err)
	}
	if err := rt.WriteHandler("h.poke", "hello"); err != nil {
		t.Errorf("h.poke: %v", err)
	}
	if got := rt.Find("h").(*tHandlerElem).wrote; got != "hello" {
		t.Errorf("write handler stored %q", got)
	}
}

// Every element exports the implicit telemetry handlers, but an
// element's own handler of the same name wins.
func TestStatsHandlers(t *testing.T) {
	rt, err := BuildFromText("a :: TPass -> b :: TPass -> s :: TSink;", "t", handlerTestRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := rt.Find("a").(*tPass)
	a.Push(0, packet.New([]byte{1, 2, 3}))
	a.Push(0, packet.New([]byte{4, 5, 6}))

	reads := map[string]string{
		"a.packets_in":  "0", // pushed into directly, not through a port
		"a.packets_out": "2",
		"b.packets_in":  "2",
		"b.packets_out": "2",
		"b.bytes_in":    "6",
		"b.bytes_out":   "6",
		"b.cycles":      "20", // TPass WorkCycles=10, mirrored without a CPU
		"s.packets_in":  "2",
		"s.packets_out": "0",
		"s.drops":       "0",
	}
	for path, want := range reads {
		if v, err := rt.ReadHandler(path); err != nil || v != want {
			t.Errorf("%s = %q, %v (want %q)", path, v, err, want)
		}
	}

	names, err := rt.HandlerNames("s")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"packets_in", "bytes_in", "packets_out", "bytes_out", "drops", "cycles"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("HandlerNames(s) missing %q (got %v)", want, names)
		}
	}

	// The provider's own "drops" handler shadows the implicit one.
	if v, err := rt.ReadHandler("h.drops"); err == nil {
		t.Errorf("h.drops should not resolve on this router: got %q", v)
	}
	rt2, err := BuildFromText("a :: TPass -> h :: THandler;", "t", handlerTestRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := rt2.ReadHandler("h.drops"); err != nil || v != "fake" {
		t.Errorf("h.drops = %q, %v (provider handler must win)", v, err)
	}
}

// TestHostileElementNames pins the longest-match resolution rule:
// combine emits names containing '@' and '/', the graph API permits
// names containing '.', and handler paths built from any of them must
// resolve to the right element. Mirrors the PR 3 Pretty anchor fix.
func TestHostileElementNames(t *testing.T) {
	g := graph.New()
	g.MustAddElement("link@a/eth0@b/eth1", "TPass", "", "t")
	g.MustAddElement("a", "TPass", "", "t")
	g.MustAddElement("a.b", "TPass", "", "t")
	g.MustAddElement("a.b.c", "TPass", "", "t")
	g.MustAddElement("x%2Ey", "TPass", "", "t") // literally contains an escape
	g.MustAddElement("x.y", "TPass", "", "t")
	g.MustAddElement("s", "TSink", "", "t")
	for i := 0; i < 6; i++ {
		g.Connect(i, 0, i+1, 0)
	}
	rt, err := Build(g, testRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}

	reads := map[string]string{
		// Combined link names resolve in-process with raw paths.
		"link@a/eth0@b/eth1.class": "TPass",
		"link@a/eth0@b/eth1.drops": "0",
		// Longest match: "a.b" and "a.b.c" win over the shorter "a".
		"a.class":        "TPass",
		"a.b.name":       "a.b",
		"a.b.config":     "",
		"a.b.c.name":     "a.b.c",
		"a.b.packets_in": "0",
		// Escaped paths resolve to the dotted names.
		HandlerPath("a.b", "name"):   "a.b",
		HandlerPath("a.b.c", "name"): "a.b.c",
		// A raw name containing an escape sequence wins over the
		// unescape; the dotted element is still reachable raw.
		"x%2Ey.name": "x%2Ey",
		"x.y.name":   "x.y",
	}
	for path, want := range reads {
		if v, err := rt.ReadHandler(path); err != nil || v != want {
			t.Errorf("ReadHandler(%q) = %q, %v (want %q)", path, v, err, want)
		}
	}

	// The longest matching element wins even when a shorter prefix
	// exists: "a.bogus" resolves element "a", not a ghost "a.bogus".
	if _, err := rt.ReadHandler("a.bogus"); err == nil || !strings.Contains(err.Error(), `no handler "bogus"`) {
		t.Errorf("a.bogus: %v", err)
	}
	// HandlerPath leaves language-producible names untouched.
	if got := HandlerPath("link@a/eth0@b/eth1", "drops"); got != "link@a/eth0@b/eth1.drops" {
		t.Errorf("HandlerPath(link) = %q", got)
	}
	if got := HandlerPath("q", "length"); got != "q.length" {
		t.Errorf("HandlerPath(q) = %q", got)
	}
}

// TestHostileNameWrites drives a write handler through an escaped path.
func TestHostileNameWrites(t *testing.T) {
	g := graph.New()
	g.MustAddElement("t0/h.v1", "THandler", "", "t")
	rt, err := Build(g, handlerTestRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := HandlerPath("t0/h.v1", "poke")
	if path != "t0%2Fh%2Ev1.poke" {
		t.Fatalf("HandlerPath = %q", path)
	}
	if err := rt.WriteHandler(path, "hi"); err != nil {
		t.Fatal(err)
	}
	if got := rt.Find("t0/h.v1").(*tHandlerElem).wrote; got != "hi" {
		t.Errorf("write through escaped path stored %q", got)
	}
	// The raw dotted path also resolves (longest match over live names).
	if v, err := rt.ReadHandler("t0/h.v1.status"); err != nil || v != "ready" {
		t.Errorf("raw dotted path = %q, %v", v, err)
	}
}

func TestEscapeElementNameRoundTrip(t *testing.T) {
	cases := []string{
		"q", "a.b", "a/b", "a%b", "link@a/eth0@b/eth1", "%%..//", "", "t0/q.v2",
	}
	for _, name := range cases {
		esc := EscapeElementName(name)
		if strings.ContainsAny(esc, "./") {
			t.Errorf("escape(%q) = %q still has metacharacters", name, esc)
		}
		got, ok := UnescapeElementName(esc)
		if !ok || got != name {
			t.Errorf("round trip %q → %q → %q, ok=%v", name, esc, got, ok)
		}
	}
	if _, ok := UnescapeElementName("bad%2"); ok {
		t.Error("truncated escape accepted")
	}
	if _, ok := UnescapeElementName("bad%zz"); ok {
		t.Error("non-hex escape accepted")
	}
}

func TestBaseDropCounts(t *testing.T) {
	rt, err := BuildFromText("a :: TPass -> s :: TSink;", "t", testRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := rt.Find("s").(*tSink)
	s.Drop(packet.New([]byte{1}))
	s.CountDrops(2)
	if got := s.Stats().Drops(); got != 3 {
		t.Errorf("drops = %d, want 3", got)
	}
	if v, _ := rt.ReadHandler("s.drops"); v != "3" {
		t.Errorf("s.drops handler = %q, want 3", v)
	}
}

func TestTracing(t *testing.T) {
	rt, err := BuildFromText("a :: TPass -> b :: TPass -> s :: TSink;", "t", testRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := rt.EnableTracing(16)
	if rt.Tracer() != tr {
		t.Fatal("Tracer() does not return the enabled tracer")
	}
	a := rt.Find("a").(*tPass)
	p1 := packet.New([]byte{1})
	p2 := packet.New([]byte{2})
	a.Push(0, p1)
	a.Push(0, p2)

	paths := tr.Paths()
	if len(paths) != 2 {
		t.Fatalf("traced %d packets, want 2: %v", len(paths), paths)
	}
	for id, path := range paths {
		if len(path) != 2 || path[0] != "b" || path[1] != "s" {
			t.Errorf("packet %d path = %v, want [b s]", id, path)
		}
	}

	// The ring buffer keeps only the newest records.
	rt2, err := BuildFromText("a :: TPass -> b :: TPass -> s :: TSink;", "t", testRegistry(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr2 := rt2.EnableTracing(3)
	a2 := rt2.Find("a").(*tPass)
	for i := 0; i < 4; i++ {
		a2.Push(0, packet.New([]byte{byte(i)}))
	}
	recs := tr2.Records()
	if len(recs) != 3 {
		t.Fatalf("ring kept %d records, want 3", len(recs))
	}
	// 8 transfers happened; the ring holds the last 3.
	if recs[0].Element != "s" || recs[1].Element != "b" || recs[2].Element != "s" {
		t.Errorf("ring tail = %v", recs)
	}
}
