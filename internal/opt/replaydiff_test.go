package opt

// Golden-trace replay harness: the committed pcap fixtures under
// testdata/traces/ replay through real packet-I/O backends
// (internal/io's Pcap devices) instead of the in-memory fakeDevice, and
// the capture files each run produces must be byte-for-byte identical
// across every optimizer pass and every execution mode. Because capture
// timestamps are a deterministic counter, byte-equality of the pcap
// streams is exactly packet-for-packet equality of the transmitted
// sequences — the same oracle `click -backend pcap` exposes from the
// command line.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	pktio "repro/internal/io"
	"repro/internal/iprouter"
	"repro/internal/lang"
)

const (
	ipMixedTrace  = "../../testdata/traces/ip_mixed.pcap"
	udpPortsTrace = "../../testdata/traces/udp_ports.pcap"
	iprouter8Conf = "../../configs/iprouter8.click"
)

// loadTrace reads a committed fixture.
func loadTrace(t *testing.T, path string) []pktio.Record {
	t.Helper()
	recs, err := pktio.ReadPcapFile(path)
	if err != nil {
		t.Fatalf("fixture %s: %v", path, err)
	}
	if len(recs) == 0 {
		t.Fatalf("fixture %s is empty", path)
	}
	return recs
}

// replayRun parses the configuration, optionally applies a pass, builds
// the router over Pcap-backed devices eth0..eth<ndev-1> (the replay
// feeding eth0, a per-device capture sink on every device), runs to
// idle, and returns each device's raw capture stream.
func replayRun(t *testing.T, text string, ndev int,
	pass func(*graph.Router, *core.Registry) error,
	burst int, ifs []iprouter.Interface, recs []pktio.Record) map[string][]byte {
	t.Helper()
	g, err := lang.ParseRouter(text, "replaydiff")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	reg := elements.NewRegistry()
	if pass != nil {
		if err := pass(g, reg); err != nil {
			t.Fatalf("pass: %v", err)
		}
	}
	env := map[string]interface{}{}
	bufs := map[string]*bytes.Buffer{}
	for i := 0; i < ndev; i++ {
		name := fmt.Sprintf("eth%d", i)
		buf := &bytes.Buffer{}
		sink, err := pktio.NewCaptureSink(buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		var src []pktio.Record
		if i == 0 {
			src = recs
		}
		bufs[name] = buf
		env["device:"+name] = pktio.NewDevice(name, pktio.NewPcap(src, sink))
	}
	rt, err := core.Build(g, reg, core.BuildOptions{Env: env, Burst: burst})
	if err != nil {
		t.Fatalf("build: %v\n%s", err, lang.Unparse(g))
	}
	if ifs != nil {
		warmARP(rt, ifs)
	}
	rt.RunUntilIdle(100000)
	out := map[string][]byte{}
	for name, buf := range bufs {
		out[name] = buf.Bytes()
	}
	return out
}

// replayCompare asserts two per-device capture sets are byte-identical,
// dumping both sides to $REPLAY_ARTIFACT_DIR when set (the CI step
// uploads that directory on failure).
func replayCompare(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	for dev, ws := range want {
		gs := got[dev]
		if bytes.Equal(ws, gs) {
			continue
		}
		wn, _ := pktio.ReadPcap(bytes.NewReader(ws))
		gn, _ := pktio.ReadPcap(bytes.NewReader(gs))
		t.Errorf("%s: %s capture differs (%d vs %d frames, %d vs %d bytes)",
			label, dev, len(wn), len(gn), len(ws), len(gs))
		dumpCapture(t, label, dev+"-want", ws)
		dumpCapture(t, label, dev+"-got", gs)
	}
}

// dumpCapture writes a diverging capture where CI can collect it.
func dumpCapture(t *testing.T, label, name string, data []byte) {
	dir := os.Getenv("REPLAY_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s.pcap", label, name))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Logf("artifact %s: %v", path, err)
		return
	}
	t.Logf("diverging capture saved to %s", path)
}

// TestReplayFixtures sanity-checks the committed fixtures: frame
// counts, parseability, and the deterministic counter timestamps the
// byte-equality oracle depends on.
func TestReplayFixtures(t *testing.T) {
	for _, fx := range []struct {
		path   string
		frames int
	}{
		{ipMixedTrace, 38},
		{udpPortsTrace, 60},
	} {
		recs := loadTrace(t, fx.path)
		if len(recs) != fx.frames {
			t.Errorf("%s: %d frames, want %d", fx.path, len(recs), fx.frames)
		}
		for i, r := range recs {
			if r.TSNanos != int64(i)*1e3 {
				t.Errorf("%s record %d: timestamp %d, want counter %d", fx.path, i, r.TSNanos, int64(i)*1e3)
				break
			}
		}
	}
}

// TestReplayGoldenIPRouter8 replays the mixed IP trace through the
// committed 8-interface router configuration and asserts every
// optimizer pass and every execution mode leaves all eight capture
// files byte-identical to the unoptimized scalar run.
func TestReplayGoldenIPRouter8(t *testing.T) {
	confText, err := os.ReadFile(iprouter8Conf)
	if err != nil {
		t.Fatal(err)
	}
	text := string(confText)
	ifs := iprouter.Interfaces(8)
	recs := loadTrace(t, ipMixedTrace)

	base := replayRun(t, text, 8, nil, 0, ifs, recs)
	baseFrames := 0
	for dev, capt := range base {
		rs, err := pktio.ReadPcap(bytes.NewReader(capt))
		if err != nil {
			t.Fatalf("baseline %s capture unreadable: %v", dev, err)
		}
		baseFrames += len(rs)
	}
	if baseFrames == 0 {
		t.Fatal("baseline replay transmitted nothing")
	}
	t.Logf("baseline: %d frames in, %d frames captured", len(recs), baseFrames)

	passes := append([]struct {
		name  string
		apply func(g *graph.Router, reg *core.Registry) error
	}{{"none", nil}}, diffPasses...)
	for _, p := range passes {
		for _, m := range append([]struct {
			name  string
			burst int
		}{{"scalar", 0}}, diffModes...) {
			label := fmt.Sprintf("iprouter8-%s-%s", p.name, m.name)
			got := replayRun(t, text, 8, p.apply, m.burst, ifs, recs)
			replayCompare(t, label, base, got)
		}
	}
}

// TestReplayGoldenRandomConfigs replays the committed port-steering
// trace through the random-configuration corpus, asserting the same
// byte-identical-captures property across passes and modes.
func TestReplayGoldenRandomConfigs(t *testing.T) {
	recs := loadTrace(t, udpPortsTrace)
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			text, sinks := randomPushConfig(seed)
			ndev := sinks + 1
			base := replayRun(t, text, ndev, nil, 0, nil, recs)
			total := 0
			for _, capt := range base {
				rs, _ := pktio.ReadPcap(bytes.NewReader(capt))
				total += len(rs)
			}
			if total == 0 {
				t.Fatalf("seed %d forwarded nothing:\n%s", seed, text)
			}
			for _, p := range diffPasses {
				got := replayRun(t, text, ndev, p.apply, 0, nil, recs)
				replayCompare(t, "seed-"+p.name, base, got)
			}
			for _, m := range diffModes {
				got := replayRun(t, text, ndev, nil, m.burst, nil, recs)
				replayCompare(t, "seed-"+m.name, base, got)
			}
		})
	}
}

// replayRunAggregate is replayRun with one shared capture sink across
// every device — the `click -backend pcap -pcap-out file` shape.
func replayRunAggregate(t *testing.T, text string, ndev int,
	pass func(*graph.Router, *core.Registry) error,
	ifs []iprouter.Interface, recs []pktio.Record) []byte {
	t.Helper()
	g, err := lang.ParseRouter(text, "replaydiff")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	reg := elements.NewRegistry()
	if pass != nil {
		if err := pass(g, reg); err != nil {
			t.Fatalf("pass: %v", err)
		}
	}
	buf := &bytes.Buffer{}
	sink, err := pktio.NewCaptureSink(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]interface{}{}
	for i := 0; i < ndev; i++ {
		name := fmt.Sprintf("eth%d", i)
		var src []pktio.Record
		if i == 0 {
			src = recs
		}
		env["device:"+name] = pktio.NewDevice(name, pktio.NewPcap(src, sink))
	}
	rt, err := core.Build(g, reg, core.BuildOptions{Env: env})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if ifs != nil {
		warmARP(rt, ifs)
	}
	rt.RunUntilIdle(100000)
	return buf.Bytes()
}

// TestReplayCLIAggregate asserts the exact property the acceptance
// command checks: one aggregate capture of the 8-interface router over
// the mixed trace is byte-identical with and without each optimizer
// pass (fuse and flowcache included).
func TestReplayCLIAggregate(t *testing.T) {
	confText, err := os.ReadFile(iprouter8Conf)
	if err != nil {
		t.Fatal(err)
	}
	text := string(confText)
	ifs := iprouter.Interfaces(8)
	recs := loadTrace(t, ipMixedTrace)

	base := replayRunAggregate(t, text, 8, nil, ifs, recs)
	if n, _ := pktio.ReadPcap(bytes.NewReader(base)); len(n) == 0 {
		t.Fatal("aggregate baseline captured nothing")
	}
	for _, p := range diffPasses {
		got := replayRunAggregate(t, text, 8, p.apply, ifs, recs)
		if !bytes.Equal(base, got) {
			t.Errorf("aggregate capture differs under %s", p.name)
			dumpCapture(t, "aggregate-"+p.name, "want", base)
			dumpCapture(t, "aggregate-"+p.name, "got", got)
		}
	}
}
