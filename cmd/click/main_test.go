package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	iprouter8 = "../../configs/iprouter8.click"
	ipTrace   = "../../testdata/traces/ip_mixed.pcap"
)

// runReport runs the driver with -report and decodes the JSON document
// it prints, indexing the elements by name.
func runReport(t *testing.T, args ...string) (jsonReport, map[string]int64, map[string]int64) {
	t.Helper()
	var out, errw bytes.Buffer
	if code := run(append(args, "-report"), &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	in, outp := map[string]int64{}, map[string]int64{}
	for _, e := range rep.Elements {
		in[e.Name], outp[e.Name] = e.PacketsIn, e.PacketsOut
	}
	return rep, in, outp
}

func writeConfig(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A self-driving configuration under the sim backend: the replacement
// adds c2 behind the queue, so c2's count is exactly the packets that
// left after the swap and the transplanted counters cover the whole run.
func TestRunHotswapAfterSelfDriving(t *testing.T) {
	before := writeConfig(t, "a.click", `src :: InfiniteSource(200);
c :: Counter; q :: Queue; u :: Unqueue;
src -> c -> q -> u -> d :: Discard;`)
	after := writeConfig(t, "b.click", `src :: InfiniteSource(200);
c :: Counter; q :: Queue; u :: Unqueue;
src -> c -> q -> u -> c2 :: Counter -> d :: Discard;`)
	rep, in, out := runReport(t, "-f", before, "-hotswap", after, "-hotswap-after", "50")
	if rep.TaskRounds != 200 {
		t.Errorf("task_rounds = %d, want 200", rep.TaskRounds)
	}
	if out["src"] != 200 || in["d"] != 200 {
		t.Errorf("src sent %d, d received %d; want the source's 200-packet budget carried across the swap", out["src"], in["d"])
	}
	if in["c2"] != 150 {
		t.Errorf("c2 saw %d packets, want the 150 sent after the swap at round 50", in["c2"])
	}
	if rep.Totals.PacketsIn != 950 {
		t.Errorf("totals.packets_in = %d, want 950", rep.Totals.PacketsIn)
	}
}

// The Figure 1 router. Under the sim backend its devices are idle, so it
// runs zero active rounds and never reaches -hotswap-after; the swap is
// therefore driven with the pcap backend replaying a committed trace
// into eth0, and the sim run pins what idle auto-binding reports.
func TestRunHotswapAfterIPRouter(t *testing.T) {
	text, err := os.ReadFile(iprouter8)
	if err != nil {
		t.Fatal(err)
	}
	marked := strings.Replace(string(text), "fd0 -> c0;", "fd0 -> swapmark :: Counter -> c0;", 1)
	if marked == string(text) {
		t.Fatal("iprouter8.click no longer has the fd0 -> c0 edge this test marks")
	}
	after := writeConfig(t, "marked.click", marked)

	_, in, out := runReport(t, "-backend", "pcap", "-pcap-in", ipTrace, "-f", iprouter8,
		"-hotswap", after, "-hotswap-after", "3")
	if in["swapmark"] == 0 {
		t.Fatal("swapmark saw no packets: the replacement was never installed")
	}
	if out["fd0"] <= in["swapmark"] {
		t.Errorf("fd0 sent %d, swapmark saw %d: fd0's pre-swap count did not transplant", out["fd0"], in["swapmark"])
	}
	_, _, base := runReport(t, "-backend", "pcap", "-pcap-in", ipTrace, "-f", iprouter8)
	if out["fd0"] != base["fd0"] || out["td1"] != base["td1"] {
		t.Errorf("swapped run moved fd0=%d td1=%d frames, unswapped fd0=%d td1=%d: the swap was visible on the wire",
			out["fd0"], out["td1"], base["fd0"], base["td1"])
	}

	rep, in, _ := runReport(t, "-f", iprouter8, "-hotswap", after, "-hotswap-after", "3")
	if rep.TaskRounds != 0 || rep.Totals.PacketsIn != 0 {
		t.Errorf("idle sim run: %d rounds, %d packets; want 0, 0", rep.TaskRounds, rep.Totals.PacketsIn)
	}
	if _, ok := in["td7"]; !ok {
		t.Error("idle sim run did not report td7: eth7 was not auto-bound")
	}
	if _, ok := in["swapmark"]; ok {
		t.Error("idle sim run installed the replacement without reaching -hotswap-after")
	}
}

func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
		msg  string
	}{
		{[]string{"-serve", "localhost:0", "-full-rebuild"}, 2, "-full-rebuild"},
		{[]string{"-serve", "localhost:0", "-no-share"}, 2, "-no-share"},
		{[]string{"-workers", "2", iprouter8}, 2, "-workers"},
		{[]string{"-backend", "bogus", iprouter8}, 1, "unknown backend"},
	} {
		var out, errw bytes.Buffer
		if code := run(tc.args, &out, &errw); code != tc.want {
			t.Errorf("%v: exit %d, want %d (%s)", tc.args, code, tc.want, errw.String())
		}
		if !strings.Contains(errw.String(), tc.msg) {
			t.Errorf("%v: stderr %q does not mention %q", tc.args, errw.String(), tc.msg)
		}
	}
}
