package mgmt

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	"repro/internal/lang"
	"repro/internal/opt"
	"repro/internal/packet"
)

// feedDevice receives a fixed list of frames and counts what it is
// given to transmit.
type feedDevice struct {
	name string
	rx   []*packet.Packet
	sent int
}

func (d *feedDevice) DeviceName() string { return d.name }
func (d *feedDevice) RxDequeue() *packet.Packet {
	if len(d.rx) == 0 {
		return nil
	}
	p := d.rx[0]
	d.rx = d.rx[1:]
	return p
}
func (d *feedDevice) TxEnqueue(p *packet.Packet) bool {
	p.Kill()
	d.sent++
	return true
}
func (d *feedDevice) TxRoom() bool { return true }
func (d *feedDevice) TxClean() int { return 0 }

// oracleScope is the device scoping the plane applied to a combined
// graph before it cached templates: every device-binding element's
// first argument becomes "tenant:dev", the tenant read from the
// element's name prefix.
func oracleScope(g *graph.Router) {
	for _, e := range g.Elements {
		args := lang.SplitConfig(e.Config)
		if !elements.BindsDevice(e.Class) || len(args) == 0 || strings.TrimSpace(args[0]) == "" {
			continue
		}
		id, _, _ := strings.Cut(e.Name, "/")
		args[0] = id + ":" + strings.TrimSpace(args[0])
		e.Config = strings.Join(args, ", ")
	}
}

// describe renders what the oracle compares of a router: every element's
// name, class and configuration, each port's push/pull kind and peer,
// the order packets visited elements, and every read handler's value.
func describe(t *testing.T, rt *core.Router, tr *core.Tracer) string {
	type ported interface {
		NInputs() int
		NOutputs() int
		Input(int) *core.InPort
		Output(int) *core.OutPort
	}
	name := func(e core.Element) string { return e.(interface{ Name() string }).Name() }
	var b strings.Builder
	proc := rt.Processing()
	for i, e := range rt.Elements() {
		ge := rt.Graph.Elements[i]
		fmt.Fprintf(&b, "%s :: %s(%s)\n", ge.Name, ge.Class, ge.Config)
		pe := e.(ported)
		for p := 0; p < pe.NOutputs(); p++ {
			if o := pe.Output(p); o.Connected() && proc.OutputKind(i, p) == graph.Push {
				dst, port := o.Target()
				fmt.Fprintf(&b, "  out %d push -> %s[%d]\n", p, name(dst), port)
			} else {
				fmt.Fprintf(&b, "  out %d %v\n", p, proc.OutputKind(i, p))
			}
		}
		for p := 0; p < pe.NInputs(); p++ {
			if in := pe.Input(p); in.Connected() && proc.InputKind(i, p) == graph.Pull {
				src, port := in.Source()
				fmt.Fprintf(&b, "  in %d pull <- %s[%d]\n", p, name(src), port)
			} else {
				fmt.Fprintf(&b, "  in %d %v\n", p, proc.InputKind(i, p))
			}
		}
		names, err := rt.HandlerNames(ge.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range names {
			v, err := rt.ReadHandler(core.HandlerPath(ge.Name, h))
			fmt.Fprintf(&b, "  %s = %q %v\n", h, v, err != nil)
		}
	}
	ids := map[uint64]int{}
	for _, r := range tr.Records() {
		if _, ok := ids[r.Packet]; !ok {
			ids[r.Packet] = len(ids)
		}
		fmt.Fprintf(&b, "visit %d %s\n", ids[r.Packet], r.Element)
	}
	return b.String()
}

// TestTemplateMatchesBuild is the oracle for template instantiation: a
// tenant's subrouter instantiated from its cached template must equal
// core.Build of the same text's optimized graph combined under the
// tenant's name with its devices scoped — the path every admission took
// before templates — in element names, classes and configurations, port
// wiring and push/pull kinds, the order 64 frames visit the elements
// (which the task order decides), and every read handler afterwards.
func TestTemplateMatchesBuild(t *testing.T) {
	conf, err := os.ReadFile("../../configs/iprouter8.click")
	if err != nil {
		t.Fatal(err)
	}
	udp := func(src, dst packet.IP4, dstE packet.EtherAddr, dport uint16) *packet.Packet {
		return packet.BuildUDP4(packet.EtherAddr{2, 0, 0, 0, 0, 9}, dstE, src, dst, 3456, dport, make([]byte, 14))
	}
	cases := []struct {
		name, text string
		devices    int
		frame      func(k int) (dev int, p *packet.Packet) // the k-th of 64
	}{
		{"ctl-churn", churnConfig(2003, 64), 2, func(k int) (int, *packet.Packet) {
			// Tenant pipelines start at the IP header.
			p := udp(packet.MakeIP4(192, 0, 2, 7), packet.MakeIP4(10, 0, 0, 2), packet.EtherAddr{}, []uint16{53, 2003, 69, 161, 2000}[k%5])
			p.Pull(packet.EtherHeaderLen)
			return 0, p
		}},
		{"iprouter8", string(conf), 8, func(k int) (int, *packet.Packet) {
			dev := k % 8
			mac := packet.EtherAddr{0, 0, 0xc0, 0, byte(dev), 1}
			return dev, udp(packet.MakeIP4(10, 0, byte(dev), 2), packet.MakeIP4(10, 0, byte((dev+1+k/8)%8), 2), mac, 53)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := NewPlane(Options{})
			if err != nil {
				t.Fatal(err)
			}
			const id = "t7"
			mustCreate(t, p, id, c.text)
			tn := p.tenants[id]
			// env binds devices eth0... and feeds them the 64 frames.
			env := func() map[string]interface{} {
				env := map[string]interface{}{}
				devs := make([]*feedDevice, c.devices)
				for d := range devs {
					devs[d] = &feedDevice{name: fmt.Sprintf("%s:eth%d", id, d)}
					env["device:"+devs[d].name] = devs[d]
				}
				for k := 0; k < 64; k++ {
					d, f := c.frame(k)
					devs[d].rx = append(devs[d].rx, f)
				}
				return env
			}
			run := func(rt *core.Router, err error) string {
				if err != nil {
					t.Fatal(err)
				}
				tr := rt.EnableTracing(1 << 16)
				rt.RunUntilIdle(1000)
				return describe(t, rt, tr)
			}
			got := run(tn.config.plan.Instantiate(tenantPrefix(id), tn.scope, core.BuildOptions{Env: env()}))
			g, err := opt.Combine([]opt.RouterInput{{Name: id, Config: tn.config.plan.Graph}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			oracleScope(g)
			want := run(core.Build(g, p.reg, core.BuildOptions{Env: env()}))
			if !strings.Contains(want, "visit") {
				t.Fatalf("the frames visited nothing:\n%s", want)
			}
			if got != want {
				gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := range wl {
					if i >= len(gl) || gl[i] != wl[i] {
						t.Fatalf("template instance differs from core.Build at line %d:\n got %q\nwant %q", i, gl[min(i, len(gl)-1)], wl[i])
					}
				}
				t.Fatalf("template instance has %d lines, core.Build %d", len(gl), len(wl))
			}
		})
	}
}
