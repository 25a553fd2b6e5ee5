package experiments

import (
	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	"repro/internal/iprouter"
	"repro/internal/lang"
	"repro/internal/packet"
	"repro/internal/simcpu"
)

// memDevice is an in-memory elements.Device: a preloaded RX queue and a
// TX counter. It also implements elements.BatchDevice so the batched
// device paths are exercised.
type memDevice struct {
	name string
	rx   []*packet.Packet
	sent int64
}

func (d *memDevice) DeviceName() string { return d.name }

func (d *memDevice) RxDequeue() *packet.Packet {
	if len(d.rx) == 0 {
		return nil
	}
	p := d.rx[0]
	d.rx = d.rx[1:]
	return p
}

func (d *memDevice) RxDequeueBatch(buf []*packet.Packet) int {
	n := copy(buf, d.rx)
	d.rx = d.rx[n:]
	return n
}

func (d *memDevice) TxEnqueue(p *packet.Packet) bool {
	d.sent++
	p.Kill()
	return true
}

func (d *memDevice) TxEnqueueBatch(ps []*packet.Packet) int {
	d.sent += int64(len(ps))
	for _, p := range ps {
		p.Kill()
	}
	return len(ps)
}

func (d *memDevice) TxRoom() bool { return true }
func (d *memDevice) TxClean() int { return 0 }

// modelOptions build a sweep that counts model cycles: with the cost
// model attached every task runs every round, as in the modeled Click,
// so idle ToDevices (which would sleep) charge their empty-queue checks.
func modelOptions(env map[string]interface{}) core.BuildOptions {
	return core.BuildOptions{CPU: simcpu.New(simcpu.P0), Env: env, Burst: 1}
}

// buildOnMemDevices parses a configuration over ifs, applies the passes
// (if any) and builds the router with opts on one memDevice per
// interface, with ARP already resolved for every attached host, as after
// the first exchange on a live link.
func buildOnMemDevices(text, name string, apply func(g *graph.Router, reg *core.Registry) error,
	ifs []iprouter.Interface, opts core.BuildOptions) (*core.Router, []*memDevice, error) {
	g, err := lang.ParseRouter(text, name)
	if err != nil {
		return nil, nil, err
	}
	reg := elements.NewRegistry()
	if apply != nil {
		if err := apply(g, reg); err != nil {
			return nil, nil, err
		}
	}
	opts.Env = map[string]interface{}{}
	devs := make([]*memDevice, len(ifs))
	for i, itf := range ifs {
		devs[i] = &memDevice{name: itf.Device}
		opts.Env["device:"+itf.Device] = devs[i]
	}
	rt, err := core.Build(g, reg, opts)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range rt.Elements() {
		if aq, ok := e.(*elements.ARPQuerier); ok {
			for _, itf := range ifs {
				aq.InsertEntry(itf.HostAddr, itf.HostEth)
			}
		}
	}
	return rt, devs, nil
}
