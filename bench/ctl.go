package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/iprouter"
	"repro/internal/lang"
	"repro/internal/mgmt"
)

const (
	ctlTemplates = 8 // deployed ruleset templates
	ctlBurst     = 8 // frames injected per tenant per traffic step
	ctlColdEvery = 8 // every n-th cycle's Create uses a never-seen ruleset
	ctlDiffRule  = 10
	ctlProbePort = 2000 // template k admits UDP to port ctlProbePort+k
	ctlColdPort  = 3000 // never-seen rulesets admit ctlColdPort+n instead
)

// ctlRules is the §4 firewall with one rule replaced by an allow for a
// single UDP port. The port is the only difference between rulesets, so
// a frame to that port is forwarded by exactly one of them: after a swap
// the harness sees on the wire which ruleset is live.
func ctlRules(port int) string {
	rules := append([]string(nil), iprouter.FirewallRules()...)
	rules[ctlDiffRule] = fmt.Sprintf("allow udp && dst port %d", port)
	return strings.Join(rules, ", ")
}

// ctlConfig is one tenant's dataplane, as in click-bench's mgmtscale
// experiment: poll, a fusable classifier chain, queue, transmit.
func ctlConfig(port int) string {
	return fmt.Sprintf(`pd :: PollDevice(eth0) -> flt :: IPFilter(%s) -> fc :: IPClassifier(udp, tcp, -);
fc [0] -> q :: Queue(64) -> td :: ToDevice(eth1);
fc [1] -> q;
fc [2] -> ds :: Discard;
`, ctlRules(port))
}

// opKind indexes the control operations of a cycle.
type opKind int

const (
	opSwap opKind = iota
	opDelete
	opCreateWarm
	opCreateCold
	opWrite
	opRead
	numOpKinds
)

var opMetric = [numOpKinds]string{
	"mgmt.swap_us", "mgmt.delete_us", "mgmt.create_warm_us", "mgmt.create_cold_us",
	"mgmt.handler_write_us", "mgmt.handler_read_us",
}

// ctlWorkload is ctl-churn: control operations beside traffic on a
// multi-tenant plane. The seed picks each tenant's first template and
// the template every swap and create rolls to.
type ctlWorkload struct {
	sc        scale
	templates [ctlTemplates]string
	first     []int   // tenant -> template at population
	roll      []uint8 // cyclic: template offsets 1..7 for swaps, 0..7 for creates
	// bursts[k][i] is tenant i's burst while it runs template k: seven
	// frames every ruleset admits and one only template k does.
	// bursts[ctlTemplates][i] has eight common frames, for a tenant on a
	// never-seen ruleset.
	bursts [ctlTemplates + 1][][][]byte
	expect []expectation
	ids    []string
	sha    string
}

func (w *ctlWorkload) text() string        { return w.templates[0] }
func (w *ctlWorkload) inputSHA256() string { return w.sha }

func newCtlWorkload(seed int64, sc scale) (*ctlWorkload, error) {
	w := &ctlWorkload{sc: sc}
	r := rand.New(rand.NewSource(seed))
	ih := newInputHash()
	for k := range w.templates {
		w.templates[k] = ctlConfig(ctlProbePort + k)
		ih.text(w.templates[k])
	}
	common := frameSpec{
		Src: [4]byte{192, 0, 2, 7}, Dst: [4]byte{10, 0, 0, 2},
		Proto: protoUDP, Sport: 3456, Dport: 53, TTL: 64, Size: etherLen + 54,
	}
	for i := 0; i < sc.Tenants; i++ {
		w.ids = append(w.ids, fmt.Sprintf("t%03d", i))
		w.first = append(w.first, r.Intn(ctlTemplates))
		w.expect = append(w.expect, expectation{Dev: i})
		common.Tag = uint32(i)
		// Tenant pipelines start at the IP header.
		cf := common.build()[etherLen:]
		ih.frame(cf)
		for k := 0; k <= ctlTemplates; k++ {
			burst := make([][]byte, ctlBurst)
			for j := range burst {
				burst[j] = cf
			}
			if k < ctlTemplates {
				probe := common
				probe.Dport = uint16(ctlProbePort + k)
				burst[r.Intn(ctlBurst)] = probe.build()[etherLen:]
			}
			w.bursts[k] = append(w.bursts[k], burst)
		}
	}
	w.roll = make([]uint8, 4096)
	for i := range w.roll {
		w.roll[i] = uint8(r.Intn(ctlTemplates))
	}
	ih.ints(w.first...)
	for _, v := range w.roll {
		ih.ints(int(v))
	}
	w.sha = ih.sum()
	return w, nil
}

type ctlInst struct {
	w     *ctlWorkload
	plane *mgmt.Plane
	sched *core.Scheduler
	sink  *sink
	in    []*memDev // tenant i's eth0
	tr    *tracer

	tmpl  []int // tenant -> live template, ctlTemplates when on a never-seen ruleset
	cycle int64
	cold  int64
	caps  [2]string

	offered, ops, opErrs, wrong int64

	counting bool // countedPass: accumulate the traffic steps' telemetry
	counted  core.StatsTotals
	byKind   [numOpKinds][]int64 // traced runs only
}

func (w *ctlWorkload) bringUp(tr *tracer, pt *passTimes) (instance, error) {
	n := w.sc.Tenants
	c := &ctlInst{
		w: w, tr: tr, sink: newSink(n, w.expect, true),
		in: make([]*memDev, n), tmpl: make([]int, n), caps: [2]string{"128", "64"},
	}
	out := make([]*memDev, n)
	index := map[string]int{}
	for i, id := range w.ids {
		index[id] = i
		c.in[i] = &memDev{name: id + ":eth0", id: i, sink: c.sink, tr: tr}
		out[i] = &memDev{name: id + ":eth1", id: i, sink: c.sink, tr: tr}
	}
	var err error
	c.plane, err = mgmt.NewPlane(mgmt.Options{
		Workers: 1,
		Devices: func(tenant, dev string) interface{} {
			if dev == "eth0" {
				return c.in[index[tenant]]
			}
			return out[index[tenant]]
		},
	})
	if err != nil {
		return nil, err
	}
	c.sched = c.plane.Scheduler()
	for i, id := range w.ids {
		c.tmpl[i] = w.first[i]
		if err := c.plane.Create(id, w.templates[c.tmpl[i]], mgmt.Limits{}); err != nil {
			return nil, err
		}
	}
	if got := c.traffic(0); got != ctlBurst {
		return nil, fmt.Errorf("ctl-churn: first burst: %d of %d frames forwarded", got, ctlBurst)
	}
	if tr != nil {
		for k := range c.byKind {
			c.byKind[k] = make([]int64, 0, 1<<15)
		}
	}
	return c, nil
}

func (c *ctlInst) router() *core.Router { return c.sched.Router() }
func (c *ctlInst) passSteps() int       { return 8 * c.w.sc.Tenants }
func (c *ctlInst) controlOps() int64    { return c.ops }
func (c *ctlInst) close()               { c.router().Close() }

// traffic injects tenant i's burst, drains the plane on this goroutine
// (there is no background pump) and returns the frames delivered.
func (c *ctlInst) traffic(tenants ...int) int64 {
	for _, i := range tenants {
		c.in[i].rx = c.w.bursts[c.tmpl[i]][i]
		c.offered += ctlBurst
	}
	before := c.sink.delivered
	var stats core.StatsTotals
	if c.counting {
		stats = core.Totals(c.router().StatsReport())
	}
	if c.tr != nil {
		c.tr.begin(layCoreRound, nanotime())
	}
	c.sched.RunUntilIdle(4096)
	if c.tr != nil {
		c.tr.end(nanotime())
	}
	if c.counting {
		after := core.Totals(c.router().StatsReport())
		c.counted.PacketsIn += after.PacketsIn - stats.PacketsIn
		c.counted.Cycles += after.Cycles - stats.Cycles
		c.counted.Drops += after.Drops - stats.Drops
	}
	return c.sink.delivered - before
}

// control times one control operation, call to return.
func (c *ctlInst) control(rec *blockRecorder, kind opKind, fn func() error) {
	t0 := nanotime()
	c.tr.begin(layMgmtOp, t0)
	err := fn()
	t1 := nanotime()
	c.tr.end(t1)
	c.ops++
	if err != nil {
		c.opErrs++
	}
	rec.opDone(t1 - t0)
	if s := c.byKind[kind]; s != nil && len(s) < cap(s) {
		c.byKind[kind] = append(s, t1-t0)
	}
}

// step is one fixed cycle on the next tenant: traffic, swap to another
// deployed template, traffic, delete, create, handler write, handler
// read.
func (c *ctlInst) step(rec *blockRecorder, now int64) (int64, int64) {
	w := c.w
	n := w.sc.Tenants
	i := int(c.cycle % int64(n))
	nb := (i + 1) % n
	id := w.ids[i]
	roll := w.roll[(2*c.cycle)%int64(len(w.roll)):]
	c.cycle++
	c.tr.setOp(c.cycle)
	c.tr.begin(layBench, now)

	pkts := c.traffic(i, nb)
	next := (c.tmpl[i]%ctlTemplates + 1 + int(roll[0])%(ctlTemplates-1)) % ctlTemplates
	c.control(rec, opSwap, func() error { return c.plane.Swap(id, w.templates[next]) })
	c.tmpl[i] = next
	// The burst now carries the frame only the new ruleset admits.
	pkts += c.traffic(i, nb)
	c.control(rec, opDelete, func() error { return c.plane.Delete(id) })
	if c.cycle%ctlColdEvery == 0 {
		// The one allocation the harness makes in the timed loop: the
		// plane keeps the text, so every never-seen ruleset is a new
		// string.
		c.cold++
		text := ctlConfig(ctlColdPort + int(c.cold))
		c.tmpl[i] = ctlTemplates
		c.control(rec, opCreateCold, func() error { return c.plane.Create(id, text, mgmt.Limits{}) })
	} else {
		c.tmpl[i] = int(roll[1])
		c.control(rec, opCreateWarm, func() error { return c.plane.Create(id, w.templates[c.tmpl[i]], mgmt.Limits{}) })
	}
	capacity := c.caps[c.cycle%2]
	c.control(rec, opWrite, func() error { return c.plane.WriteHandler(id, "q", "capacity", capacity) })
	c.control(rec, opRead, func() error {
		got, err := c.plane.ReadHandler(id, "q", "capacity")
		if err == nil && strings.TrimSpace(got) != capacity {
			c.wrong++
		}
		return err
	})
	end := nanotime()
	c.tr.end(end)
	return pkts, end
}

func (c *ctlInst) verify() verdict {
	v := verdict{Attempted: c.offered + c.ops}
	// Zero loss across swap and delete+create, and the differing rule
	// enforced after each swap: every injected frame, including the one
	// only the live ruleset admits, came out of its own tenant's eth1.
	v.fail(abs64(c.offered-c.sink.delivered), "frames injected %d, delivered %d", c.offered, c.sink.delivered)
	v.fail(c.sink.bad, "frames on another tenant's device")
	v.fail(c.opErrs, "control operations returned an error")
	v.fail(c.wrong, "capacity read back differs from the value written")
	return v
}

func (c *ctlInst) native(m map[string]float64) {
	routerNative(c.router(), m)
	for k, s := range c.byKind {
		if len(s) > 0 {
			m[opMetric[k]] = medianInt64(s) / 1e3
		}
	}
	rep := c.plane.Report()
	if n := rep.ConfigCacheHits + rep.ConfigCacheMisses; n > 0 {
		m["mgmt.cache_hit_share"] = float64(rep.ConfigCacheHits) / float64(n)
	}
	m["mgmt.shared_programs"] = float64(rep.Sharing.Programs)
	m["mgmt.resident_nodes"] = float64(rep.Sharing.ResidentNodes)
	m["core.build_us"] = c.buildUS(32)
	m["mgmt.report_us"] = medianOf(64, func() { c.plane.Report() }) / 1e3
	m["mgmt.http_swap_us"] = c.httpSwaps(32) / 1e3
	m["core.syncdo_wait_us"] = c.syncDoWait(8) / 1e3
}

// medianOf times n calls of fn and returns the median in ns.
func medianOf(n int, fn func()) float64 {
	samples := make([]int64, n)
	for i := range samples {
		t0 := nanotime()
		fn()
		samples[i] = nanotime() - t0
	}
	return medianInt64(samples)
}

// buildUS times core.Build of one tenant template on its own, which the
// plane otherwise does inside Create and Swap.
func (c *ctlInst) buildUS(n int) float64 {
	g, err := lang.ParseRouter(c.w.templates[0], "ctl-churn")
	if err != nil {
		return 0
	}
	s := newSink(1, nil, true)
	env := map[string]interface{}{"device:eth0": &memDev{sink: s}, "device:eth1": &memDev{sink: s}}
	return medianOf(n, func() {
		if rt, err := core.Build(g, elements.NewRegistry(), core.BuildOptions{Env: env}); err == nil {
			rt.Close()
		}
	}) / 1e3
}

// httpSwaps times n hot-swaps of tenant 0 as HTTP PUTs through the
// plane's handler (in process: no listener, no socket).
func (c *ctlInst) httpSwaps(n int) float64 {
	h := c.plane.Handler()
	k := 0
	return medianOf(n, func() {
		k = (k + 1) % ctlTemplates
		req, err := http.NewRequest(http.MethodPut, "/tenants/"+c.w.ids[0], strings.NewReader(c.w.templates[k]))
		if err != nil {
			c.opErrs++
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		c.ops++
		if rec.Code != http.StatusOK {
			c.opErrs++
		}
		c.tmpl[0] = k
	})
}

// syncDoWait times SyncDo calls while the plane's own pump goroutine
// works through a backlog: the wait for the next quiescent point. The
// backlog is handed to the devices, and its remainder read, at quiescent
// points too, so the pump never races the harness; only calls made after
// the pump has started on the backlog count. The pump needs a processor
// of its own for this, or the harness would only ever run while it
// sleeps.
func (c *ctlInst) syncDoWait(rounds int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const repeat = 16
	backlog := make([][][]byte, len(c.in))
	for i := range backlog {
		for k := 0; k < repeat; k++ {
			backlog[i] = append(backlog[i], c.w.bursts[c.tmpl[i]][i]...)
		}
	}
	total := len(c.in) * repeat * ctlBurst
	var samples []int64
	c.plane.Start()
	for r := 0; r < rounds; r++ {
		c.sched.SyncDo(func() {
			for i := range c.in {
				c.in[i].rx = backlog[i]
			}
		})
		c.offered += int64(total)
		for pending := total; pending > 0; {
			t0 := nanotime()
			c.sched.SyncDo(func() {
				pending = 0
				for i := range c.in {
					pending += len(c.in[i].rx)
				}
			})
			if dt := nanotime() - t0; pending > 0 && pending < total {
				samples = append(samples, dt)
			}
		}
	}
	c.plane.Stop()
	c.sched.RunUntilIdle(4096)
	return medianInt64(samples)
}
