// Command click runs a router configuration. Without simulated devices
// the configuration must drive itself (InfiniteSource and friends); the
// -rounds flag bounds the task loop. Archives produced by the optimizer
// tools are installed (generated element classes registered) before the
// configuration is parsed, as the Click driver compiles and links
// attached code (§5.2).
//
// Usage:
//
//	click [-f config] [-rounds n] [-batch n] [-trace n] [-fuse]
//	      [-flowcache] [-hotswap config] [-hotswap-after n] [-adapt]
//	      [-adapt-interval n] [-adapt-flowcache] [-serve addr]
//	      [-backend sim|pcap|udp] [-pcap-in [dev=]file]... [-pcap-out [dev=]file]...
//	      [-udp-map dev=local[/peer]]... [-duration d]
//	      [-h element.handler]... [-counters] [-report] [config]
//
// -fuse applies the click-fuse whole-path classifier fusion pass to the
// configuration before building it, the in-driver shortcut for piping
// through click-fuse first. -flowcache installs the flow fast path: an
// exact-match cache in front of the pipeline that learns each flow's
// net transformation from its first packet and short-circuits the rest,
// with guard generations keeping it coherent across route, ARP, and
// configuration changes.
//
// -batch moves packets between elements in bursts of up to n (amortized
// dispatch). -counters prints the familiar per-element handler dump;
// -report instead emits the full telemetry tree — per-element packet,
// byte, drop, and cycle counters, their totals, any optimizer pass
// reports carried in the configuration archive, and (with -trace) the
// recorded per-packet element paths — as one JSON document on stdout.
//
// -hotswap names a replacement configuration to install atomically
// mid-run at a task-round boundary (Scheduler.SyncDo): queue contents,
// ARP tables, counters, flow-cache entries, and live handler settings
// transplant to same-named elements (Click's take_state). The swap triggers on
// SIGHUP, or after -hotswap-after active rounds when that is nonzero.
// -adapt runs the telemetry-driven re-optimization controller: every
// -adapt-interval active rounds it samples the live element counters,
// decides which optimizer passes the traffic justifies, and hot-swaps
// the re-optimized configuration in. -adapt-flowcache additionally lets
// the controller install the flow fast path once the router runs hot.
//
// -serve runs the driver as a multi-tenant server instead: tenant
// configurations are created, inspected, hot-swapped, and deleted over
// an HTTP/JSON management API on the given address (POST/PUT/DELETE
// /tenants/{id}, GET /tenants/{id}/report, GET/POST
// /tenants/{id}/elements/{name}/{handler}). Each tenant's elements live
// in a combined router under a "{id}/" name prefix; a configuration
// named on the command line is installed as tenant "default".
//
// Device elements (PollDevice, FromDevice, ToDevice) referencing devices
// that no caller provided are bound to idle in-memory devices, so
// hardware-facing configurations can be load-checked and reported on
// standalone. -backend selects real packet I/O instead: "pcap" replays
// capture files into devices (-pcap-in [dev=]file; a bare file feeds the
// first input device) and records their transmissions (-pcap-out
// [dev=]file; a bare file is one aggregate capture with deterministic
// counter timestamps), "udp" binds devices to localhost sockets
// (-udp-map dev=local[/peer]) and keeps the driver alive for -duration
// waiting for traffic. Backends move frames outside the cost model and
// charge zero model cycles, so simulation calibration is unaffected.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	pktio "repro/internal/io"
	"repro/internal/lang"
	"repro/internal/mgmt"
	"repro/internal/opt"
	"repro/internal/tool"
)

type stringList []string

func (h *stringList) String() string     { return strings.Join(*h, ",") }
func (h *stringList) Set(s string) error { *h = append(*h, s); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the driver behind main: 0 on success, 1 on a configuration or
// runtime error, 2 on a command-line error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("click", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fail := func(err error) int {
		fmt.Fprintf(stderr, "click: %v\n", err)
		return 1
	}
	file := fs.String("f", "-", "configuration file (- = stdin)")
	rounds := fs.Int("rounds", 100000, "maximum task-loop rounds")
	counters := fs.Bool("counters", true, "print element counters on exit")
	report := fs.Bool("report", false, "emit the telemetry report (elements, totals, pass reports) as JSON")
	traceCap := fs.Int("trace", 0, "record per-packet element paths (ring buffer of n records)")
	batch := fs.Int("batch", 1, "move packets between elements in bursts of up to this size")
	hotswapFile := fs.String("hotswap", "", "replacement configuration to hot-swap in mid-run (on SIGHUP, or after -hotswap-after rounds)")
	hotswapAfter := fs.Int("hotswap-after", 0, "hot-swap the -hotswap configuration after this many active rounds (0 = only on SIGHUP)")
	fuse := fs.Bool("fuse", false, "fuse classification runs into decision diagrams before building")
	flowcache := fs.Bool("flowcache", false, "install the flow fast path (exact-match cache with guarded invalidation) before building")
	adapt := fs.Bool("adapt", false, "run the adaptive re-optimization controller")
	adaptEvery := fs.Int("adapt-interval", 2000, "active rounds between adaptive telemetry samples")
	adaptFlowCache := fs.Bool("adapt-flowcache", false, "let the adaptive controller install the flow fast path when the router runs hot")
	serveAddr := fs.String("serve", "", "run as a multi-tenant server: listen on ADDR for the HTTP/JSON management API instead of running one configuration")
	backend := fs.String("backend", "sim", "device backend: sim (idle in-memory), pcap (replay/capture files), udp (localhost sockets)")
	duration := fs.Duration("duration", time.Second, "wall-clock bound for -backend udp runs (ignored by sim and pcap)")
	var reads, pcapIns, pcapOuts, udpMaps stringList
	fs.Var(&reads, "h", "read handler \"element.name\" after the run (repeatable)")
	fs.Var(&pcapIns, "pcap-in", "replay a capture into a device: [dev=]file (repeatable; bare file = first input device)")
	fs.Var(&pcapOuts, "pcap-out", "capture a device's transmissions: [dev=]file (repeatable; bare file = one aggregate capture)")
	fs.Var(&udpMaps, "udp-map", "bind a device to UDP sockets: dev=local[/peer] (repeatable, comma-separable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 1 {
		return fail(fmt.Errorf("unexpected arguments: %v", fs.Args()[1:]))
	}
	if fs.NArg() == 1 {
		*file = fs.Arg(0)
	}
	if *serveAddr != "" {
		if err := runServe(*serveAddr, *file, *batch, stderr); err != nil {
			return fail(err)
		}
		return 0
	}

	reg := tool.Registry()
	g, err := tool.ReadConfig(*file, reg)
	if err != nil {
		return fail(err)
	}
	if *fuse {
		if err := opt.Fuse(g, reg); err != nil {
			return fail(err)
		}
	}
	if *flowcache {
		if err := opt.InstallFlowCache(g, reg); err != nil {
			return fail(err)
		}
	}
	bk, err := newBackendSet(*backend, pcapIns, pcapOuts, udpMaps, stderr)
	if err != nil {
		return fail(err)
	}
	env, err := bk.provision(g)
	if err != nil {
		return fail(err)
	}
	rt, err := core.Build(g, reg, core.BuildOptions{Burst: *batch, Env: env})
	if err != nil {
		return fail(err)
	}
	var tracer *core.Tracer
	if *traceCap > 0 {
		tracer = rt.EnableTracing(*traceCap)
	}
	sched := core.NewScheduler(rt)
	// install is the one way this driver changes the live router: the
	// hot-swap runs inside SyncDo, at a round boundary, and its error
	// comes back to whoever asked for it.
	install := func(next *core.Router) error {
		var err error
		sched.SyncDo(func() { err = sched.Hotswap(next) })
		return err
	}
	stopHUP := func() {}
	if *hotswapFile != "" {
		// SIGHUP swaps in the replacement at the next round boundary, the
		// way a live Click reads a new configuration from /proc. A
		// replacement that fails to build or install is reported and the
		// running router kept.
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGHUP)
		hupDone := make(chan struct{})
		go func() {
			defer close(hupDone)
			for range ch {
				next, err := buildReplacement(*hotswapFile, env, *batch)
				if err == nil {
					err = install(next)
				}
				if err != nil {
					fmt.Fprintf(stderr, "click: hotswap: %v\n", err)
				}
			}
		}()
		stopHUP = func() {
			signal.Stop(ch)
			close(ch)
			<-hupDone
		}
	}
	var ctrl *opt.Adaptive
	if *adapt {
		opts := opt.DefaultAdaptiveOptions()
		opts.EnableFlowCache = *adaptFlowCache
		ctrl = opt.NewAdaptive(opts)
	}
	applied := map[string]bool{}
	// Socket-backed routers idle between datagrams rather than running
	// dry, so the udp backend waits out -duration instead of exiting at
	// the first idle round.
	udpMode := *backend == "udp"
	deadline := time.Now().Add(*duration)
	var ran int
	for ran < *rounds {
		if !sched.RunRound() {
			if !udpMode || !time.Now().Before(deadline) {
				break
			}
			time.Sleep(200 * time.Microsecond)
			continue
		}
		ran++
		if *hotswapFile != "" && *hotswapAfter > 0 && ran == *hotswapAfter {
			next, err := buildReplacement(*hotswapFile, env, *batch)
			if err != nil {
				return fail(err)
			}
			if err := install(next); err != nil {
				return fail(err)
			}
		}
		if ctrl != nil && ran%*adaptEvery == 0 {
			live := sched.Router()
			d := ctrl.Observe(live.Graph, live.StatsReport())
			// Each pass is worth applying once; the controller keeps
			// seeing hot traffic afterwards, but re-running an applied
			// pass would only churn the router.
			d.FastClassifier = d.FastClassifier && !applied["fastclassifier"]
			d.Devirtualize = d.Devirtualize && !applied["devirtualize"]
			d.Undead = d.Undead && !applied["undead"]
			d.Fuse = d.Fuse && !applied["fuse"]
			d.FlowCache = d.FlowCache && !applied["flowcache"]
			if d.Any() {
				ng, areg, err := opt.Reoptimize(live.Graph, d)
				if err != nil {
					return fail(err)
				}
				next, err := core.Build(ng, areg, core.BuildOptions{Burst: *batch, Env: env})
				if err != nil {
					return fail(err)
				}
				if err := install(next); err != nil {
					return fail(err)
				}
				if d.FastClassifier {
					applied["fastclassifier"] = true
				}
				if d.Devirtualize {
					applied["devirtualize"] = true
				}
				if d.Undead {
					applied["undead"] = true
				}
				if d.Fuse {
					applied["fuse"] = true
				}
				if d.FlowCache {
					applied["flowcache"] = true
				}
				fmt.Fprintf(stderr, "click: adapt: %s\n", strings.Join(d.Reasons, "; "))
			}
		}
	}
	// The SIGHUP handler is gone before the final router is read, so a
	// late signal cannot swap it out from under the report.
	stopHUP()
	rt = sched.Router()
	fmt.Fprintf(stderr, "click: ran %d active task rounds\n", ran)
	defer rt.Close()
	// Close backends before reporting so capture files are flushed and
	// sockets are released.
	if err := bk.Close(); err != nil {
		return fail(err)
	}

	for _, path := range reads {
		v, err := rt.ReadHandler(path)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s: %s\n", path, v)
	}
	if *report {
		if err := printJSONReport(stdout, rt, ran, tracer); err != nil {
			return fail(err)
		}
		return 0
	}
	if *counters && len(reads) == 0 {
		printCounters(stdout, rt)
	}
	return 0
}

// Management API connection bounds: a client that stalls mid-request or
// never reads its response cannot hold a connection open indefinitely.
// The body itself is bounded in mgmt (1 MiB).
const (
	serveReadHeaderTimeout = 5 * time.Second
	serveReadTimeout       = 30 * time.Second
	serveWriteTimeout      = 30 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// runServe runs the multi-tenant management plane: an empty combined
// router pumped in the background, administered entirely over the
// HTTP/JSON API. A configuration file named on the command line (but
// not the "-" stdin default, so a bare "click -serve :8080" starts
// empty) is installed as tenant "default" before serving.
func runServe(addr, file string, batch int, stderr io.Writer) error {
	p, err := mgmt.NewPlane(mgmt.Options{
		Registry: tool.Registry(),
		Burst:    batch,
	})
	if err != nil {
		return err
	}
	if file != "-" {
		text, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		if err := p.Create("default", string(text), mgmt.Limits{}); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "click: serving %s as tenant \"default\"\n", file)
	}
	p.Start()
	defer p.Stop()

	srv := &http.Server{
		Addr:              addr,
		Handler:           p.Handler(),
		ReadHeaderTimeout: serveReadHeaderTimeout,
		ReadTimeout:       serveReadTimeout,
		WriteTimeout:      serveWriteTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
	// SIGINT/SIGTERM stop the listener so the deferred plane shutdown
	// quiesces the dataplane cleanly.
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		srv.Close()
	}()
	fmt.Fprintf(stderr, "click: management API on %s\n", addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// buildReplacement reads and assembles a hot-swap replacement router.
// Devices the running router already provisioned keep their identity
// (the replacement binds the same rings); device names only the new
// configuration references get fresh idle devices.
func buildReplacement(file string, liveEnv map[string]interface{}, batch int) (*core.Router, error) {
	reg := tool.Registry()
	g, err := tool.ReadConfig(file, reg)
	if err != nil {
		return nil, err
	}
	env := provisionDevices(g)
	for k, v := range liveEnv {
		env[k] = v
	}
	return core.Build(g, reg, core.BuildOptions{Burst: batch, Env: env})
}

// jsonReport is the document click -report emits: the live telemetry
// tree plus whatever diagnostics the optimizer passes archived.
type jsonReport struct {
	TaskRounds  int                       `json:"task_rounds"`
	Elements    []core.ElementStatsReport `json:"elements"`
	Totals      core.StatsTotals          `json:"totals"`
	PassReports []*opt.PassReport         `json:"pass_reports,omitempty"`
	Trace       []core.TraceRecord        `json:"trace,omitempty"`
}

func printJSONReport(stdout io.Writer, rt *core.Router, ran int, tracer *core.Tracer) error {
	elems := rt.StatsReport()
	rep := jsonReport{
		TaskRounds: ran,
		Elements:   elems,
		Totals:     core.Totals(elems),
	}
	passes, err := opt.Reports(rt.Graph)
	if err != nil {
		return err
	}
	rep.PassReports = passes
	if tracer != nil {
		rep.Trace = tracer.Records()
	}
	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	_, err = stdout.Write(blob)
	return err
}

// printCounters dumps every element's counter-like handlers, the way
// read-handler dumps of a live Click look.
func printCounters(stdout io.Writer, rt *core.Router) {
	for _, i := range rt.Graph.LiveIndices() {
		name := rt.Graph.Element(i).Name
		names, err := rt.HandlerNames(name)
		if err != nil {
			continue
		}
		var parts []string
		for _, h := range names {
			switch h {
			case "class", "config", "name", "program", "table":
				continue // verbose or implicit
			}
			// HandlerPath escapes element names containing handler-path
			// metacharacters ('.', '%'), so combined configurations whose
			// element names carry prefixes round-trip unambiguously.
			v, err := rt.ReadHandler(core.HandlerPath(name, h))
			if err != nil {
				continue // write-only
			}
			parts = append(parts, fmt.Sprintf("%s %s", h, v))
		}
		if len(parts) > 0 {
			fmt.Fprintf(stdout, "%-20s %-16s %s\n", name, rt.Graph.Element(i).Class, strings.Join(parts, ", "))
		}
	}
}

// deviceNames returns the distinct device names a configuration
// references, in declaration order, plus the subset referenced by an
// input-side element (also in order).
func deviceNames(g *graph.Router) (all, inputs []string) {
	seen := map[string]bool{}
	seenIn := map[string]bool{}
	for _, i := range g.LiveIndices() {
		e := g.Element(i)
		if !elements.BindsDevice(e.Class) {
			continue
		}
		args := lang.SplitConfig(e.Config)
		if len(args) == 0 {
			continue
		}
		name := strings.TrimSpace(args[0])
		if name == "" {
			continue
		}
		if !seen[name] {
			seen[name] = true
			all = append(all, name)
		}
		if elements.ReadsDevice(e.Class) && !seenIn[name] {
			seenIn[name] = true
			inputs = append(inputs, name)
		}
	}
	return all, inputs
}

// sinkFile pairs a capture sink with the path it writes, for the exit
// summary.
type sinkFile struct {
	path string
	sink *pktio.CaptureSink
}

// udpSpec is one -udp-map binding.
type udpSpec struct {
	local, peer string
}

// backendSet holds the parsed backend configuration and every backend
// and capture sink it provisions, so the driver can flush and close
// them after the run.
type backendSet struct {
	mode string

	ins        map[string][]pktio.Record // -pcap-in dev=file, preloaded
	bareIn     []pktio.Record            // -pcap-in file (first input device)
	haveBareIn bool
	outPaths   map[string]string // -pcap-out dev=file
	aggPath    string            // -pcap-out file (aggregate)
	udp        map[string]udpSpec

	sinks    []*sinkFile
	backends []pktio.Backend
	stderr   io.Writer // binding and capture summaries
}

// newBackendSet parses the -backend family of flags. Replay files are
// read eagerly so a bad capture fails before the router builds.
func newBackendSet(mode string, pcapIns, pcapOuts, udpMaps []string, stderr io.Writer) (*backendSet, error) {
	b := &backendSet{
		mode:     mode,
		ins:      map[string][]pktio.Record{},
		outPaths: map[string]string{},
		udp:      map[string]udpSpec{},
		stderr:   stderr,
	}
	switch mode {
	case "sim", "pcap", "udp":
	default:
		return nil, fmt.Errorf("unknown backend %q (want sim, pcap, or udp)", mode)
	}
	if mode != "pcap" && (len(pcapIns) > 0 || len(pcapOuts) > 0) {
		return nil, fmt.Errorf("-pcap-in/-pcap-out require -backend pcap")
	}
	if mode != "udp" && len(udpMaps) > 0 {
		return nil, fmt.Errorf("-udp-map requires -backend udp")
	}
	for _, entry := range pcapIns {
		dev, file, ok := strings.Cut(entry, "=")
		if !ok {
			if b.haveBareIn {
				return nil, fmt.Errorf("-pcap-in: only one bare replay file allowed; name devices as dev=file")
			}
			recs, err := pktio.ReadPcapFile(entry)
			if err != nil {
				return nil, err
			}
			b.bareIn, b.haveBareIn = recs, true
			continue
		}
		if _, dup := b.ins[dev]; dup {
			return nil, fmt.Errorf("-pcap-in: device %q mapped twice", dev)
		}
		recs, err := pktio.ReadPcapFile(file)
		if err != nil {
			return nil, err
		}
		b.ins[dev] = recs
	}
	for _, entry := range pcapOuts {
		dev, file, ok := strings.Cut(entry, "=")
		if !ok {
			if b.aggPath != "" {
				return nil, fmt.Errorf("-pcap-out: only one aggregate capture file allowed; name devices as dev=file")
			}
			b.aggPath = entry
			continue
		}
		if _, dup := b.outPaths[dev]; dup {
			return nil, fmt.Errorf("-pcap-out: device %q mapped twice", dev)
		}
		b.outPaths[dev] = file
	}
	for _, entry := range udpMaps {
		for _, one := range strings.Split(entry, ",") {
			if one == "" {
				continue
			}
			dev, addrs, ok := strings.Cut(one, "=")
			if !ok {
				return nil, fmt.Errorf("-udp-map: %q is not dev=local[/peer]", one)
			}
			if _, dup := b.udp[dev]; dup {
				return nil, fmt.Errorf("-udp-map: device %q mapped twice", dev)
			}
			local, peer, _ := strings.Cut(addrs, "/")
			if local == "" {
				return nil, fmt.Errorf("-udp-map: %q has no local address", one)
			}
			b.udp[dev] = udpSpec{local: local, peer: peer}
		}
	}
	return b, nil
}

// provision builds the router device environment for the selected
// backend. Devices the flags do not map fall back to idle in-memory
// devices (sim, udp) or to a replay-less discard backend (pcap), so any
// configuration still initializes.
func (b *backendSet) provision(g *graph.Router) (map[string]interface{}, error) {
	if b.mode == "sim" {
		return provisionDevices(g), nil
	}
	all, inputs := deviceNames(g)
	env := map[string]interface{}{}
	switch b.mode {
	case "pcap":
		if b.haveBareIn {
			if len(inputs) == 0 {
				return nil, fmt.Errorf("-pcap-in: configuration has no input device to replay into")
			}
			if _, dup := b.ins[inputs[0]]; dup {
				return nil, fmt.Errorf("-pcap-in: device %q mapped both bare and by name", inputs[0])
			}
			b.ins[inputs[0]] = b.bareIn
		}
		var agg *pktio.CaptureSink
		if b.aggPath != "" {
			s, err := pktio.CreateCaptureFile(b.aggPath)
			if err != nil {
				return nil, err
			}
			agg = s
			b.sinks = append(b.sinks, &sinkFile{path: b.aggPath, sink: s})
		}
		used := map[string]bool{}
		for _, name := range all {
			sink := agg
			if path, ok := b.outPaths[name]; ok {
				s, err := pktio.CreateCaptureFile(path)
				if err != nil {
					return nil, err
				}
				sink = s
				b.sinks = append(b.sinks, &sinkFile{path: path, sink: s})
			}
			be := pktio.NewPcap(b.ins[name], sink)
			dev, err := pktio.OpenDevice(name, be)
			if err != nil {
				return nil, err
			}
			b.backends = append(b.backends, be)
			env["device:"+name] = dev
			used[name] = true
		}
		for name := range b.ins {
			if !used[name] {
				return nil, fmt.Errorf("-pcap-in: device %q not in configuration", name)
			}
		}
		for name := range b.outPaths {
			if !used[name] {
				return nil, fmt.Errorf("-pcap-out: device %q not in configuration", name)
			}
		}
	case "udp":
		used := map[string]bool{}
		for _, name := range all {
			spec, ok := b.udp[name]
			if !ok {
				env["device:"+name] = &elements.IdleDevice{Name: name}
				continue
			}
			be := pktio.NewUDP(spec.local, spec.peer)
			dev, err := pktio.OpenDevice(name, be)
			if err != nil {
				return nil, err
			}
			b.backends = append(b.backends, be)
			env["device:"+name] = dev
			used[name] = true
			fmt.Fprintf(b.stderr, "click: %s bound to %s\n", name, be.LocalAddr())
		}
		for name := range b.udp {
			if !used[name] {
				return nil, fmt.Errorf("-udp-map: device %q not in configuration", name)
			}
		}
	}
	return env, nil
}

// Close closes sockets and flushes capture files, reporting each
// capture's frame count.
func (b *backendSet) Close() error {
	var first error
	for _, be := range b.backends {
		if err := be.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, sf := range b.sinks {
		n := sf.sink.Frames()
		if err := sf.sink.Close(); err != nil && first == nil {
			first = err
		}
		fmt.Fprintf(b.stderr, "click: captured %d frames to %s\n", n, sf.path)
	}
	b.backends, b.sinks = nil, nil
	return first
}

// provisionDevices builds a router environment containing an idle
// in-memory device for every device name the configuration references,
// so device-facing configurations initialize and run (idle) standalone.
func provisionDevices(g *graph.Router) map[string]interface{} {
	all, _ := deviceNames(g)
	env := make(map[string]interface{}, len(all))
	for _, name := range all {
		env["device:"+name] = &elements.IdleDevice{Name: name}
	}
	return env
}
