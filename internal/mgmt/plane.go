// Package mgmt hosts many tenant router configurations inside one
// process — the XORP-style management shape for the combine machinery:
// every tenant's elements live in a single combined router under a
// "tenant/" name prefix, the read/write handler tree is the uniform
// control surface, and an HTTP/JSON API (http.go) exposes it.
//
// Control operations are incremental: a tenant create/swap/delete
// parses, optimizes and plans only the affected tenant's configuration
// (cached by text as a template with its admission footprint, so
// re-admitting a known config only instantiates the template), builds
// just its subgraph, and patches it into the running combined router at a
// scheduler quiescent point (Scheduler.SpliceTenant / SwapTenant /
// RemoveTenant) — O(tenant) per operation, never a rebuild of the
// fleet. The plane keeps each tenant's spliced subrouter as the handle
// that takes it back out: a delete or swap removes exactly what the
// splice added, with no scan of the fleet's names, elements or
// connections, and a capacity write, Elements and TenantReport visit
// only the tenant's own elements. BenchmarkPlaneOps checks the claim:
// on a 2-vCPU host a delete, swap and capacity write at 256 tenants
// cost 1.6x, 1.6x and 1.7x their 8-tenant time, the difference being
// the cache misses of a larger heap. Swaps keep the zero-loss hot-swap
// semantics: same-name same-type elements carry their queue contents,
// counters, and table state across. A LookupIPRoute carries its
// counters but not its routes: it routes by the replacement's
// configured table, so a route added through its "add" handler is gone
// after a swap.
//
// Tenants with identical rulesets share fused classifier decision
// diagrams through a plane-wide hash-cons table
// (classifier.InternTable): admission runs whole-path fusion on the
// tenant's own subgraph and interns the resulting diagrams, so
// resident diagram nodes grow with distinct rulesets, not tenant
// count. Sharing is read-only — per-element counters stay private —
// and each tenant's subgraph keeps its *own* guard-generation
// counters (its build router's), so one tenant's route or config
// writes never invalidate a neighbor's flow fast path.
//
// The plane charges zero model cycles: it never attaches the simulated
// CPU, every control operation runs through Scheduler.SyncDo at
// dataplane-quiescent points, and nothing here is on the packet path.
package mgmt

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	"repro/internal/lang"
	"repro/internal/opt"
)

// Limits bound one tenant's resource footprint. Zero fields take the
// defaults below.
type Limits struct {
	// MaxElements caps the tenant's live element count at admission.
	MaxElements int
	// MaxQueueCapacity caps the sum of the tenant's Queue capacities —
	// its packet-buffer budget. Enforced at admission and again on
	// every runtime "capacity" handler write.
	MaxQueueCapacity int
}

// Default per-tenant limits.
const (
	DefaultMaxElements      = 512
	DefaultMaxQueueCapacity = 1 << 16
)

func (l Limits) withDefaults() Limits {
	if l.MaxElements <= 0 {
		l.MaxElements = DefaultMaxElements
	}
	if l.MaxQueueCapacity <= 0 {
		l.MaxQueueCapacity = DefaultMaxQueueCapacity
	}
	return l
}

// DeviceProvider supplies the device object bound for a tenant's named
// device (anything implementing elements.Device). Returning nil falls
// back to an idle in-memory device that receives nothing and accepts
// every transmit.
type DeviceProvider func(tenant, device string) interface{}

// Options configure a Plane.
type Options struct {
	// Registry resolves element classes; nil uses the builtin registry.
	Registry *core.Registry
	// Workers must be 0 or 1: the dataplane is one run loop. The field
	// is kept only because the frozen benchmark (bench/ctl.go) sets it
	// to 1; the next benchmark-archetype PR is to remove it.
	Workers int
	// Burst is the router-wide batch size (0 or 1 = scalar).
	Burst int
	// Devices provides tenant device bindings; nil means every device
	// is an idle in-memory one.
	Devices DeviceProvider
	// Limits are the default per-tenant limits.
	Limits Limits
}

// TenantInfo is one tenant's control-plane view.
type TenantInfo struct {
	ID       string `json:"id"`
	Elements int    `json:"elements"`
	Swaps    int    `json:"swaps"`
	Limits   Limits `json:"limits"`
}

// Report is one tenant's telemetry snapshot, taken at a quiescent
// point so the counters are mutually consistent. CreateNS and SwapNS
// are the control-plane latencies of the tenant's admission and most
// recent hot-swap.
type Report struct {
	ID       string                    `json:"id"`
	Elements []core.ElementStatsReport `json:"elements"`
	Totals   core.StatsTotals          `json:"totals"`
	Swaps    int                       `json:"swaps"`
	CreateNS int64                     `json:"create_ns"`
	SwapNS   int64                     `json:"swap_ns"`
}

// OpStats aggregates one control-operation type's cost.
type OpStats struct {
	Count   int64 `json:"count"`
	LastNS  int64 `json:"last_ns"`
	TotalNS int64 `json:"total_ns"`
}

func (o *OpStats) record(d time.Duration) {
	o.Count++
	o.LastNS = d.Nanoseconds()
	o.TotalNS += o.LastNS
}

// PlaneReport is the plane-wide control surface snapshot served at
// GET /report.
type PlaneReport struct {
	Tenants  int `json:"tenants"`
	Elements int `json:"elements"`

	Create OpStats `json:"create"`
	Swap   OpStats `json:"swap"`
	Delete OpStats `json:"delete"`

	ConfigCacheHits   int64 `json:"config_cache_hits"`
	ConfigCacheMisses int64 `json:"config_cache_misses"`

	Sharing classifier.InternStats `json:"sharing"`
}

// cachedConfig is the template of one configuration text: the parsed,
// fused and interned graph planned for assembly (core.Plan), with the
// footprint admission checks. It is tenant-neutral and never modified;
// every tenant running the text instantiates it (buildSub). The fused
// graph's archive, which no plane path reads, is not kept.
type cachedConfig struct {
	plan     *core.Plan
	shared   []string // shared fused-class names the config uses
	devices  []string // device names, in first-use order
	devElems []int    // plan indices of the elements binding a device
	queues   int      // sum of Queue capacities
}

// tenant is one admitted configuration.
type tenant struct {
	id       string
	config   *cachedConfig
	sub      *core.Router // the spliced subrouter: the removal handle
	limits   Limits
	swaps    int
	createNS int64
	swapNS   int64
}

// Plane hosts the tenants. All control-plane methods are safe for
// concurrent use; dataplane interaction happens only through the
// scheduler's quiescent points.
type Plane struct {
	opts Options
	reg  *core.Registry

	mu      sync.Mutex
	tenants map[string]*tenant
	cache   map[string]*cachedConfig // by configuration text
	devs    map[string]interface{}
	sched   *core.Scheduler
	table   *classifier.InternTable
	running bool
	stop    chan struct{}
	done    chan struct{}

	stats struct {
		create, swap, delete OpStats
		cacheHits            int64
		cacheMisses          int64
	}
}

// NewPlane builds an empty plane with a running (but idle) combined
// router.
func NewPlane(opts Options) (*Plane, error) {
	if opts.Registry == nil {
		opts.Registry = elements.NewRegistry()
	}
	if opts.Workers < 0 || opts.Workers > 1 {
		return nil, fmt.Errorf("mgmt: Workers is %d, but the dataplane is one run loop (0 or 1)", opts.Workers)
	}
	opts.Limits = opts.Limits.withDefaults()
	p := &Plane{
		opts:    opts,
		reg:     opts.Registry,
		tenants: map[string]*tenant{},
		cache:   map[string]*cachedConfig{},
		devs:    map[string]interface{}{},
		table:   classifier.NewInternTable(),
	}
	// The combined router of the empty fleet, via combine with zero
	// links — pure namespacing, the §7.2 machinery. Every tenant is
	// spliced into it later.
	g, err := p.combinedGraph()
	if err != nil {
		return nil, err
	}
	rt, err := core.Build(g, p.reg, core.BuildOptions{Burst: opts.Burst})
	if err != nil {
		return nil, err
	}
	p.sched = core.NewScheduler(rt)
	return p, nil
}

// Scheduler exposes the underlying scheduler (tests drive traffic
// through it directly when the pump is not running).
func (p *Plane) Scheduler() *core.Scheduler { return p.sched }

// SharingStats snapshots the cross-tenant classifier sharing table.
func (p *Plane) SharingStats() classifier.InternStats { return p.table.Stats() }

// validTenantID enforces the namespace rules: the ID becomes an
// element-name prefix (combine forbids '/', '.', and whitespace) and a
// device-key prefix (':' is our separator), and must survive a URL
// path segment unescaped.
func validTenantID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("mgmt: bad tenant id %q", id)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '_', c == '-':
		default:
			return fmt.Errorf("mgmt: bad tenant id %q (want letters, digits, '_', '-')", id)
		}
	}
	return nil
}

// parsedConfig returns the template of one configuration text. A text
// the plane has seen before — the same tenant re-swapped, or another
// tenant on the identical ruleset — costs one map lookup. A new one is
// parsed, fused and planned once; its fused programs are interned in
// the plane-wide table, which shares equal diagrams tenant-to-tenant
// and compiles each only once. Callers hold p.mu.
func (p *Plane) parsedConfig(text string) (*cachedConfig, error) {
	if c, ok := p.cache[text]; ok {
		p.stats.cacheHits++
		return c, nil
	}
	p.stats.cacheMisses++
	g, err := lang.ParseRouter(text, "tenant.click")
	if err != nil {
		return nil, err
	}
	if err := opt.Fuse(g, p.reg); err != nil {
		return nil, err
	}
	shared, err := opt.ShareFusedPrograms(g, p.reg, p.table)
	if err != nil {
		return nil, err
	}
	g.Archive = nil
	plan, err := core.NewPlan(g, p.reg)
	if err != nil {
		return nil, err
	}
	c := &cachedConfig{plan: plan, shared: shared}
	for i, e := range plan.Graph.Elements {
		args := lang.SplitConfig(e.Config)
		if e.Class == "Queue" {
			cap := elements.DefaultQueueCapacity
			if len(args) >= 1 && strings.TrimSpace(args[0]) != "" {
				n, err := strconv.Atoi(strings.TrimSpace(args[0]))
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("bad Queue capacity %q", args[0])
				}
				cap = n
			}
			c.queues += cap
		}
		if elements.BindsDevice(e.Class) && len(args) > 0 && strings.TrimSpace(args[0]) != "" {
			c.devElems = append(c.devElems, i)
			if dev := strings.TrimSpace(args[0]); !slices.Contains(c.devices, dev) {
				c.devices = append(c.devices, dev)
			}
		}
	}
	p.cache[text] = c
	return c, nil
}

// scope is t's argument hook for core.Plan.Instantiate: a device
// becomes "tenant:dev", so two tenants' "eth0" never collide.
func (t *tenant) scope(i int, args []string) []string {
	if !slices.Contains(t.config.devElems, i) {
		return nil
	}
	scoped := slices.Clone(args)
	scoped[0] = t.id + ":" + strings.TrimSpace(args[0])
	return scoped
}

// admit checks one tenant configuration against its limits. The
// parsed and optimized graph and its footprint come from the config
// cache, so a known text is admitted without copying anything. Callers
// hold p.mu.
func (p *Plane) admit(id, text string, lim Limits) (*tenant, error) {
	c, err := p.parsedConfig(text)
	if err != nil {
		return nil, fmt.Errorf("mgmt: tenant %s: %w", id, err)
	}
	lim = lim.withDefaults()
	if n := len(c.plan.Graph.Elements); n > lim.MaxElements {
		return nil, fmt.Errorf("mgmt: tenant %s: %d elements exceeds limit %d", id, n, lim.MaxElements)
	}
	if c.queues > lim.MaxQueueCapacity {
		return nil, fmt.Errorf("mgmt: tenant %s: queue capacity %d exceeds budget %d", id, c.queues, lim.MaxQueueCapacity)
	}
	return &tenant{id: id, config: c, limits: lim}, nil
}

// sortedIDs returns the admitted tenant IDs in sorted order — the
// canonical combine input order, stable across any operation history.
// Callers hold p.mu.
func (p *Plane) sortedIDs() []string {
	ids := make([]string, 0, len(p.tenants))
	for id := range p.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// combinedGraph builds the canonical combined configuration graph of
// the current fleet: tenants in sorted-ID order regardless of the
// create/swap/delete history that produced them, so unparses and
// archive round trips are byte-identical whenever the tenant set is
// equal. Callers hold p.mu.
func (p *Plane) combinedGraph() (*graph.Router, error) {
	ids := p.sortedIDs()
	inputs := make([]opt.RouterInput, 0, len(ids))
	for _, id := range ids {
		inputs = append(inputs, opt.RouterInput{Name: id, Config: p.tenants[id].config.plan.Graph})
	}
	g, err := opt.Combine(inputs, nil)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		t := p.tenants[id]
		for _, i := range t.config.devElems {
			e := g.Element(g.FindElement(tenantPrefix(id) + t.config.plan.Graph.Elements[i].Name))
			e.Config = strings.Join(t.scope(i, lang.SplitConfig(e.Config)), ", ")
		}
	}
	return g, nil
}

// CombinedGraph exports the canonical combined configuration graph
// (see combinedGraph).
func (p *Plane) CombinedGraph() (*graph.Router, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.combinedGraph()
}

// buildSub provisions a tenant's devices and instantiates its template
// under the tenant's prefix and device scope: the O(tenant) unit of
// work every incremental operation is built from, with no graph pass.
// Callers hold p.mu.
func (p *Plane) buildSub(t *tenant) (*core.Router, error) {
	env := p.provisionDevices(t)
	return t.config.plan.Instantiate(tenantPrefix(t.id), t.scope, core.BuildOptions{Burst: p.opts.Burst, Env: env})
}

// provisionDevices binds a tenant's devices into the environment map
// and returns the tenant's own part of it. Callers hold p.mu.
func (p *Plane) provisionDevices(t *tenant) map[string]interface{} {
	env := make(map[string]interface{}, len(t.config.devices))
	for _, dev := range t.config.devices {
		key := "device:" + t.id + ":" + dev
		var obj interface{}
		if p.opts.Devices != nil {
			obj = p.opts.Devices(t.id, dev)
		}
		if obj == nil {
			obj = &elements.IdleDevice{Name: key[len("device:"):]}
		}
		p.devs[key] = obj
		env[key] = obj
	}
	return env
}

func (p *Plane) dropDevices(t *tenant) {
	for _, dev := range t.config.devices {
		delete(p.devs, "device:"+t.id+":"+dev)
	}
}

// closeRemoved releases external resources held by elements removed
// from the live router (trace files and the like). Swapped-away
// elements are not closed — their replacements took over by state
// transplant, matching full hot-swap semantics — only deleted
// tenants' are.
func closeRemoved(removed []core.Element) {
	for _, e := range removed {
		if c, ok := e.(interface{ Close() error }); ok {
			c.Close()
		}
	}
}

// Create admits a new tenant and installs it. Zero-valued limits take
// the plane defaults. Only the new tenant's subgraph is parsed (or
// fetched from the config cache), built, and spliced into the running
// router at a quiescent point; every other tenant's elements are
// untouched.
func (p *Plane) Create(id, configText string, lim Limits) error {
	start := time.Now()
	if err := validTenantID(id); err != nil {
		return err
	}
	if lim == (Limits{}) {
		lim = p.opts.Limits
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, exists := p.tenants[id]; exists {
		return fmt.Errorf("mgmt: tenant %q already exists", id)
	}
	t, err := p.admit(id, configText, lim)
	if err != nil {
		return err
	}
	p.tenants[id] = t
	t.sub, err = p.buildSub(t)
	if err == nil {
		p.sched.SyncDo(func() { err = p.sched.SpliceTenant(t.sub) })
	}
	if err != nil {
		// Roll back: the failed configuration must not strand the
		// other tenants.
		delete(p.tenants, id)
		p.dropDevices(t)
		return err
	}
	p.table.Retain(t.config.shared)
	t.createNS = time.Since(start).Nanoseconds()
	p.stats.create.record(time.Since(start))
	return nil
}

// Swap replaces one tenant's configuration through a zero-loss
// hot-swap: the tenant's same-name, same-type elements keep their
// queue contents and counters, and every other tenant is untouched.
// Only the tenant's subgraph is rebuilt and exchanged
// (Scheduler.SwapTenant) at a quiescent point.
func (p *Plane) Swap(id, configText string) error {
	start := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	old, ok := p.tenants[id]
	if !ok {
		return fmt.Errorf("mgmt: no tenant %q", id)
	}
	t, err := p.admit(id, configText, old.limits)
	if err != nil {
		return err
	}
	t.swaps = old.swaps + 1
	t.createNS = old.createNS
	p.tenants[id] = t
	p.dropDevices(old)
	t.sub, err = p.buildSub(t)
	if err == nil {
		p.sched.SyncDo(func() { _, err = p.sched.SwapTenant(old.sub, t.sub) })
	}
	if err != nil {
		p.tenants[id] = old
		p.dropDevices(t)
		p.provisionDevices(old)
		return err
	}
	p.table.Retain(t.config.shared)
	p.table.Release(old.config.shared)
	t.swapNS = time.Since(start).Nanoseconds()
	p.stats.swap.record(time.Since(start))
	return nil
}

// Delete removes a tenant. Other tenants' elements are not even
// rebuilt: the tenant's subgraph is unlinked from the running router
// at a quiescent point and its elements closed.
func (p *Plane) Delete(id string) error {
	start := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tenants[id]
	if !ok {
		return fmt.Errorf("mgmt: no tenant %q", id)
	}
	delete(p.tenants, id)
	p.dropDevices(t)
	var removed []core.Element
	p.sched.SyncDo(func() { removed = p.sched.RemoveTenant(t.sub) })
	closeRemoved(removed)
	p.table.Release(t.config.shared)
	p.stats.delete.record(time.Since(start))
	return nil
}

// Tenants lists the admitted tenants, sorted by ID.
func (p *Plane) Tenants() []TenantInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]TenantInfo, 0, len(p.tenants))
	for id, t := range p.tenants {
		out = append(out, TenantInfo{
			ID:       id,
			Elements: len(t.sub.Elements()),
			Swaps:    t.swaps,
			Limits:   t.limits,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// tenantPrefix is the element-name prefix combine gives tenant id.
func tenantPrefix(id string) string { return id + "/" }

// path composes the combined-router handler path for a tenant-relative
// element name.
func (p *Plane) path(id, element, handler string) string {
	return core.HandlerPath(tenantPrefix(id)+element, handler)
}

// checkTenant returns an error if id is not admitted.
func (p *Plane) checkTenant(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.tenants[id]; !ok {
		return fmt.Errorf("mgmt: no tenant %q", id)
	}
	return nil
}

// ReadHandler reads a tenant's element handler at a quiescent point.
// element is tenant-relative ("q0", not "t1/q0").
func (p *Plane) ReadHandler(id, element, handler string) (string, error) {
	if err := p.checkTenant(id); err != nil {
		return "", err
	}
	return p.sched.ReadHandler(p.path(id, element, handler))
}

// WriteHandler writes a tenant's element handler at a quiescent point.
// Queue "capacity" writes are checked against the tenant's
// MaxQueueCapacity budget atomically with the write itself; the check
// sums the tenant's own Queues, not the fleet's.
func (p *Plane) WriteHandler(id, element, handler, value string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tenants[id]
	if !ok {
		return fmt.Errorf("mgmt: no tenant %q", id)
	}
	full := p.path(id, element, handler)
	if handler != "capacity" {
		return p.sched.WriteHandler(full, value)
	}
	newCap, err := strconv.Atoi(strings.TrimSpace(value))
	if err != nil || newCap <= 0 {
		return fmt.Errorf("mgmt: bad capacity %q", value)
	}
	var werr error
	p.sched.SyncDo(func() {
		total := 0
		target := tenantPrefix(id) + element
		for _, e := range t.sub.Elements() {
			if q, ok := e.(*elements.Queue); ok && q.Name() != target {
				total += q.Capacity()
			}
		}
		if total+newCap > t.limits.MaxQueueCapacity {
			werr = fmt.Errorf("mgmt: tenant %s: capacity %d would exceed budget %d (others hold %d)",
				id, newCap, t.limits.MaxQueueCapacity, total)
			return
		}
		werr = p.sched.Router().WriteHandler(full, value)
	})
	return werr
}

// ElementInfo is one element of a tenant's handler tree.
type ElementInfo struct {
	Name     string   `json:"name"`
	Class    string   `json:"class"`
	Handlers []string `json:"handlers"`
}

// Elements returns a tenant's handler tree: its elements (names
// tenant-relative) and the handlers each exports.
func (p *Plane) Elements(id string) ([]ElementInfo, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tenants[id]
	if !ok {
		return nil, fmt.Errorf("mgmt: no tenant %q", id)
	}
	var out []ElementInfo
	var lerr error
	p.sched.SyncDo(func() {
		for _, ge := range t.sub.Graph.Elements {
			names, err := t.sub.HandlerNames(ge.Name)
			if err != nil {
				lerr = err
				return
			}
			out = append(out, ElementInfo{
				Name:     strings.TrimPrefix(ge.Name, tenantPrefix(id)),
				Class:    ge.Class,
				Handlers: names,
			})
		}
	})
	return out, lerr
}

// TenantReport snapshots one tenant's telemetry at a quiescent point.
func (p *Plane) TenantReport(id string) (*Report, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tenants[id]
	if !ok {
		return nil, fmt.Errorf("mgmt: no tenant %q", id)
	}
	rep := &Report{ID: id, Swaps: t.swaps, CreateNS: t.createNS, SwapNS: t.swapNS}
	p.sched.SyncDo(func() { rep.Elements = t.sub.StatsReport() })
	for k := range rep.Elements {
		rep.Elements[k].Name = strings.TrimPrefix(rep.Elements[k].Name, tenantPrefix(id))
	}
	rep.Totals = core.Totals(rep.Elements)
	return rep, nil
}

// Report snapshots the plane-wide control surface: tenant and element
// counts, per-operation latency counters, config-cache effectiveness,
// and the classifier-sharing table.
func (p *Plane) Report() *PlaneReport {
	p.mu.Lock()
	rep := &PlaneReport{
		Tenants:           len(p.tenants),
		Create:            p.stats.create,
		Swap:              p.stats.swap,
		Delete:            p.stats.delete,
		ConfigCacheHits:   p.stats.cacheHits,
		ConfigCacheMisses: p.stats.cacheMisses,
	}
	for _, t := range p.tenants {
		rep.Elements += len(t.sub.Elements())
	}
	p.mu.Unlock()
	rep.Sharing = p.table.Stats()
	return rep
}

// Start launches the dataplane pump: a goroutine driving the combined
// router until each burst of work drains, sleeping briefly when idle.
// Control operations interleave at quiescent points automatically.
func (p *Plane) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.running {
		return
	}
	p.running = true
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go p.pump(p.stop, p.done)
}

// Stop halts the dataplane pump, waiting for it to exit.
func (p *Plane) Stop() {
	p.mu.Lock()
	if !p.running {
		p.mu.Unlock()
		return
	}
	p.running = false
	stop, done := p.stop, p.done
	p.mu.Unlock()
	close(stop)
	<-done
}

func (p *Plane) pump(stop, done chan struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		default:
		}
		if p.sched.RunUntilIdle(4096) == 0 {
			// Idle: no source had work. Sleep briefly rather than
			// spin; control ops still run directly via SyncDo.
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}
}
