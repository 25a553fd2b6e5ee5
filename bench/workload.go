package main

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// scale holds the sizes a workload is built at. fullScale is the
// benchmark; smallScale is what bench_test.go passes to runChild to run
// every workload in a few hundred milliseconds.
type scale struct {
	MixedFlows  int // fwd-mixed flows per ingress
	MixedTrace  int // fwd-mixed trace length per ingress, a multiple of burstFrames
	Tenants     int // ctl-churn fleet size
	SetupRuns   int // cold bring-ups per round
	SockWarmups int // sock-udp warm-up windows
}

var (
	fullScale  = scale{MixedFlows: 16384, MixedTrace: 65536, Tenants: 64, SetupRuns: 100, SockWarmups: 64}
	smallScale = scale{MixedFlows: 512, MixedTrace: 2048, Tenants: 8, SetupRuns: 3, SockWarmups: 4}
)

// workload is a seeded set of inputs plus the recipe that turns the
// workload's configuration text into a running router.
type workload interface {
	// text is the configuration the workload starts from.
	text() string
	// inputSHA256 identifies the generated inputs.
	inputSHA256() string
	// bringUp is the cold path setup_s times: text to a ready router
	// that has forwarded its first frame. Each call is independent.
	bringUp(tr *tracer, pt *passTimes) (instance, error)
}

// instance is one brought-up router under test.
type instance interface {
	// step performs the workload's next unit of closed-loop work,
	// starting at time now, records its operation latencies in rec, and
	// returns the frames delivered to egress and the time it finished.
	step(rec *blockRecorder, now int64) (pkts, end int64)
	// passSteps is the number of steps in one pass over the inputs.
	passSteps() int
	// router is the live router, for StatsReport and handlers.
	router() *core.Router
	// verify compares everything the router emitted since bring-up with
	// the generator's expectations.
	verify() verdict
	// native adds the layer metrics only this workload can observe.
	native(m map[string]float64)
	close()
}

// verdict is a workload's output check: operations attempted, operations
// failed, and what failed.
type verdict struct {
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
}

func (v *verdict) fail(n int64, format string, args ...interface{}) {
	if n <= 0 {
		return
	}
	v.Failed += n
	if len(v.Notes) < 16 {
		v.Notes = append(v.Notes, fmt.Sprintf("%d failed: ", n)+fmt.Sprintf(format, args...))
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// passTimes collects, per named stage of a bring-up (lang.parse,
// opt.xform, core.build, ...), one duration per bring-up, and the counts
// the passes return.
type passTimes struct {
	ns     map[string][]float64
	counts map[string]float64
}

func newPassTimes() *passTimes {
	return &passTimes{ns: map[string][]float64{}, counts: map[string]float64{}}
}

// stage times fn under name. A nil *passTimes just runs fn.
func (pt *passTimes) stage(name string, fn func() error) error {
	if pt == nil {
		return fn()
	}
	t0 := nanotime()
	err := fn()
	pt.ns[name] = append(pt.ns[name], float64(nanotime()-t0))
	return err
}

func (pt *passTimes) count(name string, v int) {
	if pt != nil {
		pt.counts[name] = float64(v)
	}
}

// quietUS reduces a stage's samples to its quiet-decile in microseconds.
func (pt *passTimes) quietUS(name string) float64 {
	v, _ := quietDecile(slices.Clone(pt.ns[name]))
	return v / 1e3
}

func newWorkload(name string, seed int64, sc scale) (workload, error) {
	switch name {
	case "fwd-base", "fwd-opt", "fwd-mixed":
		return newFwdWorkload(name, seed, sc)
	case "sock-udp":
		return newSockWorkload(seed, sc)
	case "ctl-churn":
		return newCtlWorkload(seed, sc)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// statsDelta is the per-frame element statistics over a counted pass.
type statsDelta struct {
	hops, cycles, drops, frames float64
}

// countedPass runs exactly one pass of steps and returns the router's
// telemetry deltas over it. The step count is fixed by the inputs, not
// by the clock, so these counts repeat exactly for a seed.
func countedPass(inst instance, scratch *blockRecorder) statsDelta {
	totals := func() core.StatsTotals { return core.Totals(inst.router().StatsReport()) }
	if c, ok := inst.(*ctlInst); ok {
		// A tenant's counters die with each delete, so router-wide
		// totals go backwards under churn; ctl-churn sums the deltas of
		// its traffic steps itself while counting is on.
		c.counting = true
		defer func() { c.counting = false }()
		totals = func() core.StatsTotals { return c.counted }
	}
	before := totals()
	var frames int64
	now := nanotime()
	for i := 0; i < inst.passSteps(); i++ {
		var pkts int64
		pkts, now = inst.step(scratch, now)
		frames += pkts
		scratch.reset()
	}
	after := totals()
	return statsDelta{
		hops:   float64(after.PacketsIn - before.PacketsIn),
		cycles: float64(after.Cycles - before.Cycles),
		drops:  float64(after.Drops - before.Drops),
		frames: float64(frames),
	}
}
