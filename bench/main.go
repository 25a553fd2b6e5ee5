// Command bench is this repository's benchmark: five workloads on the
// Go runtime's wall clock, five end-to-end metrics each, and a traced
// run that attributes the time to layers. See README.md.
//
//	bench -workload W -seed N -seconds S -trace 0   W's end-to-end metrics
//	bench -workload W -seed N -seconds S -trace 1   W's per-layer metrics, and bench/out/trace-W.json
//	bench                                           every workload, both ways
//	bench -aa                                       two end-to-end sets of the same build, compared
//
// The last line of standard output is always one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// add copies res's values of defs into the report. The report carries
// every declared name for every workload; a per-layer metric the workload
// does not produce reads 0 there.
func (rp *report) add(prefix string, defs []metricDef, res *result) {
	rp.Attempted += res.Verdict.Attempted
	rp.Failed += res.Verdict.Failed
	for _, d := range defs {
		rp.Metrics[prefix+d.Name] = metricValue{res.Metrics[d.Name], d.Unit}
	}
}

func (rp *report) finish() int {
	rp.Correct = rp.Failed == 0 && rp.Attempted > 0
	line, _ := json.Marshal(rp)
	fmt.Println(string(line))
	if !rp.Correct {
		return 1
	}
	return 0
}

// findRoot returns the checkout root: the directory holding
// BENCHMARK.json, which is the working directory or its parent.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

// commit reads the checked-out commit from root/.git without walking up
// or running git; a checkout that is not a repository has none.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		if data, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			s = strings.TrimSpace(string(data))
		}
	}
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

func printEnvelope(root string, seed int64, seconds float64) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Printf("# envelope: cpus=%d go=%s commit=%s kernel=%s seed=%d rounds=%d seconds_per_workload=%g\n",
		runtime.NumCPU(), runtime.Version(), commit(root), strings.TrimSpace(string(kernel)), seed, rounds, seconds)
	fmt.Printf("# loopback only: no frame crosses a real link; one process per round, at most nproc runnable threads\n")
}

func printResult(res *result, defs []metricDef, kind string) {
	fmt.Printf("## %s %s  GOMAXPROCS=%d blocks=%d attempted=%d failed=%d\n",
		res.Workload, kind, res.Procs, res.Blocks, res.Verdict.Attempted, res.Verdict.Failed)
	fmt.Printf("bench.input_sha256 %s\n", res.InputSHA)
	for _, d := range defs {
		// A layer the workload does not use has no number to print.
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("%-34s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	for _, n := range res.Verdict.Notes {
		fmt.Printf("FAILED %s\n", n)
	}
}

// diagnostics are the per-layer metrics an untraced run already knows.
var diagnostics = []string{"bench.host_slowdown", "bench.raw_ns_per_pkt", "bench.noisy_block_share", "bench.op_tail_us", "bench.gc_cycles", "bench.gc_pause_ms"}

func printDiagnostics(res *result) {
	for _, name := range slices.Concat(diagnostics, sortedKeys(res.Exact)) {
		fmt.Printf("%-34s %14.6g\n", name, res.Metrics[name])
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// run returns the exit code: 2 for a usage or environment error, 1 when a
// run failed or an output check did, 0 otherwise.
func run() (int, error) {
	workload := flag.String("workload", "", "run one workload (default: all, end to end and traced)")
	seed := flag.Int64("seed", 1, "seed for every frame mix and op order")
	seconds := flag.Float64("seconds", 18, "timed seconds per workload")
	trace := flag.Int("trace", 0, "with -workload: 1 runs the traced child and prints the per-layer metrics")
	aa := flag.Bool("aa", false, "run two end-to-end sets of this build and compare them against the bounds")
	child := flag.Bool("child", false, "internal: measure one round in this process")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return 2, err
	}
	if *child {
		res, err := runChild(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, fullScale, root, filepath.Join(root, "bench", "out"))
		if err != nil {
			return 1, err
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			return 1, err
		}
		return 0, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return 2, err
	}
	r := &runner{exe: exe, seed: *seed, seconds: *seconds, log: os.Stderr}
	printEnvelope(root, *seed, *seconds)
	rp := &report{Metrics: map[string]metricValue{}}
	switch {
	case *aa:
		return runAA(r)
	case *workload != "":
		w, ok := workloadByName(*workload)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", *workload)
		}
		if *trace == 1 {
			res, err := r.traced(w)
			if err != nil {
				return 1, err
			}
			printResult(res, perLayerDefs, "traced")
			rp.add("", perLayerDefs, res)
		} else {
			res, err := r.endToEnd(w)
			if err != nil {
				return 1, err
			}
			printResult(res, endToEndDefs, "end-to-end")
			printDiagnostics(res)
			rp.add("", endToEndDefs, res)
		}
	default:
		all, err := r.allWorkloads()
		if err != nil {
			return 1, err
		}
		for i, res := range all {
			printResult(res, endToEndDefs, "end-to-end")
			rp.add(res.Workload+"/", endToEndDefs, res)
			fmt.Fprintf(r.log, "traced %s\n", res.Workload)
			tres, err := r.traced(workloadDefs[i])
			if err != nil {
				return 1, err
			}
			// The blocks of the three rounds give better diagnostics
			// than the traced child's short untraced section.
			for _, name := range diagnostics {
				tres.Metrics[name] = res.Metrics[name]
			}
			printResult(tres, perLayerDefs, "traced")
			rp.add(res.Workload+"/", perLayerDefs, tres)
		}
	}
	return rp.finish(), nil
}

// runAA runs two full end-to-end sets of the same build back to back and
// checks that every metric of every workload agrees within its bound,
// and that the exact counts are identical.
func runAA(r *runner) (int, error) {
	var sets [2][]*result
	for s := range sets {
		fmt.Fprintf(r.log, "set %d/2\n", s+1)
		all, err := r.allWorkloads()
		if err != nil {
			return 1, err
		}
		sets[s] = all
	}
	fmt.Printf("%-10s %-16s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	rp := &report{Metrics: map[string]metricValue{}}
	bad := 0
	for i, a := range sets[0] {
		b := sets[1][i]
		rp.add("set1/"+a.Workload+"/", endToEndDefs, a)
		rp.add("set2/"+b.Workload+"/", endToEndDefs, b)
		for _, d := range endToEndDefs {
			x, y := a.Metrics[d.Name], b.Metrics[d.Name]
			diff := math.Abs(y-x) / math.Min(x, y)
			verdict := ""
			if !(diff <= d.Bound) {
				verdict = "  OUTSIDE"
				bad++
			}
			fmt.Printf("%-10s %-16s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", a.Workload, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
		for _, name := range sortedKeys(a.Exact) {
			x, y := a.Exact[name], b.Exact[name]
			verdict := ""
			if x != y {
				verdict = "  DIFFERS"
				bad++
			}
			fmt.Printf("%-10s %-34s %14.6f %14.6f exact%s\n", a.Workload, name, x, y, verdict)
		}
		if a.Verdict.Failed+b.Verdict.Failed > 0 {
			fmt.Printf("%-10s failed operations: %d and %d\n", a.Workload, a.Verdict.Failed, b.Verdict.Failed)
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("A/A: %d comparisons outside their bounds\n", bad)
		rp.finish()
		return 1, nil
	}
	fmt.Println("A/A: every end-to-end metric of every workload agrees within its bound; exact counts identical")
	return rp.finish(), nil
}
