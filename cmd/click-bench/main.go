// Command click-bench regenerates the paper's tables and figures
// (§4, §8) on the simulated testbed. Run with -experiment all for the
// full evaluation, or name one of: fastclassifier, vcall, fig8, fig9,
// fig10, fig11, fig12, fig13, ablation, adaptive, fusion, flowcache,
// tenants.
//
// The adaptive, fusion, flowcache, and tenants experiments also write
// machine-readable results when given -json (e.g. -experiment tenants
// -json BENCH_tenants.json for the multi-tenant isolation sweep).
//
// -cpuprofile and -memprofile write pprof profiles of the selected
// experiment, the usual way to see where the wall-clock experiments
// actually spend their time.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/experiments"
)

func run() error {
	name := flag.String("experiment", "all", "experiment to run")
	jsonPath := flag.String("json", "", "also write JSON results to this file (adaptive, fusion, flowcache, and tenants experiments)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after the experiment) to this file")
	flag.Parse()
	experiments.JSONPath = *jsonPath

	fn, ok := experiments.Experiments[*name]
	if !ok {
		var names []string
		for n := range experiments.Experiments {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown experiment %q (have: %s)", *name, strings.Join(names, ", "))
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(os.Stdout); err != nil {
		return err
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // report live heap, not garbage awaiting collection
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "click-bench: %v\n", err)
		os.Exit(1)
	}
}
