package experiments

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedBenchArtifacts audits every benchmark JSON committed at
// the repository root: each artifact must be named for an experiment
// click-bench still runs (so a deleted experiment leaves no orphan),
// must parse (JSON has no NaN/Inf, so a corrupted run cannot hide
// one), must carry its required top-level keys, and must hold a
// non-empty points list in which every per-packet cost measurement is
// a positive finite number. A benchmark that measured zero cycles per packet did not
// measure anything.
func TestCommittedBenchArtifacts(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("no committed benchmark artifacts")
	}
	required := map[string][]string{
		"BENCH_adaptive.json":  {"points", "passes_applied", "improvement_pct"},
		"BENCH_flowcache.json": {"points", "improvement", "flows", "trace_packets"},
		"BENCH_fusion.json":    {"points"},
		"BENCH_tenants.json": {"points", "scaling", "isolation_ok",
			"quiet_p99_solo_ns", "quiet_p99_beside_hog_ns"},
	}
	// Keys that are asserted claims, not measurements: the committed
	// artifact must say the claim held.
	mustBeTrue := map[string][]string{
		"BENCH_tenants.json": {"isolation_ok"},
	}
	// Point fields that are per-run or per-packet measurements: zero or
	// negative means the benchmark recorded nothing.
	positive := map[string]bool{
		"packets":           true,
		"cycles":            true,
		"cycles_per_packet": true,
		"ns_per_packet":     true,
		"pps":               true,
		"offered_pps":       true,
		"forward_pps":       true,
	}
	for _, path := range files {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			experiment := strings.TrimSuffix(strings.TrimPrefix(name, "BENCH_"), ".json")
			if _, ok := Experiments[experiment]; !ok {
				t.Errorf("%s names no experiment click-bench runs", name)
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]interface{}
			if err := json.Unmarshal(blob, &doc); err != nil {
				t.Fatalf("%s does not parse: %v", name, err)
			}
			keys, known := required[name]
			if !known {
				// New artifacts must at minimum carry measurement points.
				keys = []string{"points"}
			}
			for _, k := range keys {
				if _, ok := doc[k]; !ok {
					t.Errorf("%s is missing required key %q", name, k)
				}
			}
			for _, k := range mustBeTrue[name] {
				if v, ok := doc[k].(bool); !ok || !v {
					t.Errorf("%s: asserted claim %q = %v, want true", name, k, doc[k])
				}
			}
			pts, _ := doc["points"].([]interface{})
			if len(pts) == 0 {
				t.Fatalf("%s has no measurement points", name)
			}
			for i, raw := range pts {
				pt, ok := raw.(map[string]interface{})
				if !ok {
					t.Errorf("%s point %d is not an object", name, i)
					continue
				}
				for key, v := range pt {
					f, isNum := v.(float64)
					if !isNum {
						continue
					}
					if math.IsNaN(f) || math.IsInf(f, 0) {
						t.Errorf("%s point %d: %s is not finite", name, i, key)
					}
					if positive[key] && f <= 0 {
						t.Errorf("%s point %d: %s = %v, want > 0", name, i, key, f)
					}
				}
			}
		})
	}
}
