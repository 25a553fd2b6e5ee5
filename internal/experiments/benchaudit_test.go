package experiments

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedBenchArtifacts audits every benchmark JSON committed at
// the repository root: each artifact must
// parse (JSON has no NaN/Inf, so a corrupted run cannot hide one), must
// carry its required top-level keys, and must hold a non-empty points
// list in which every per-packet cost measurement is a positive finite
// number. A benchmark that measured zero cycles per packet did not
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
		"BENCH_mgmtscale.json": {"points", "threshold_speedup", "threshold_tenants",
			"incremental_speedup", "incremental_speedup_ok", "sharing_sublinear",
			"dataplane_live"},
	}
	// Keys that are asserted claims, not measurements: the committed
	// artifact must say the claim held.
	mustBeTrue := map[string][]string{
		"BENCH_tenants.json": {"isolation_ok"},
		"BENCH_mgmtscale.json": {"incremental_speedup_ok", "sharing_sublinear",
			"dataplane_live"},
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
		"inc_create_ns":     true,
		"inc_swap_ns":       true,
		"inc_delete_ns":     true,
		"full_create_ns":    true,
		"full_swap_ns":      true,
		"full_delete_ns":    true,
		"create_speedup":    true,
		"swap_speedup":      true,
		"delete_speedup":    true,
		"ctrl_ops_per_sec":  true,
		"forwarded":         true,
		"shared_programs":   true,
		"resident_nodes":    true,
		"unshared_nodes":    true,
	}
	for _, path := range files {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
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
			if name == "BENCH_mgmtscale.json" {
				// The headline claim is a ratio against a threshold both
				// recorded in the same file; the committed artifact must
				// actually clear it, not just assert the boolean.
				sp, _ := doc["incremental_speedup"].(float64)
				th, _ := doc["threshold_speedup"].(float64)
				if th <= 1 {
					t.Errorf("%s: threshold_speedup = %v, want a real bar", name, th)
				}
				if sp < th {
					t.Errorf("%s: incremental_speedup %.2f below threshold %.2f", name, sp, th)
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
