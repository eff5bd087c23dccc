package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at tiny size, untraced and traced,
// and checks the contract line: every verdict checked and correct,
// every end-to-end metric (or, traced, every per-layer metric)
// present with its unit, the times and rates nonzero.
func TestSmoke(t *testing.T) {
	root := t.TempDir()
	wd, _ := os.Getwd()
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	e2e := map[string]string{"setup_s": "s", "heap_mb": "MB", "op_ms": "ms", "work_per_s": "1/s"}
	for _, w := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: 6, trace: trace, tiny: true,
				work: filepath.Join(root, ".bench_build", w)}
			out, err := execute(o, workloads[w])
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, out.Correct, out.Attempted, out.Failed)
			}
			want := e2e
			if trace {
				want = map[string]string{}
				for _, m := range perLayer {
					want[m.name] = m.unit
				}
			}
			if len(out.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: %d metrics, want %d: %v", w, trace, len(out.Metrics), len(want), out.Metrics)
			}
			for name, unit := range want {
				m, ok := out.Metrics[name]
				if !ok || m.Unit != unit {
					t.Fatalf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, name, m, unit)
				}
				if (!trace || unit == "us" || unit == "ms" || unit == "B") && m.Value <= 0 {
					t.Errorf("%s trace=%v: %s = %v, want > 0", w, trace, name, m.Value)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, ".bench_build", "out", "verify-seed3-trace1.json")); err != nil {
		t.Errorf("traced run wrote no result file: %v", err)
	}
}

func TestQuantileNeedsSamplesBeyond(t *testing.T) {
	var r Recorder
	for i := 1; i <= 19; i++ {
		r.Add(float64(i))
	}
	if _, ok := r.Quantile(0.5); ok {
		t.Fatal("p50 reported from 19 samples")
	}
	r.Add(20)
	if v, ok := r.Quantile(0.5); !ok || v != 10.5 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10.5", v, ok)
	}
	if _, ok := r.Quantile(0.99); ok {
		t.Fatal("p99 reported from 20 samples")
	}
}
