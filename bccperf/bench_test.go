package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// tiny is a size at which every workload runs in about a second.
var tiny = size{
	rmatScale: 10, gridSide: 40, setups: 2, warmLoads: 1, warmReqs: 8,
	batches: 4, scalars: 16, tick: 20 * time.Millisecond, persists: 1, rebuildGap: 3,
}

func tinyConfig(t *testing.T, w workload, traced bool) *config {
	return &config{seed: 7, timed: 1500 * time.Millisecond, traced: traced, size: tiny, dir: t.TempDir(), procs: w.procs}
}

// benchSpec reads the metric names and units BENCHMARK.json declares.
func benchSpec(t *testing.T) (e2e, layers map[string]string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// TestEveryWorkloadEmitsEveryMetric runs each workload tiny, untraced and
// traced: every run must answer correctly with zero failures and emit
// exactly the metrics BENCHMARK.json declares for its mode, each with
// the declared unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	e2eSpec, layerSpec := benchSpec(t)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		w := workloads[name]
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, tinyConfig(t, w, traced))
			if err == nil {
				err = res.complete()
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.setupOK || res.failed != 0 || res.wrong != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: setupOK=%v attempted=%d failed=%d wrong=%d errs=%v notes=%v",
					name, traced, res.setupOK, res.attempted, res.failed, res.wrong, res.errs, res.notes)
			}
			got, spec := res.e2e, e2eSpec
			if traced {
				got, spec = res.layer, layerSpec
			}
			if len(got) != len(spec) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json declares %d", name, traced, len(got), len(spec))
			}
			for m, v := range got {
				if unit, ok := spec[m]; !ok || unit != v.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q (declared: %v)",
						name, traced, m, v.Unit, unit, ok)
				}
			}
		}
	}
}

// TestCorruptedOracleAnswerCountsOneFailure corrupts one batch answer
// and one scalar answer in turn; reading each pool entry exactly once
// must count exactly one failed and wrong operation.
func TestCorruptedOracleAnswerCountsOneFailure(t *testing.T) {
	cases := map[string]func(*oracle){
		"batch":  func(o *oracle) { o.batchAns[1][5] ^= 1 },
		"scalar": func(o *oracle) { o.scalarAns[3] ^= 1 },
	}
	for name, corrupt := range cases {
		w := workloads["social"]
		cfg := tinyConfig(t, w, false)
		cfg.corrupt = corrupt
		// Batches and scalars alternate, so 2×max(pool) round trips read
		// every entry of both pools exactly once.
		cfg.maxReads = 2 * max(tiny.batches, tiny.scalars)
		cfg.size.batches = tiny.scalars
		res, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != 1 || res.wrong != 1 {
			t.Errorf("%s: failed=%d wrong=%d, want 1 and 1 (errs %v)", name, res.failed, res.wrong, res.errs)
		}
	}
}
