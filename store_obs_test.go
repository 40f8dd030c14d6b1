package fastbcc_test

import (
	"context"
	"errors"
	"testing"

	fastbcc "repro"
	"repro/internal/faultpoint"
	"repro/internal/obs"
)

// Store-level observability: the per-graph build-trace ring, the build
// classification it records, and the metric registry Stats reads.

func TestStoreTraceRing(t *testing.T) {
	s := fastbcc.NewStore(2)
	defer s.Close()
	g := storeTestGraph(t)

	snap, err := s.Load(context.Background(), "demo", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	// 17 rebuilds: 18 attempts total, one more than the ring holds.
	for i := 0; i < 17; i++ {
		snap, err := s.Rebuild(context.Background(), "demo", nil)
		if err != nil {
			t.Fatal(err)
		}
		snap.Release()
	}

	traces, err := s.Trace("demo")
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 16 {
		t.Fatalf("ring holds %d traces, want 16", len(traces))
	}
	// Newest first; the oldest two attempts (versions 1 and 2) evicted.
	for i, tr := range traces {
		if want := int64(18 - i); tr.Version != want {
			t.Fatalf("trace[%d].Version = %d, want %d", i, tr.Version, want)
		}
		if tr.Outcome != fastbcc.BuildOK {
			t.Fatalf("trace[%d].Outcome = %q", i, tr.Outcome)
		}
		if tr.Duration <= 0 || tr.StartedAt.IsZero() {
			t.Fatalf("trace[%d] missing timing: %+v", i, tr)
		}
	}

	if _, err := s.Trace("nosuch"); err == nil {
		t.Fatal("Trace of unknown graph did not error")
	}
}

func TestStoreTraceRecordsFailures(t *testing.T) {
	defer faultpoint.Reset()
	s := fastbcc.NewStore(2)
	defer s.Close()
	g := storeTestGraph(t)

	snap, err := s.Load(context.Background(), "demo", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	faultpoint.ArmError(faultpoint.ErrorInBuild, 0)
	if _, err := s.Rebuild(context.Background(), "demo", nil); err == nil {
		t.Fatal("faulted rebuild did not error")
	}
	faultpoint.Reset()

	traces, err := s.Trace("demo")
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("want 2 traces, got %d", len(traces))
	}
	failed, ok := traces[0], traces[1]
	if failed.Outcome != fastbcc.BuildError || failed.Error == "" || failed.Version != 0 {
		t.Fatalf("failed trace: %+v", failed)
	}
	if ok.Outcome != fastbcc.BuildOK || ok.Version != 1 {
		t.Fatalf("ok trace: %+v", ok)
	}
	if failed.Phases != (fastbcc.PhaseTimes{}) {
		t.Fatalf("failed build carries phase times: %+v", failed.Phases)
	}

	// Status surfaces the most recent attempt alongside the serving
	// snapshot's phase breakdown (still version 1's).
	st, err := s.Status("demo")
	if err != nil {
		t.Fatal(err)
	}
	if st.LastBuild == nil || st.LastBuild.Outcome != fastbcc.BuildError {
		t.Fatalf("Status.LastBuild = %+v", st.LastBuild)
	}
	if st.Phases.Total() <= 0 {
		t.Fatalf("Status.Phases empty: %+v", st.Phases)
	}
}

func TestStoreTraceRecordsCancellation(t *testing.T) {
	s := fastbcc.NewStore(2)
	defer s.Close()
	g := storeTestGraph(t)
	snap, err := s.Load(context.Background(), "demo", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Rebuild(ctx, "demo", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("rebuild with canceled ctx = %v", err)
	}
	traces, err := s.Trace("demo")
	if err != nil {
		t.Fatal(err)
	}
	if traces[0].Outcome != fastbcc.BuildCanceled {
		t.Fatalf("canceled build classified %q", traces[0].Outcome)
	}
}

func TestStoreMetricsRegistryGathers(t *testing.T) {
	s := fastbcc.NewStore(2)
	defer s.Close()
	g := storeTestGraph(t)
	snap, err := s.Load(context.Background(), "demo", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()

	reg := s.Metrics()
	if reg == nil {
		t.Fatal("store has no metrics registry")
	}
	found := map[string]bool{}
	for _, fam := range reg.Gather() {
		found[fam.Name] = true
	}
	for _, name := range []string{
		"fastbcc_acquires_total", "fastbcc_batches_total",
		"fastbcc_builds_total", "fastbcc_build_duration_seconds",
		"fastbcc_build_phase_duration_seconds", "fastbcc_live_snapshots",
		"fastbcc_retired_snapshots", "fastbcc_reclaimed_snapshots_total",
	} {
		if !found[name] {
			t.Errorf("registry missing family %s", name)
		}
	}

	// Stats and the exposition read one batch count.
	h := s.NewHandle()
	defer h.Close()
	qs := []fastbcc.Query{{Op: fastbcc.OpConnected, U: 0, V: 6}, {Op: fastbcc.OpBiconnected, U: 0, V: 1}}
	for i := 0; i < 3; i++ {
		if _, _, err := s.QueryBatch(context.Background(), h, "demo", qs, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Batches != 3 || st.BatchQueries != 6 {
		t.Errorf("Stats batches/queries = %d/%d, want 3/6", st.Batches, st.BatchQueries)
	}
	if got := gatherValue(t, reg, "fastbcc_batches_total", ""); got != 3 {
		t.Errorf("fastbcc_batches_total = %v, want 3", got)
	}
}

// gatherValue returns the value of the series family{labels} in reg.
func gatherValue(t *testing.T, reg *obs.Registry, family, labels string) float64 {
	t.Helper()
	for _, fam := range reg.Gather() {
		if fam.Name != family {
			continue
		}
		for _, se := range fam.Series {
			if se.Labels == labels {
				return se.Value
			}
		}
	}
	t.Fatalf("series %s{%s} not found", family, labels)
	return 0
}
