package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// TestStepTimesCoverFinalization pins the StepTimes contract after the
// fused-finalization rework: the four reported steps map one-to-one onto
// the paper's phases and together cover essentially the whole
// construction. In particular the Last-CC step must include the fused
// finalization (heads, block count, label sizes) — if someone moves
// finalization work outside the step timers again, the covered fraction
// collapses and this fails. The 50% floor is far below the real value
// (the timers miss only a few struct writes) but far above what any
// regression that untimes real work could sustain.
func TestStepTimesCoverFinalization(t *testing.T) {
	g := gen.RMAT(13, 8, 0x5e)
	start := time.Now()
	res := BCC(g, Options{Seed: 7})
	wall := time.Since(start)

	tm := res.Times
	if tm.FirstCC <= 0 || tm.Rooting <= 0 || tm.Tagging <= 0 || tm.LastCC <= 0 {
		t.Fatalf("every step must report positive time, got %+v", tm)
	}
	if tm.Total() > wall {
		t.Fatalf("step total %v exceeds wall time %v", tm.Total(), wall)
	}
	if tm.Total() < wall/2 {
		t.Fatalf("steps cover %v of %v wall time — construction work is escaping the step timers", tm.Total(), wall)
	}
	// The label-size cache must have been produced inside the timed
	// finalization: reading it now is cache-hit-only and must agree with
	// a from-scratch recount.
	sizes := res.LabelSizes()
	var nonRoot int32
	for _, c := range sizes {
		nonRoot += c
	}
	var want int32
	for v := range res.Parent {
		if res.Parent[v] != -1 {
			want++
		}
	}
	if nonRoot != want {
		t.Fatalf("fused label sizes sum to %d non-root vertices, want %d", nonRoot, want)
	}
}

// TestFusedLabelSizesMatchRecount checks the label sizes Last-CC counts
// in its fused finalization, label for label, against the from-scratch
// recount at 1, 2 and 4 workers. The finalization adds each run of
// equal labels once, so a run it forgets to add at a block end or at a
// label change leaves one label short; a sum over all labels could miss
// that when another label is long by as much, a per-label comparison
// cannot.
func TestFusedLabelSizesMatchRecount(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat13", gen.RMAT(13, 8, 0x5e)},
		{"sampledgrid200", gen.SampledGrid(200, 200, 0.6, 0x5e)},
	} {
		for _, p := range []int{1, 2, 4} {
			e := parallel.NewExec(p)
			res := BCC(tc.g, Options{Seed: 7, Exec: e})
			e.Close()
			if !slices.Equal(res.LabelSizes(), computeLabelSizes(res)) {
				t.Fatalf("%s at %d workers: fused label sizes differ from the recount", tc.name, p)
			}
		}
	}
}

// TestNumBCCMatchesHeadScan checks the O(1) block count of the fused
// finalization (NumLabels − numTrees) against the definition: labels
// with a component head.
func TestNumBCCMatchesHeadScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed uint64
	}{{"rmat", 0x11}, {"grid", 0x22}} {
		g := gen.RMAT(11, 8, tc.seed)
		if tc.name == "grid" {
			g = gen.Grid2D(40, 40, true)
		}
		res := BCC(g, Options{Seed: tc.seed})
		withHead := 0
		for _, h := range res.Head {
			if h != -1 {
				withHead++
			}
		}
		if res.NumBCC != withHead {
			t.Fatalf("%s: NumBCC = %d, but %d labels have heads", tc.name, res.NumBCC, withHead)
		}
	}
}
