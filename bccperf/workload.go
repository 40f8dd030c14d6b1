package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	fastbcc "repro"
	"repro/internal/gen"
)

// workload is one graph class at one P count. Every workload runs the
// same mix, so every run reports every metric: after set-up, the timed
// phase spends buildShare of its time loading the edge list back to back
// into a plain Store, and the rest serving the same graph from a durable
// Store behind bccdhttp on loopback while a writer churns it.
type workload struct {
	procs int
	graph func(size, uint64) *fastbcc.Graph
}

var workloads = map[string]workload{
	"social":    {2, rmat},
	"grid":      {2, grid},
	"social-1p": {1, rmat},
}

// rmat is the paper's low-diameter power-law class.
func rmat(sz size, seed uint64) *fastbcc.Graph { return gen.RMAT(sz.rmatScale, 8, seed) }

// grid is the paper's large-diameter class (SQR′, p = 0.6), which has
// many small blocks, so the block-cut and bridge trees do real work.
func grid(sz size, seed uint64) *fastbcc.Graph {
	return gen.SampledGrid(sz.gridSide, sz.gridSide, 0.6, seed)
}

// buildShare is the part of the timed phase spent on back-to-back loads.
const buildShare = 1.0 / 3

// input is everything a run derives from its seed before the program is
// involved.
type input struct {
	g     *fastbcc.Graph
	edges []fastbcc.Edge
	w     want
	o     *oracle
	churn fastbcc.Edge
}

// runMix runs one workload: set-up several times (setup_s is the
// median), then the timed loads and the timed serve phase. A traced run
// measures both untraced for half the time, then traced, then times the
// persistence layers.
func runMix(w workload, c *config) (*result, error) {
	r := newResult(c.traced)
	in := &input{g: generate(func() *fastbcc.Graph { return w.graph(c.size, c.seed) })}
	in.edges = in.g.Edges()
	in.w = seqWant(in.g)
	r.note("input n=%d m=%d blocks=%d cuts=%d bridges=%d", in.g.NumVertices(), len(in.edges), in.w.blocks, in.w.cuts, in.w.bridges)
	calib := calibrate()

	var setups []float64
	var sv *server
	for i := 0; i < c.size.setups; i++ {
		if sv != nil {
			sv.close()
		}
		var took time.Duration
		var err error
		sv, took, err = setup(c, r, in, i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	closed := false
	defer func() {
		if !closed {
			sv.close()
		}
	}()
	r.note("churn edge %d-%d", in.churn.U, in.churn.W)
	if c.corrupt != nil {
		c.corrupt(in.o)
	}

	phase := c.timed
	if c.traced {
		phase /= 2
	}
	buildFor := time.Duration(float64(phase) * buildShare)
	resetPeakRSS()
	h0 := sampleHost()
	loads := buildLoop(r, sv.builds, in, buildFor, nil)
	h1 := sampleHost()
	ph := sv.runPhase(c, r, in, phase-buildFor, nil)
	h2 := sampleHost()
	r.note("%s", envLine(calib, diffHost(h0, h2, c.procs)))
	r.note("samples untraced loads=%d build_ms_p90=%.3f", len(loads), quantile(loads, 0.9))
	ph.report(r, "untraced")
	if err := sv.checkFinal(r, in.w); err != nil {
		return nil, err
	}
	e2e := ph.e2e()
	e2e["setup_s"] = metric{median(setups), "s"}
	e2e["build_ms_p50"] = metric{quantile(loads, 0.5), "ms"}
	e2e["mem_peak_mb"] = metric{peakRSSMiB(), "MiB"}
	r.e2e = e2e
	if !c.traced {
		return r, nil
	}

	tr := newTracer()
	tloads := buildLoop(r, sv.builds, in, buildFor, tr)
	tph := sv.runPhase(c, r, in, phase-buildFor, tr)
	r.note("samples traced loads=%d", len(tloads))
	tph.report(r, "traced")
	if err := sv.checkFinal(r, in.w); err != nil {
		return nil, err
	}
	te2e := tph.e2e()
	te2e["build_ms_p50"] = metric{quantile(tloads, 0.5), "ms"}
	names := make([]string, 0, len(te2e))
	for m := range te2e {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		overheadNote(r, m, e2e[m].Value, te2e[m].Value)
	}

	// Persistence layers, after the timed phases: a synchronous snapshot
	// save, then a restart — Recover into a fresh Store over the run's
	// data dir, checked against seqbcc.
	var saves []float64
	for i := 0; i < c.size.persists; i++ {
		t0 := time.Now()
		if err := sv.store.Persist("g"); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		saves = append(saves, ms(time.Since(t0)))
	}
	sv.close()
	closed = true
	recoverMs, err := timeRecover(r, sv.dataDir, in.w)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(c.dir, "spans.jsonl")); err != nil {
		return nil, err
	}
	buildLayers(r, tr, diffHost(h0, h1, c.procs))
	serveLayers(r, tr, tph, saves, recoverMs, diffHost(h1, h2, c.procs))
	hostLayers(r, calib, diffHost(h0, h2, c.procs))
	return r, nil
}
