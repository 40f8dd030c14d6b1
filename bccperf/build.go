package main

import (
	"context"
	"time"

	fastbcc "repro"
)

// load runs one NewGraphFromEdges + Store.Load of the run's edge list
// under the name "g": edge list → published snapshot.
func load(st *fastbcc.Store, in *input) (*fastbcc.Graph, *fastbcc.Snapshot, time.Time, error) {
	g, err := fastbcc.NewGraphFromEdges(in.g.NumVertices(), in.edges)
	t := time.Now()
	if err != nil {
		return nil, nil, t, err
	}
	snap, err := st.Load(context.Background(), "g", g, nil)
	return g, snap, t, err
}

// buildLoop loads the edge list back to back for d and returns each
// load's wall time in ms. With a tracer it also records the op's spans
// and splits the build with direct calls on the same graph.
func buildLoop(r *result, st *fastbcc.Store, in *input, d time.Duration, tr *tracer) []float64 {
	var lat []float64
	for end := time.Now().Add(d); time.Now().Before(end); {
		r.attempted++
		t0 := time.Now()
		g, snap, t1, err := load(st, in)
		t2 := time.Now()
		if err != nil {
			r.fail("load: %v", err)
			continue
		}
		if err := in.w.check(snap); err != nil {
			r.wrongAnswer("load: %v", err)
		}
		lat = append(lat, ms(t2.Sub(t0)))
		if tr != nil {
			traceBuild(tr, st, g, snap, t0, t1, t2)
		}
		snap.Release()
	}
	return lat
}

// phaseNames are the paper's four phases, as core.StepTimes orders them.
var phaseNames = [4]string{"first_cc", "rooting", "tagging", "last_cc"}

// addPhases records the four phases of a build as consecutive child
// spans of parent starting at start.
func addPhases(tr *tracer, op int64, parent int32, prefix string, start time.Time, t fastbcc.PhaseTimes) {
	for i, d := range [4]time.Duration{t.FirstCC, t.Rooting, t.Tagging, t.LastCC} {
		tr.addDur(op, parent, prefix+phaseNames[i], start, d)
		start = start.Add(d)
	}
}

// traceBuild records one traced load:
//
//	op.build                      NewGraphFromEdges + Store.Load
//	├─ graph.csr                  NewGraphFromEdges
//	└─ store.load                 self = admission + publish
//	   └─ runner.build            the Load's BuildTrace (program data)
//	      └─ core.<phase> ×4      its phase times; self = topology + index
//	op.direct (same op)           direct calls on the same graph
//	├─ runner.run                 Runner.Run; self = topology
//	│  └─ direct.<phase> ×4
//	└─ bctree.index               NewIndex
func traceBuild(tr *tracer, st *fastbcc.Store, g *fastbcc.Graph, snap *fastbcc.Snapshot, t0, t1, t2 time.Time) {
	op := tr.newOp()
	root := tr.add(op, -1, "op.build", t0, t2)
	tr.add(op, root, "graph.csr", t0, t1)
	ld := tr.add(op, root, "store.load", t1, t2)
	if bt, ok := buildTrace(st, snap.Version); ok {
		rb := tr.addDur(op, ld, "runner.build", bt.StartedAt, bt.Duration)
		addPhases(tr, op, rb, "core.", bt.StartedAt, bt.Phases)
	}
	t3 := time.Now()
	res := st.Runner().Run(g, nil)
	t4 := time.Now()
	fastbcc.NewIndex(g, res)
	t5 := time.Now()
	direct := tr.add(op, -1, "op.direct", t3, t5)
	run := tr.add(op, direct, "runner.run", t3, t4)
	addPhases(tr, op, run, "direct.", t3, res.Times)
	tr.add(op, direct, "bctree.index", t4, t5)
}

// buildTrace returns the BuildTrace that published version v of "g".
func buildTrace(st *fastbcc.Store, v int64) (fastbcc.BuildTrace, bool) {
	ts, err := st.Trace("g")
	if err != nil {
		return fastbcc.BuildTrace{}, false
	}
	for _, t := range ts {
		if t.Version == v {
			return t, true
		}
	}
	return fastbcc.BuildTrace{}, false
}

// buildLayers adds the per-layer metrics of the traced loads; d is the
// host record of the untraced loads.
func buildLayers(r *result, tr *tracer, d hostDelta) {
	bs := tr.breakdown("op.build")
	checkNote(r, "op.build", bs, "graph.csr", "store.load", "core.first_cc", "core.rooting",
		"core.tagging", "core.last_cc", "runner.run", "bctree.index")
	r.layer["graph.csr_ms"] = metric{bs.med("graph.csr"), "ms"}
	for _, p := range phaseNames {
		r.layer["core."+p+"_ms"] = metric{bs.med("core." + p), "ms"}
	}
	r.layer["core.topology_ms"] = metric{bs.med("runner.run"), "ms"}
	r.layer["bctree.index_ms"] = metric{bs.med("bctree.index"), "ms"}
	r.layer["store.publish_ms"] = metric{bs.med("store.load"), "ms"}
	r.layer["parallel.cpu_util"] = metric{d.CPUUtil, "ratio"}
}
