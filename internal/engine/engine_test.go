package engine

import (
	"testing"

	"repro/internal/check"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/seqbcc"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	if len(names) == 0 || names[0] != Default {
		t.Fatalf("Names() = %v, want %q first", names, Default)
	}
	for _, want := range []string{"fast", "fast-opt", "seq", "gbbs", "sm14", "tv"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("builtin engine %q not registered", want)
		}
	}
	if len(All()) != len(names) {
		t.Fatalf("All() and Names() disagree: %d vs %d", len(All()), len(names))
	}
}

func TestLookupDefaultAndUnknown(t *testing.T) {
	a, ok := Lookup("")
	if !ok || a.Name() != Default {
		t.Fatalf(`Lookup("") = %v, %v; want the default engine`, a, ok)
	}
	if _, err := Get("no-such-engine"); err == nil {
		t.Fatal("Get of unknown engine did not error")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(seqEngine{})
}

// corpus returns graphs covering the shapes the engines disagree on when
// buggy: cycles, bridges, multigraph features, disconnection, isolation.
func corpus() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty":     graph.MustFromEdges(0, nil),
		"singleton": graph.MustFromEdges(1, nil),
		"triangle+tail": graph.MustFromEdges(4, []graph.Edge{
			{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 0}, {U: 2, W: 3}}),
		"two-components": gen.Disjoint(gen.Cycle(5), gen.Clique(4)),
		"multigraph": graph.MustFromEdges(5, []graph.Edge{
			{U: 0, W: 1}, {U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 2},
			{U: 2, W: 3}, {U: 3, W: 4}, {U: 4, W: 2}}),
		"isolated+bridge": graph.MustFromEdges(6, []graph.Edge{{U: 1, W: 4}}),
		"cliquechain":     gen.CliqueChain(4, 5),
	}
}

func TestEveryEngineMatchesOracleOnCorpus(t *testing.T) {
	for gname, g := range corpus() {
		ref := seqbcc.BCC(g).Blocks
		for _, a := range All() {
			res, err := a.Run(g, RunOptions{Seed: 42})
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name(), gname, err)
			}
			if !check.Equal(res.Blocks(), ref) {
				t.Errorf("%s on %s: blocks mismatch\n got %s\nwant %s",
					a.Name(), gname, check.Describe(res.Blocks()), check.Describe(ref))
			}
			if res.NumBCC != len(ref) {
				t.Errorf("%s on %s: NumBCC = %d, want %d", a.Name(), gname, res.NumBCC, len(ref))
			}
		}
	}
}

// TestSM14Disconnected pins the satellite fix: the registered sm14 engine
// must handle disconnected and multigraph inputs even though the raw
// implementation returns ErrDisconnected, via the per-component wrapper.
func TestSM14Disconnected(t *testing.T) {
	a, err := Get("sm14")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Caps().ConnectedOnly {
		t.Fatal("sm14 should advertise ConnectedOnly")
	}
	cases := map[string]*graph.Graph{
		"two-cycles": gen.Disjoint(gen.Cycle(6), gen.Cycle(4)),
		"multigraph-with-isolated": graph.MustFromEdges(7, []graph.Edge{
			{U: 0, W: 1}, {U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 0},
			{U: 4, W: 5}, {U: 5, W: 5}}),
		"all-isolated": graph.MustFromEdges(5, nil),
	}
	for name, g := range cases {
		res, err := a.Run(g, RunOptions{})
		if err != nil {
			t.Fatalf("sm14 on %s: %v", name, err)
		}
		want := seqbcc.BCC(g).Blocks
		if !check.Equal(res.Blocks(), want) {
			t.Errorf("sm14 on %s: got %s want %s",
				name, check.Describe(res.Blocks()), check.Describe(want))
		}
	}
}

// TestDeterministicEngines verifies the Deterministic capability claim:
// byte-identical Label/Head/Parent across repeated runs.
func TestDeterministicEngines(t *testing.T) {
	g := gen.Disjoint(gen.RMAT(8, 4, 3), gen.Cycle(17))
	for _, a := range All() {
		if !a.Caps().Deterministic {
			continue
		}
		r1, err1 := a.Run(g, RunOptions{Seed: 1})
		r2, err2 := a.Run(g, RunOptions{Seed: 1})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", a.Name(), err1, err2)
		}
		for v := range r1.Label {
			if r1.Label[v] != r2.Label[v] || r1.Parent[v] != r2.Parent[v] {
				t.Fatalf("%s: run-to-run mismatch at v=%d", a.Name(), v)
			}
		}
		for l := range r1.Head {
			if r1.Head[l] != r2.Head[l] {
				t.Fatalf("%s: head mismatch at label %d", a.Name(), l)
			}
		}
	}
}

// TestFromBlocksInvariants checks the adapter output satisfies the
// core.Result contract on a graph with cut vertices, bridges, and roots.
func TestFromBlocksInvariants(t *testing.T) {
	g := gen.Disjoint(gen.CliqueChain(3, 4), gen.Star(5))
	res := FromBlocks(g, seqbcc.BCC(g).Blocks)
	n := g.NumVertices()
	if len(res.Label) != n || len(res.Parent) != n {
		t.Fatalf("bad array lengths")
	}
	if res.NumLabels != len(res.Head) {
		t.Fatalf("NumLabels %d != len(Head) %d", res.NumLabels, len(res.Head))
	}
	roots := 0
	for v := 0; v < n; v++ {
		l := res.Label[v]
		if l < 0 || int(l) >= res.NumLabels {
			t.Fatalf("label out of range at %d", v)
		}
		if p := res.Parent[v]; p == -1 {
			roots++
			if res.Head[l] != -1 {
				t.Fatalf("root %d has a headed label", v)
			}
		} else {
			// Tree edges must be graph edges.
			found := false
			for _, w := range g.Neighbors(int32(v)) {
				if w == p {
					found = true
				}
			}
			if !found {
				t.Fatalf("parent edge (%d,%d) is not a graph edge", p, v)
			}
			if res.Head[l] == -1 {
				t.Fatalf("non-root %d has headless label", v)
			}
		}
	}
	if nb := res.NumBCC; nb != res.NumLabels-roots {
		t.Fatalf("NumBCC %d != NumLabels-roots %d", nb, res.NumLabels-roots)
	}
	// Derived queries must work off the adapter result.
	want := seqbcc.BCC(g)
	if got := res.ArticulationPoints(); len(got) != len(want.ArticulationPoints()) {
		t.Fatalf("articulation points: got %v want %v", got, want.ArticulationPoints())
	}
	if got := res.Bridges(g); len(got) != len(want.Bridges()) {
		t.Fatalf("bridges: got %v want %v", got, want.Bridges())
	}
}

// TestEnginesUnderExec runs every engine on an isolated private context
// and checks the result is unaffected (the Exec-threading satellite).
func TestEnginesUnderExec(t *testing.T) {
	g := gen.Disjoint(gen.Cycle(64), gen.Chain(33))
	ref := seqbcc.BCC(g).Blocks
	ex := parallel.NewExec(3)
	defer ex.Close()
	for _, a := range All() {
		res, err := a.Run(g, RunOptions{Exec: ex, Threads: 2, Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if !check.Equal(res.Blocks(), ref) {
			t.Errorf("%s under private Exec: blocks mismatch", a.Name())
		}
	}
}
