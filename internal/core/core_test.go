package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/check"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/seqbcc"
)

// assertMatchesSeq checks that FAST-BCC's decomposition equals the
// Hopcroft–Tarjan decomposition on g, for the given options.
func assertMatchesSeq(t *testing.T, g *graph.Graph, opt Options) *Result {
	t.Helper()
	res := BCC(g, opt)
	ref := seqbcc.BCC(g)
	if res.NumBCC != ref.NumBCC() {
		t.Fatalf("NumBCC = %d, want %d", res.NumBCC, ref.NumBCC())
	}
	if !check.Equal(res.Blocks(), ref.Blocks) {
		t.Fatalf("blocks differ:\n fast: %s\n  seq: %s",
			check.Describe(res.Blocks()), check.Describe(ref.Blocks))
	}
	return res
}

func TestStructuredGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"triangle", gen.Clique(3)},
		{"clique8", gen.Clique(8)},
		{"chain40", gen.Chain(40)},
		{"cycle64", gen.Cycle(64)},
		{"star12", gen.Star(12)},
		{"barbell", gen.Barbell(5, 3)},
		{"cliquechain", gen.CliqueChain(5, 4)},
		{"grid", gen.Grid2D(6, 7, false)},
		{"torus", gen.Grid2D(6, 7, true)},
		{"tree", gen.RandomTree(60, 1)},
		{"er", gen.ER(80, 150, 2)},
		{"sampled", gen.SampledGrid(10, 10, 0.55, 3)},
		{"disjoint", gen.Disjoint(gen.Cycle(9), gen.Chain(7), gen.Clique(5), gen.Star(6))},
		{"singleedge", graph.MustFromEdges(2, []graph.Edge{{U: 0, W: 1}})},
		{"edgeless", graph.MustFromEdges(5, nil)},
		{"empty", graph.MustFromEdges(0, nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertMatchesSeq(t, tc.g, Options{Seed: 42})
		})
	}
}

func TestMultipleSeeds(t *testing.T) {
	// The spanning tree differs per seed; the decomposition must not.
	g := gen.ER(200, 500, 7)
	for seed := uint64(0); seed < 8; seed++ {
		assertMatchesSeq(t, g, Options{Seed: seed})
	}
}

func TestLocalSearchVariant(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Chain(5000),
		gen.Grid2D(30, 30, true),
		gen.RMAT(10, 6, 3),
	} {
		assertMatchesSeq(t, g, Options{Seed: 1, LocalSearch: true})
	}
}

func TestSelfLoopsAndParallelEdges(t *testing.T) {
	cases := [][]graph.Edge{
		{{U: 0, W: 0}},
		{{U: 0, W: 1}, {U: 0, W: 1}},
		{{U: 0, W: 1}, {U: 1, W: 2}, {U: 0, W: 1}, {U: 2, W: 2}},
		{{U: 0, W: 1}, {U: 1, W: 2}, {U: 2, W: 0}, {U: 0, W: 1}},
	}
	for i, edges := range cases {
		n := 3
		g := graph.MustFromEdges(n, edges)
		res := BCC(g, Options{Seed: 5})
		ref := seqbcc.BCC(g)
		if !check.Equal(res.Blocks(), ref.Blocks) {
			t.Fatalf("case %d: %s != %s", i,
				check.Describe(res.Blocks()), check.Describe(ref.Blocks))
		}
	}
}

func TestQuickRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(80)
		m := rng.Intn(3 * n)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), W: int32(rng.Intn(n))})
		}
		g := graph.MustFromEdges(n, edges)
		res := BCC(g, Options{Seed: uint64(seed)})
		return check.Equal(res.Blocks(), seqbcc.BCC(g).Blocks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRandomGraphsLocalSearch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(80)
		m := rng.Intn(4 * n)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), W: int32(rng.Intn(n))})
		}
		g := graph.MustFromEdges(n, edges)
		res := BCC(g, Options{Seed: uint64(seed), LocalSearch: true})
		return check.Equal(res.Blocks(), seqbcc.BCC(g).Blocks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestArticulationPoints(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		want []int32
	}{
		{gen.Chain(5), []int32{1, 2, 3}},
		{gen.Cycle(6), nil},
		{gen.Star(5), []int32{0}},
		{gen.Barbell(3, 1), []int32{2, 3}},
	}
	for i, tc := range cases {
		res := BCC(tc.g, Options{Seed: 3})
		got := res.ArticulationPoints()
		if len(got) != len(tc.want) {
			t.Fatalf("case %d: articulation %v, want %v", i, got, tc.want)
		}
		for j := range got {
			if got[j] != tc.want[j] {
				t.Fatalf("case %d: articulation %v, want %v", i, got, tc.want)
			}
		}
	}
}

func TestArticulationMatchesSeqOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(100)
		m := rng.Intn(3 * n)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), W: int32(rng.Intn(n))})
		}
		g := graph.MustFromEdges(n, edges)
		got := BCC(g, Options{Seed: uint64(trial)}).ArticulationPoints()
		want := seqbcc.BCC(g).ArticulationPoints()
		if len(got) != len(want) {
			t.Fatalf("trial %d: articulation %v want %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: articulation %v want %v", trial, got, want)
			}
		}
	}
}

func TestBridges(t *testing.T) {
	g := gen.Barbell(4, 2)
	res := BCC(g, Options{Seed: 4})
	got := res.Bridges(g)
	want := seqbcc.BCC(g).Bridges()
	if len(got) != len(want) {
		t.Fatalf("bridges %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("bridges %v, want %v", got, want)
		}
	}
}

func TestBridgesMatchSeqOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(80)
		m := rng.Intn(2 * n)
		edges := make([]graph.Edge, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), W: int32(rng.Intn(n))})
		}
		g := graph.MustFromEdges(n, edges)
		got := BCC(g, Options{Seed: uint64(trial)}).Bridges(g)
		want := seqbcc.BCC(g).Bridges()
		if len(got) != len(want) {
			t.Fatalf("trial %d: bridges %v want %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: bridges differ at %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestIsBridge(t *testing.T) {
	g := gen.Barbell(3, 1) // K3 - bridge - K3: bridge between 2 and 3
	res := BCC(g, Options{Seed: 6})
	if !res.IsBridge(g, 2, 3) || !res.IsBridge(g, 3, 2) {
		t.Fatal("bridge not detected")
	}
	if res.IsBridge(g, 0, 1) {
		t.Fatal("clique edge flagged as bridge")
	}
	if res.IsBridge(g, 0, 0) {
		t.Fatal("self pair flagged as bridge")
	}
	if res.IsBridge(g, 0, 5) {
		t.Fatal("non-edge flagged as bridge")
	}
}

func TestLabelsAreDense(t *testing.T) {
	g := gen.CliqueChain(4, 4)
	res := BCC(g, Options{Seed: 7})
	seen := make([]bool, res.NumLabels)
	for _, l := range res.Label {
		if l < 0 || int(l) >= res.NumLabels {
			t.Fatalf("label %d out of range", l)
		}
		seen[l] = true
	}
	for l, s := range seen {
		if !s {
			t.Fatalf("label %d unused", l)
		}
	}
}

func TestHeadsConsistent(t *testing.T) {
	// Every head must be a real vertex outside the labeled set, and the
	// number of BCCs equals labels with heads.
	g := gen.ER(150, 300, 17)
	res := BCC(g, Options{Seed: 8})
	withHead := 0
	for l, h := range res.Head {
		if h == -1 {
			continue
		}
		withHead++
		if h < 0 || int(h) >= len(res.Label) {
			t.Fatalf("head %d out of range", h)
		}
		if res.Label[h] == int32(l) {
			t.Fatalf("head %d has its own label %d", h, l)
		}
	}
	if withHead != res.NumBCC {
		t.Fatalf("labels with heads %d != NumBCC %d", withHead, res.NumBCC)
	}
}

func TestBiconnectedPairsShareLabel(t *testing.T) {
	// Direct statement of Thm. 4.7/4.10 on a known structure: inside one
	// clique of a clique chain all non-head vertices share a label.
	g := gen.CliqueChain(3, 5)
	res := BCC(g, Options{Seed: 9})
	blocks := res.Blocks()
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	for _, b := range blocks {
		if len(b) != 5 {
			t.Fatalf("block size %d, want 5", len(b))
		}
	}
}

func TestStepTimesPopulated(t *testing.T) {
	g := gen.Grid2D(50, 50, true)
	res := BCC(g, Options{Seed: 10})
	if res.Times.Total() <= 0 {
		t.Fatal("step times not recorded")
	}
	if res.AuxBytes <= 0 {
		t.Fatal("aux bytes not estimated")
	}
}

func TestLargerGraphsAgainstSeq(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, g := range []*graph.Graph{
		gen.RMAT(12, 8, 21),
		gen.Grid2D(70, 70, true),
		gen.KNN(4000, 5, 22),
		gen.RoadLike(60, 60, 0.1, 23),
		gen.SampledGrid(50, 50, 0.6, 24),
	} {
		res := BCC(g, Options{Seed: 11})
		ref := seqbcc.BCC(g)
		if res.NumBCC != ref.NumBCC() {
			t.Fatalf("NumBCC %d != %d (n=%d m=%d)", res.NumBCC, ref.NumBCC(),
				g.NumVertices(), g.NumEdges())
		}
		if !check.Equal(res.Blocks(), ref.Blocks) {
			t.Fatal("blocks differ on large graph")
		}
	}
}
