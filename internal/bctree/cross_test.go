package bctree

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/seqbcc"
)

// naiveRef answers every Index query by brute force on the edge list:
// BFS with a vertex or a single edge occurrence removed. It is the
// definitional reference — "does removing x disconnect u from v" is
// literally recomputed per query.
type naiveRef struct {
	n     int
	edges []graph.Edge
	adj   [][]arcRef // adj[v] = (neighbor, edge index)
	seen  []int32    // BFS epoch marks, reused across queries
	epoch int32
	queue []int32
}

type arcRef struct {
	to  int32
	idx int32
}

func newNaive(n int, edges []graph.Edge) *naiveRef {
	na := &naiveRef{n: n, edges: edges, adj: make([][]arcRef, n), seen: make([]int32, n)}
	for i, e := range edges {
		na.adj[e.U] = append(na.adj[e.U], arcRef{e.W, int32(i)})
		if e.U != e.W {
			na.adj[e.W] = append(na.adj[e.W], arcRef{e.U, int32(i)})
		}
	}
	return na
}

// reach reports whether v is reachable from u with vertex skipV (-1 =
// none) and edge occurrence skipE (-1 = none) removed.
func (na *naiveRef) reach(u, v, skipV int32, skipE int32) bool {
	if u == skipV || v == skipV {
		return false
	}
	if u == v {
		return true
	}
	na.epoch++
	na.seen[u] = na.epoch
	na.queue = append(na.queue[:0], u)
	for len(na.queue) > 0 {
		w := na.queue[len(na.queue)-1]
		na.queue = na.queue[:len(na.queue)-1]
		for _, a := range na.adj[w] {
			if a.to == skipV || a.idx == skipE || na.seen[a.to] == na.epoch {
				continue
			}
			if a.to == v {
				return true
			}
			na.seen[a.to] = na.epoch
			na.queue = append(na.queue, a.to)
		}
	}
	return false
}

func (na *naiveRef) connected(u, v int32) bool { return na.reach(u, v, -1, -1) }

func (na *naiveRef) separates(x, u, v int32) bool {
	return x != u && x != v && u != v && na.reach(u, v, -1, -1) && !na.reach(u, v, x, -1)
}

func (na *naiveRef) cutsOnPath(u, v int32) []int32 {
	var out []int32
	if u == v || !na.reach(u, v, -1, -1) {
		return out
	}
	for x := int32(0); x < int32(na.n); x++ {
		if x != u && x != v && !na.reach(u, v, x, -1) {
			out = append(out, x)
		}
	}
	return out
}

// biconnected: u != v share a block iff they are connected and no third
// vertex separates them.
func (na *naiveRef) biconnected(u, v int32) bool {
	if u == v || !na.reach(u, v, -1, -1) {
		return false
	}
	for x := int32(0); x < int32(na.n); x++ {
		if x != u && x != v && !na.reach(u, v, x, -1) {
			return false
		}
	}
	return true
}

func (na *naiveRef) twoEdgeConnected(u, v int32) bool {
	if u == v {
		return true
	}
	if !na.reach(u, v, -1, -1) {
		return false
	}
	for i := range na.edges {
		if !na.reach(u, v, -1, int32(i)) {
			return false
		}
	}
	return true
}

func (na *naiveRef) bridgesOnPath(u, v int32) []graph.Edge {
	var out []graph.Edge
	if u == v || !na.reach(u, v, -1, -1) {
		return out
	}
	for i, e := range na.edges {
		if !na.reach(u, v, -1, int32(i)) {
			b := e
			if b.U > b.W {
				b.U, b.W = b.W, b.U
			}
			out = append(out, b)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].U != out[b].U {
			return out[a].U < out[b].U
		}
		return out[a].W < out[b].W
	})
	return out
}

// randomInstance draws one test graph. The mix deliberately includes
// forests, multigraphs (parallel edges and self-loops), disconnected
// graphs, and the degenerate shapes.
func randomInstance(rng *rand.Rand, trial int) (int, []graph.Edge) {
	switch trial % 6 {
	case 0: // sparse random multigraph
		n := 2 + rng.Intn(40)
		m := rng.Intn(2 * n)
		return n, randomEdges(rng, n, m, true)
	case 1: // denser random simple-ish graph
		n := 2 + rng.Intn(30)
		m := rng.Intn(4 * n)
		return n, randomEdges(rng, n, m, false)
	case 2: // forest: random tree minus some edges, plus isolated vertices
		n := 2 + rng.Intn(40)
		tree := gen.RandomTree(n, uint64(trial)).Edges()
		keep := tree[:rng.Intn(len(tree)+1)]
		return n + rng.Intn(3), append([]graph.Edge{}, keep...)
	case 3: // disjoint union of small shapes
		g := gen.Disjoint(gen.Cycle(3+rng.Intn(5)), gen.Chain(2+rng.Intn(6)), gen.Star(2+rng.Intn(5)))
		return g.NumVertices() + 1, g.Edges()
	case 4: // clique chain (many cuts, no bridges)
		g := gen.CliqueChain(2+rng.Intn(3), 3+rng.Intn(3))
		return g.NumVertices(), g.Edges()
	default: // doubled-edge path: parallel edges shadowing bridges
		n := 3 + rng.Intn(10)
		var edges []graph.Edge
		for v := 0; v < n-1; v++ {
			edges = append(edges, graph.Edge{U: int32(v), W: int32(v + 1)})
			if rng.Intn(2) == 0 {
				edges = append(edges, graph.Edge{U: int32(v), W: int32(v + 1)})
			}
		}
		return n, edges
	}
}

func randomEdges(rng *rand.Rand, n, m int, multi bool) []graph.Edge {
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u, w := int32(rng.Intn(n)), int32(rng.Intn(n))
		if !multi && u == w {
			continue
		}
		edges = append(edges, graph.Edge{U: u, W: w})
	}
	if multi {
		for i := 0; i+1 < len(edges) && i < 3; i++ {
			edges = append(edges, edges[rng.Intn(len(edges))]) // parallel copies
		}
	}
	return edges
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalEdges(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// oracle is what checkPair asks for the right answers: naiveRef, or
// pathRef on graphs too large for it.
type oracle interface {
	connected(u, v int32) bool
	separates(x, u, v int32) bool
	cutsOnPath(u, v int32) []int32
	biconnected(u, v int32) bool
	twoEdgeConnected(u, v int32) bool
	bridgesOnPath(u, v int32) []graph.Edge
}

// checkPair cross-checks every Index query for one vertex pair against
// the reference.
func checkPair(t *testing.T, x *Index, na oracle, u, v int32, rng *rand.Rand) {
	t.Helper()
	if got, want := x.Connected(u, v), na.connected(u, v); got != want {
		t.Fatalf("Connected(%d,%d) = %v, want %v", u, v, got, want)
	}
	if got, want := x.TwoEdgeConnected(u, v), na.twoEdgeConnected(u, v); got != want {
		t.Fatalf("TwoEdgeConnected(%d,%d) = %v, want %v", u, v, got, want)
	}
	if u != v {
		if got, want := x.Biconnected(u, v), na.biconnected(u, v); got != want {
			t.Fatalf("Biconnected(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
	wantCuts := na.cutsOnPath(u, v)
	if got := x.CutsOnPath(u, v); !equalInt32(got, wantCuts) {
		t.Fatalf("CutsOnPath(%d,%d) = %v, want %v", u, v, got, wantCuts)
	}
	if got := x.NumCutsOnPath(u, v); got != len(wantCuts) {
		t.Fatalf("NumCutsOnPath(%d,%d) = %d, want %d", u, v, got, len(wantCuts))
	}
	wantBridges := na.bridgesOnPath(u, v)
	if got := x.BridgesOnPath(u, v); !equalEdges(got, wantBridges) {
		t.Fatalf("BridgesOnPath(%d,%d) = %v, want %v", u, v, got, wantBridges)
	}
	if got := x.NumBridgesOnPath(u, v); got != len(wantBridges) {
		t.Fatalf("NumBridgesOnPath(%d,%d) = %d, want %d", u, v, got, len(wantBridges))
	}
	// Separates against a random third vertex and against known cuts.
	c := int32(rng.Intn(x.NumVertices()))
	if got, want := x.Separates(c, u, v), na.separates(c, u, v); got != want {
		t.Fatalf("Separates(%d,%d,%d) = %v, want %v", c, u, v, got, want)
	}
	for _, c := range wantCuts {
		if !x.Separates(c, u, v) {
			t.Fatalf("Separates(%d,%d,%d) = false for an on-path cut", c, u, v)
		}
	}
}

// TestCrossRandom is the randomized cross-test: every Index query answer
// is checked against a naive BFS/recompute reference on random graphs
// including forests, multigraphs, and disconnected inputs. Run it under
// -race with GOMAXPROCS=4 (the CI race shard does) to interrogate the
// parallel build.
func TestCrossRandom(t *testing.T) {
	trials := 36
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) * 7919))
			n, edges := randomInstance(rng, trial)
			g := graph.MustFromEdges(n, edges)
			res := core.BCC(g, core.Options{Seed: uint64(trial)})
			x := New(g, res)
			na := newNaive(n, edges)

			// Aggregate invariants.
			if x.NumBlocks() != res.NumBCC {
				t.Fatalf("NumBlocks %d != NumBCC %d", x.NumBlocks(), res.NumBCC)
			}
			if got, want := x.NumCutVertices(), len(res.ArticulationPoints()); got != want {
				t.Fatalf("NumCutVertices %d != %d", got, want)
			}
			if got, want := x.NumBridges(), len(res.Bridges(g)); got != want {
				t.Fatalf("NumBridges %d != %d", got, want)
			}

			pairs := 30
			if n < 8 {
				pairs = n * n
			}
			for p := 0; p < pairs; p++ {
				u := int32(rng.Intn(n))
				v := int32(rng.Intn(n))
				if p == 0 {
					v = u // always exercise the diagonal
				}
				checkPair(t, x, na, u, v, rng)
			}
		})
	}
}

// TestConcurrentQueries hammers one shared Index from many goroutines;
// under -race this proves queries are read-only and the index is safe to
// serve concurrently.
func TestConcurrentQueries(t *testing.T) {
	g := gen.Disjoint(gen.CliqueChain(4, 5), gen.Chain(30))
	x := build(t, g, 42)
	n := x.NumVertices()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				u := int32(rng.Intn(n))
				v := int32(rng.Intn(n))
				c := int32(rng.Intn(n))
				x.Connected(u, v)
				x.Biconnected(u, v)
				x.TwoEdgeConnected(u, v)
				x.Separates(c, u, v)
				x.NumCutsOnPath(u, v)
				x.NumBridgesOnPath(u, v)
				x.CutsOnPath(u, v)
				x.BridgesOnPath(u, v)
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestConcurrentBuildsShareResult builds two indexes over one shared
// Result at once while a third goroutine reads the block-cut tree's
// parents, as the snapshot persister does. Under -race this proves NewIn
// only reads the Result, whose arrays a recovered snapshot maps
// read-only. The input has more block-cut trees than one loop block
// holds, so the loops over the roots split.
func TestConcurrentBuildsShareResult(t *testing.T) {
	g := gen.SampledGrid(120, 120, 0.4, 3)
	e := parallel.NewExec(4)
	defer e.Close()
	r := core.BCC(g, core.Options{Seed: 11, Exec: e})
	par := slices.Clone(r.BlockCutTree().Parent)
	var xs [2]*Index
	var roots int
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			xs[i] = NewIn(e, g, r)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range r.BlockCutTree().Parent {
			if p == -1 {
				roots++
			}
		}
	}()
	wg.Wait()
	if !slices.Equal(r.BlockCutTree().Parent, par) {
		t.Fatal("NewIn changed the block-cut tree's parents")
	}
	if roots <= parallel.DefaultGrain {
		t.Fatalf("%d block-cut roots, want more than %d", roots, parallel.DefaultGrain)
	}
	a, b := xs[0].Parts(), xs[1].Parts()
	for _, c := range []struct {
		name string
		a, b []int32
	}{
		{"NodeOf", a.NodeOf, b.NodeOf},
		{"BCFirst", a.BCFirst, b.BCFirst},
		{"BCDepth", a.BCDepth, b.BCDepth},
	} {
		if !slices.Equal(c.a, c.b) {
			t.Errorf("%s differs between the two concurrent builds", c.name)
		}
	}
	if a.NumBridges != b.NumBridges {
		t.Errorf("%d and %d bridges from the two concurrent builds", a.NumBridges, b.NumBridges)
	}
}

// pathRef answers naiveRef's path queries in O(n + m) per pair, for
// graphs too large for one BFS per removed vertex or edge. Whatever
// separates u from v lies on every u–v path, so on one BFS path
// P = p0..pk; and p_i (or the edge p_i p_i+1) separates them iff nothing
// jumps it: no other edge joins path vertices p_a, p_b, and no component
// of G − P attaches at both p_a and p_b, with a < i < b (a <= i < b for
// the edge, which a parallel copy also jumps). Answers are memoized per
// pair, so checking several indexes over one graph pays once.
type pathRef struct {
	*naiveRef
	memo map[[2]int32]pathAnswer
}

type pathAnswer struct {
	connected bool
	cuts      []int32
	bridges   []graph.Edge
}

func newPathRef(n int, edges []graph.Edge) *pathRef {
	return &pathRef{newNaive(n, edges), map[[2]int32]pathAnswer{}}
}

func (pr *pathRef) connected(u, v int32) bool { return pr.answer(u, v).connected }

func (pr *pathRef) cutsOnPath(u, v int32) []int32 { return pr.answer(u, v).cuts }

func (pr *pathRef) bridgesOnPath(u, v int32) []graph.Edge { return pr.answer(u, v).bridges }

func (pr *pathRef) biconnected(u, v int32) bool {
	a := pr.answer(u, v)
	return u != v && a.connected && len(a.cuts) == 0
}

func (pr *pathRef) twoEdgeConnected(u, v int32) bool {
	a := pr.answer(u, v)
	return a.connected && len(a.bridges) == 0
}

// answer returns the pair's connectivity, its separating vertices
// (sorted) and its separating edges (U < W, sorted).
func (pr *pathRef) answer(u, v int32) pathAnswer {
	if a, ok := pr.memo[[2]int32{u, v}]; ok {
		return a
	}
	a := pathAnswer{connected: u == v}
	if path := pr.bfsPath(u, v); u != v && path != nil {
		a = pathAnswer{connected: true}
		a.cuts, a.bridges = pr.sweep(path)
	}
	pr.memo[[2]int32{u, v}] = a
	return a
}

// sweep finds what jumps each interior vertex and each edge of path.
func (pr *pathRef) sweep(path []int32) ([]int32, []graph.Edge) {
	var cuts []int32
	var bridges []graph.Edge
	k := len(path) - 1
	idx := make([]int, pr.n) // path index + 1, 0 off the path
	for i, w := range path {
		idx[w] = i + 1
	}
	// Difference arrays over the path's interior vertices and its edges.
	vJump := make([]int, k+2)
	eJump := make([]int, k+2)
	mult := make([]int, k)
	jump := func(a, b int) {
		if b > a+1 {
			vJump[a+1]++
			vJump[b]--
		}
		eJump[a]++
		eJump[b]--
	}
	for _, e := range pr.edges {
		a, b := idx[e.U]-1, idx[e.W]-1
		if a < 0 || b < 0 || a == b {
			continue
		}
		a, b = min(a, b), max(a, b)
		if b == a+1 {
			mult[a]++
		} else {
			jump(a, b)
		}
	}
	// Components of G − P, each with the lowest and highest path index it
	// attaches to.
	seen := make([]bool, pr.n)
	var stack []int32
	for s := int32(0); s < int32(pr.n); s++ {
		if seen[s] || idx[s] != 0 {
			continue
		}
		lo, hi := k+1, -1
		seen[s] = true
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range pr.adj[w] {
				if i := idx[a.to] - 1; i >= 0 {
					lo, hi = min(lo, i), max(hi, i)
				} else if !seen[a.to] {
					seen[a.to] = true
					stack = append(stack, a.to)
				}
			}
		}
		if lo < hi {
			jump(lo, hi)
		}
	}
	vc, ec := 0, 0
	for i := 0; i < k; i++ {
		vc += vJump[i]
		ec += eJump[i]
		if i > 0 && vc == 0 {
			cuts = append(cuts, path[i])
		}
		if mult[i] == 1 && ec == 0 {
			bridges = append(bridges, graph.Edge{U: min(path[i], path[i+1]), W: max(path[i], path[i+1])})
		}
	}
	slices.Sort(cuts)
	slices.SortFunc(bridges, func(a, b graph.Edge) int {
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		return cmp.Compare(a.W, b.W)
	})
	return cuts, bridges
}

// bfsPath returns a shortest u–v path, u first, or nil when v is
// unreachable.
func (pr *pathRef) bfsPath(u, v int32) []int32 {
	from := make([]int32, pr.n)
	for i := range from {
		from[i] = -1
	}
	from[u] = u
	queue := []int32{u}
	for qi := 0; qi < len(queue) && from[v] == -1; qi++ {
		w := queue[qi]
		for _, a := range pr.adj[w] {
			if from[a.to] == -1 {
				from[a.to] = w
				queue = append(queue, a.to)
			}
		}
	}
	if from[v] == -1 {
		return nil
	}
	path := []int32{v}
	for w := v; w != u; w = from[w] {
		path = append(path, from[w])
	}
	slices.Reverse(path)
	return path
}

// TestPathRefMatchesNaive pins pathRef to the brute-force reference on
// TestCrossRandom's inputs, every pair.
func TestPathRefMatchesNaive(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 104729))
		n, edges := randomInstance(rng, trial)
		na := newNaive(n, edges)
		pr := newPathRef(n, edges)
		for u := int32(0); u < int32(n); u++ {
			for v := int32(0); v < int32(n); v++ {
				if got, want := pr.connected(u, v), na.connected(u, v); got != want {
					t.Fatalf("trial %d: connected(%d,%d) = %v, naive %v", trial, u, v, got, want)
				}
				if got, want := pr.cutsOnPath(u, v), na.cutsOnPath(u, v); !slices.Equal(got, want) {
					t.Fatalf("trial %d: cutsOnPath(%d,%d) = %v, naive %v", trial, u, v, got, want)
				}
				if got, want := pr.bridgesOnPath(u, v), na.bridgesOnPath(u, v); !slices.Equal(got, want) {
					t.Fatalf("trial %d: bridgesOnPath(%d,%d) = %v, naive %v", trial, u, v, got, want)
				}
				if got, want := pr.biconnected(u, v), na.biconnected(u, v); got != want {
					t.Fatalf("trial %d: biconnected(%d,%d) = %v, naive %v", trial, u, v, got, want)
				}
				if got, want := pr.twoEdgeConnected(u, v), na.twoEdgeConnected(u, v); got != want {
					t.Fatalf("trial %d: twoEdgeConnected(%d,%d) = %v, naive %v", trial, u, v, got, want)
				}
			}
		}
	}
}

// TestCrossParallel checks the index built on 1, 2 and 4 workers over
// inputs of at least 5,000 vertices, where NewIn's loops split into blocks
// and the tours are ranked from many samples: at least 100 pairs per
// input against pathRef, and the aggregate counts against Hopcroft–Tarjan.
// TestCrossRandom's inputs stay below parallel.DefaultGrain, so every
// loop there runs inline.
func TestCrossParallel(t *testing.T) {
	doubled := make([]graph.Edge, 0, 9000)
	for v := int32(0); v+1 < 6000; v++ {
		doubled = append(doubled, graph.Edge{U: v, W: v + 1})
		if v%3 != 0 {
			doubled = append(doubled, graph.Edge{U: v, W: v + 1})
		}
	}
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"sampled-grid", gen.SampledGrid(90, 90, 0.4, 3)}, // thousands of trees, ~13% isolated
		{"rmat", gen.RMAT(13, 8, 5)},
		{"path", gen.Chain(20000)},
		{"star", gen.Star(8000)},
		{"doubled-path", graph.MustFromEdges(6000, doubled)},
	}
	for _, in := range inputs {
		g, n := in.g, int32(in.g.NumVertices())
		ht := seqbcc.BCC(g)
		ref := newPathRef(int(n), g.Edges())
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/p=%d", in.name, p), func(t *testing.T) {
				e := parallel.NewExec(p)
				defer e.Close()
				x := NewIn(e, g, core.BCC(g, core.Options{Seed: 11, Exec: e}))
				if x.NumBlocks() != ht.NumBCC() || x.NumCutVertices() != len(ht.ArticulationPoints()) ||
					x.NumBridges() != len(ht.Bridges()) {
					t.Fatalf("blocks/cuts/bridges = %d/%d/%d, Hopcroft–Tarjan %d/%d/%d",
						x.NumBlocks(), x.NumCutVertices(), x.NumBridges(),
						ht.NumBCC(), len(ht.ArticulationPoints()), len(ht.Bridges()))
				}
				// Half the pairs are uniform; the other half end a random
				// walk from u, so sparse inputs see connected pairs too.
				rng := rand.New(rand.NewSource(int64(n)))
				for i := 0; i < 120; i++ {
					u, v := int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))
					if i%2 == 1 {
						v = u
						for steps := rng.Intn(400); steps > 0 && len(ref.adj[v]) > 0; steps-- {
							v = ref.adj[v][rng.Intn(len(ref.adj[v]))].to
						}
					}
					checkPair(t, x, ref, u, v, rng)
				}
			})
		}
	}
}
