package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func pathGraph(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{V(i), V(i + 1)})
	}
	return MustFromEdges(n, edges)
}

func cycleGraph(n int) *Graph {
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{V(i), V((i + 1) % n)})
	}
	return MustFromEdges(n, edges)
}

func TestFromEdgesBasic(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if g.NumVertices() != 4 || g.NumEdges() != 5 || g.NumArcs() != 10 {
		t.Fatalf("n=%d m=%d arcs=%d", g.NumVertices(), g.NumEdges(), g.NumArcs())
	}
	if g.Degree(0) != 3 || g.Degree(1) != 2 {
		t.Fatalf("degrees: %d %d", g.Degree(0), g.Degree(1))
	}
	nb := g.Neighbors(0)
	if len(nb) != 3 || nb[0] != 1 || nb[1] != 2 || nb[2] != 3 {
		t.Fatalf("neighbors(0) = %v", nb)
	}
}

func TestFromEdgesEmpty(t *testing.T) {
	g := MustFromEdges(0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph wrong")
	}
	g = MustFromEdges(5, nil)
	if g.NumVertices() != 5 || g.NumEdges() != 0 {
		t.Fatal("edgeless graph wrong")
	}
	for v := V(0); v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Fatalf("degree(%d) = %d", v, g.Degree(v))
		}
	}
}

func TestFromEdgesValidation(t *testing.T) {
	if _, err := FromEdges(-1, nil); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := FromEdges(3, []Edge{{0, 3}}); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if _, err := FromEdges(3, []Edge{{-1, 0}}); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	// Past a list's first non-canonical edge only the range is checked.
	if _, err := FromEdges(3, []Edge{{1, 0}, {0, 3}}); err == nil {
		t.Fatal("out-of-range endpoint after an inversion accepted")
	}
}

func TestSelfLoopAndMultiEdge(t *testing.T) {
	g := MustFromEdges(2, []Edge{{0, 0}, {0, 1}, {0, 1}})
	if g.Degree(0) != 4 { // self-loop counts twice + two multi-edges
		t.Fatalf("degree(0) = %d, want 4", g.Degree(0))
	}
}

func TestHasEdge(t *testing.T) {
	g := cycleGraph(10)
	if !g.HasEdge(0, 1) || !g.HasEdge(9, 0) {
		t.Fatal("missing cycle edges")
	}
	if g.HasEdge(0, 5) {
		t.Fatal("phantom edge")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 50
	var edges []Edge
	for i := 0; i < 120; i++ {
		u, w := V(rng.Intn(n)), V(rng.Intn(n))
		if u > w {
			u, w = w, u
		}
		if u != w {
			edges = append(edges, Edge{u, w})
		}
	}
	g := MustFromEdges(n, edges)
	back := g.Edges()
	if len(back) != len(edges) {
		t.Fatalf("edge count: got %d want %d", len(back), len(edges))
	}
	g2 := MustFromEdges(n, back)
	if g2.NumArcs() != g.NumArcs() {
		t.Fatal("round trip changed arc count")
	}
	for v := V(0); v < V(n); v++ {
		nb1, nb2 := g.Neighbors(v), g2.Neighbors(v)
		if len(nb1) != len(nb2) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range nb1 {
			if nb1[i] != nb2[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
}

func TestMaxDegree(t *testing.T) {
	g := MustFromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if g.MaxDegree() != 4 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if MustFromEdges(3, nil).MaxDegree() != 0 {
		t.Fatal("empty MaxDegree != 0")
	}
}

func TestBFSPath(t *testing.T) {
	n := 1000
	g := pathGraph(n)
	r := BFS(g, 0)
	if r.Depth != int32(n-1) {
		t.Fatalf("depth = %d, want %d", r.Depth, n-1)
	}
	for v := 0; v < n; v++ {
		if r.Level[v] != int32(v) {
			t.Fatalf("level[%d] = %d", v, r.Level[v])
		}
		if v > 0 && r.Parent[v] != V(v-1) {
			t.Fatalf("parent[%d] = %d", v, r.Parent[v])
		}
	}
	if r.Parent[0] != 0 {
		t.Fatal("source parent must be itself")
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}})
	r := BFS(g, 0)
	if r.Parent[2] != -1 || r.Level[3] != -1 {
		t.Fatal("unreachable vertices must stay -1")
	}
	if ConnectedBFS(g) {
		t.Fatal("graph is disconnected")
	}
	if !ConnectedBFS(cycleGraph(5)) {
		t.Fatal("cycle is connected")
	}
}

func TestBFSLevelsValid(t *testing.T) {
	// Property: for every edge (u,w) in a connected graph, |level u - level w| <= 1.
	rng := rand.New(rand.NewSource(2))
	n := 300
	edges := make([]Edge, 0, 3*n)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{V(rng.Intn(i)), V(i)}) // random tree: connected
	}
	for i := 0; i < 2*n; i++ {
		edges = append(edges, Edge{V(rng.Intn(n)), V(rng.Intn(n))})
	}
	g := MustFromEdges(n, edges)
	r := BFS(g, 0)
	for v := V(0); v < g.N; v++ {
		for _, w := range g.Neighbors(v) {
			d := r.Level[v] - r.Level[w]
			if d < -1 || d > 1 {
				t.Fatalf("edge (%d,%d) levels %d,%d", v, w, r.Level[v], r.Level[w])
			}
		}
		if v != 0 {
			p := r.Parent[v]
			if r.Level[v] != r.Level[p]+1 {
				t.Fatalf("parent level broken at %d", v)
			}
			if !g.HasEdge(v, p) {
				t.Fatalf("parent edge (%d,%d) not in graph", v, p)
			}
		}
	}
}

func TestApproxDiameter(t *testing.T) {
	if d := ApproxDiameter(pathGraph(100), 50); d != 99 {
		t.Fatalf("path diameter = %d, want 99", d)
	}
	if d := ApproxDiameter(cycleGraph(10), 0); d != 5 {
		t.Fatalf("cycle diameter = %d, want 5", d)
	}
	empty := MustFromEdges(0, nil)
	if d := ApproxDiameter(empty, 0); d != 0 {
		t.Fatalf("empty diameter = %d", d)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := cycleGraph(123)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || len(g2.Adj) != len(g.Adj) {
		t.Fatal("shape mismatch")
	}
	for i := range g.Adj {
		if g.Adj[i] != g2.Adj[i] {
			t.Fatalf("adj mismatch at %d", i)
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte{1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0})); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := MustFromEdges(6, []Edge{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 3}})
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 6 || g2.NumEdges() != 5 {
		t.Fatalf("round trip: n=%d m=%d", g2.NumVertices(), g2.NumEdges())
	}
	if !g2.HasEdge(5, 3) || g2.HasEdge(0, 5) {
		t.Fatal("edges corrupted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	g := pathGraph(10)
	path := t.TempDir() + "/g.bin"
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 9 {
		t.Fatal("file round trip lost edges")
	}
}

func TestBFSQuickTreeDepth(t *testing.T) {
	// On a random tree, depth from root 0 equals the max sequentially
	// computed distance.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		parent := make([]int, n)
		edges := make([]Edge, 0, n-1)
		for i := 1; i < n; i++ {
			parent[i] = rng.Intn(i)
			edges = append(edges, Edge{V(parent[i]), V(i)})
		}
		g := MustFromEdges(n, edges)
		depth := make([]int32, n)
		var maxD int32
		for i := 1; i < n; i++ {
			depth[i] = depth[parent[i]] + 1
			if depth[i] > maxD {
				maxD = depth[i]
			}
		}
		r := BFS(g, 0)
		if r.Depth != maxD {
			return false
		}
		for i := 0; i < n; i++ {
			if r.Level[i] != depth[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
