package fastbcc

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// materializeReference is the map-based materialization the CSR patch
// replaced: count every edge of base plus overlay in a map, replay the
// ordered deltas against the counts (saturating deletes), and rebuild the
// CSR from the whole edge list. materializeGraph must reproduce it byte
// for byte, errors included.
func materializeReference(base *Graph, overlay []Edge, deltas []edgeDelta) (*Graph, error) {
	counts := map[Edge]int{}
	for _, ed := range append(base.Edges(), overlay...) {
		counts[canonEdge(ed)]++
	}
	for _, d := range deltas {
		ed := canonEdge(d.e)
		if d.add {
			counts[ed]++
		} else if counts[ed] > 0 {
			counts[ed]--
		}
	}
	var out []Edge
	for ed, c := range counts {
		for ; c > 0; c-- {
			out = append(out, ed)
		}
	}
	return graph.FromEdges(base.NumVertices(), out)
}

// diffMaterialize checks materializeGraph against the reference and
// returns its graph (nil when both fail).
func diffMaterialize(t testing.TB, base *Graph, overlay []Edge, deltas []edgeDelta) *Graph {
	t.Helper()
	want, werr := materializeReference(base, overlay, deltas)
	got, gerr := materializeGraph(nil, base, overlay, deltas)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("materializeGraph error %v, reference error %v", gerr, werr)
	}
	if werr != nil {
		return nil
	}
	if got.N != want.N || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Adj, want.Adj) {
		t.Fatalf("materializeGraph CSR differs from the reference:\ngot  %v %v\nwant %v %v", got.Offsets, got.Adj, want.Offsets, want.Adj)
	}
	return got
}

func add(u, w int32) edgeDelta { return edgeDelta{add: true, e: Edge{U: u, W: w}} }
func del(u, w int32) edgeDelta { return edgeDelta{e: Edge{U: u, W: w}} }

// edges pairs up its arguments into an edge list.
func edges(uw ...int32) []Edge {
	out := make([]Edge, 0, len(uw)/2)
	for i := 0; i+1 < len(uw); i += 2 {
		out = append(out, Edge{U: uw[i], W: uw[i+1]})
	}
	return out
}

// MaterializeDeletion materializes g plus one queued deletion of e, the
// flush the allocation guard measures.
func MaterializeDeletion(g *Graph, e Edge) (*Graph, error) {
	return materializeGraph(nil, g, nil, []edgeDelta{{e: canonEdge(e)}})
}

func TestMaterializeCases(t *testing.T) {
	// A triangle with a doubled edge and a self-loop, plus a pendant path.
	base := graph.MustFromEdges(6, edges(0, 1, 1, 0, 1, 2, 2, 0, 2, 2, 2, 3, 3, 4))
	for _, tc := range []struct {
		name    string
		overlay []Edge
		deltas  []edgeDelta
		edges   int // -1: must fail
	}{
		{"nothing to apply", nil, nil, 7},
		{"delete an absent edge", nil, []edgeDelta{del(0, 5)}, 7},
		{"delete then add", nil, []edgeDelta{del(4, 5), add(5, 4)}, 8},
		{"add then delete", nil, []edgeDelta{add(4, 5), del(5, 4)}, 7},
		{"delete saturates", nil, []edgeDelta{del(1, 0), del(0, 1), del(0, 1), add(0, 1)}, 6},
		{"self-loop churn", nil, []edgeDelta{del(2, 2), del(2, 2), add(2, 2), add(5, 5)}, 8},
		{"overlay only", edges(0, 1, 4, 3), nil, 9},
		{"overlay edge deleted", edges(5, 4), []edgeDelta{del(4, 5)}, 7},
		{"overlay copy plus base copies deleted", edges(1, 0), []edgeDelta{del(0, 1), del(0, 1), del(1, 0), del(0, 1)}, 5},
		{"vertex loses every arc", nil, []edgeDelta{del(2, 1), del(0, 2), del(2, 2), del(3, 2)}, 3},
		{"out-of-range add", nil, []edgeDelta{add(0, 6)}, -1},
		{"negative add", edges(-1, 2), nil, -1},
		{"out-of-range delete is a no-op", nil, []edgeDelta{del(6, 0), del(-3, 1)}, 7},
		{"out-of-range add then delete", nil, []edgeDelta{add(9, 1), del(1, 9)}, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := diffMaterialize(t, base, tc.overlay, tc.deltas)
			switch {
			case tc.edges < 0 && g != nil:
				t.Fatalf("materialized %d edges, want an error", g.NumEdges())
			case tc.edges >= 0 && (g == nil || g.NumEdges() != tc.edges):
				t.Fatalf("materialized %v, want %d edges", g, tc.edges)
			}
		})
	}
	// An empty graph has nothing to delete and no vertex to add to.
	empty := graph.MustFromEdges(0, nil)
	diffMaterialize(t, empty, nil, []edgeDelta{del(0, 0)})
	if g := diffMaterialize(t, empty, nil, []edgeDelta{add(0, 0)}); g != nil {
		t.Fatal("add on an empty graph materialized")
	}
}

// TestMaterializeMatchesReference diffs random ordered add/delete
// sequences — over few vertices, so most deltas hit edges that the base,
// the overlay, or an earlier delta already holds — against the reference.
func TestMaterializeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(24)
		pick := func() Edge { return Edge{U: int32(rng.Intn(n)), W: int32(rng.Intn(n))} }
		base := make([]Edge, rng.Intn(3*n))
		for i := range base {
			base[i] = pick()
		}
		overlay := make([]Edge, rng.Intn(4))
		for i := range overlay {
			overlay[i] = pick()
		}
		deltas := make([]edgeDelta, rng.Intn(40))
		for i := range deltas {
			e := pick()
			if len(base) > 0 && rng.Intn(2) == 0 {
				e = base[rng.Intn(len(base))]
			}
			if rng.Intn(2) == 0 {
				e.U, e.W = e.W, e.U
			}
			deltas[i] = edgeDelta{add: rng.Intn(3) == 0, e: e}
		}
		diffMaterialize(t, graph.MustFromEdges(n, base), overlay, deltas)
	}
}

// FuzzMaterialize decodes 3-byte records — kind, u, w — into base edges,
// overlay edges, and ordered add/delete deltas over at most 16 vertices
// (overlay and delta endpoints may fall outside the graph) and diffs
// materializeGraph against the reference.
func FuzzMaterialize(f *testing.F) {
	f.Add([]byte{6, 0, 0, 1, 0, 1, 2, 0, 1, 2, 1, 2, 1, 2, 2, 2, 3, 4, 2, 3, 4, 3, 0, 1, 2, 5, 5})
	f.Add([]byte{4, 0, 1, 2, 3, 0, 1, 2, 4, 1, 3, 1, 0, 3, 3, 2, 3, 1, 3})
	f.Add([]byte{0, 2, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// 64 records cover every case; longer inputs only slow the search.
		if len(data) == 0 || len(data) > 1+3*64 {
			return
		}
		n := int(data[0] % 17)
		var base, overlay []Edge
		var deltas []edgeDelta
		for rec := data[1:]; len(rec) >= 3; rec = rec[3:] {
			e := Edge{U: int32(rec[1]%24) - 4, W: int32(rec[2]%24) - 4}
			switch rec[0] % 4 {
			case 0:
				if n > 0 {
					base = append(base, Edge{U: int32(rec[1]) % int32(n), W: int32(rec[2]) % int32(n)})
				}
			case 1:
				overlay = append(overlay, e)
			default:
				deltas = append(deltas, edgeDelta{add: rec[0]%4 == 2, e: e})
			}
		}
		diffMaterialize(t, graph.MustFromEdges(n, base), overlay, deltas)
	})
}
