package graph

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/parallel"
)

// arcChange is a net change of c copies (negative: removals) of the arc
// src→dst.
type arcChange struct {
	src, dst V
	c        int32
}

// touched is one vertex a patch changes: its first entry in the sorted
// change list, and the arcs gained (negative: lost) by every touched
// vertex below it — the amount its old offset shifts by.
type touched struct {
	v            V
	first, shift int
}

// Multiplicity returns how many times the undirected edge {u,w} occurs in
// g (a self-loop counts once per two arcs), or 0 when an endpoint lies
// outside [0, N). Binary search; adjacency lists are sorted.
func (g *Graph) Multiplicity(u, w V) int {
	if u < 0 || u >= g.N || w < 0 || w >= g.N {
		return 0
	}
	c := countSorted(g.Neighbors(u), w)
	if u == w {
		c /= 2
	}
	return c
}

// countSorted returns the number of occurrences of x in the sorted a.
func countSorted(a []V, x V) int {
	lo, _ := slices.BinarySearch(a, x)
	hi := lo
	for hi < len(a) && a[hi] == x {
		hi++
	}
	return hi - lo
}

// PatchIn returns a new graph holding g's edge multiset plus adds minus
// dels, running on the execution context e (nil = default). The result is
// exactly the CSR FromEdgesIn builds from that multiset — sorted neighbor
// lists, a self-loop stored as two arcs — but the edges g already holds
// are never re-scattered: the adjacency of every vertex no change touches
// moves in bulk copies, shifted by the arcs gained or lost below it, and
// each touched vertex's sorted list is merged with its sorted changes. The
// work beyond one parallel copy of g is proportional to the touched lists.
//
// Each edge in dels removes one occurrence from g ⊎ adds; removing an
// occurrence that is not there is an error, as are an endpoint outside
// [0, N) and a result beyond int32 arc capacity. g's neighbor lists must be
// sorted, as every constructor in this package leaves them (a touched list
// that is not is an error). The result never aliases g.
func PatchIn(e *parallel.Exec, g *Graph, adds, dels []Edge) (*Graph, error) {
	n := int(g.N)
	arcs := int64(len(g.Adj)) + 2*int64(len(adds)) - 2*int64(len(dels))
	if arcs >= 1<<31 {
		return nil, fmt.Errorf("graph: %d edges exceeds int32 arc capacity", arcs/2)
	}
	// Both arcs of every edge, sorted by (src, dst) and netted per arc.
	ch := make([]arcChange, 0, 2*(len(adds)+len(dels)))
	for i, es := range [2][]Edge{adds, dels} {
		c := int32(1 - 2*i)
		for _, ed := range es {
			if ed.U < 0 || int(ed.U) >= n || ed.W < 0 || int(ed.W) >= n {
				return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", ed.U, ed.W, n)
			}
			ch = append(ch, arcChange{ed.U, ed.W, c}, arcChange{ed.W, ed.U, c})
		}
	}
	slices.SortFunc(ch, func(a, b arcChange) int {
		if a.src != b.src {
			return cmp.Compare(a.src, b.src)
		}
		return cmp.Compare(a.dst, b.dst)
	})
	k := 0
	for _, c := range ch {
		if k > 0 && ch[k-1].src == c.src && ch[k-1].dst == c.dst {
			ch[k-1].c += c.c
		} else {
			ch[k] = c
			k++
		}
	}
	ch = slices.DeleteFunc(ch[:k], func(c arcChange) bool { return c.c == 0 })

	// The touched vertices in order, closed by a sentinel at n. Checking
	// every removal here leaves the parallel pass without failure paths.
	ts := make([]touched, 0, len(ch)+1)
	shift := 0
	for i := 0; i < len(ch); {
		v := ch[i].src
		nb := g.Neighbors(v)
		if !slices.IsSorted(nb) {
			return nil, fmt.Errorf("graph: neighbor list of %d is not sorted", v)
		}
		ts = append(ts, touched{v: v, first: i, shift: shift})
		for ; i < len(ch) && ch[i].src == v; i++ {
			c := ch[i]
			if c.c < 0 && countSorted(nb, c.dst) < int(-c.c) {
				return nil, fmt.Errorf("graph: patch removes absent edge (%d,%d)", v, c.dst)
			}
			shift += int(c.c)
		}
	}
	ts = append(ts, touched{v: V(n), first: len(ch), shift: shift})

	offsets := make([]int32, n+1)
	adj := make([]V, arcs)
	e.ForBlock(n, parallel.DefaultGrain, func(lo, hi int) {
		i, _ := slices.BinarySearchFunc(ts, V(lo), func(t touched, v V) int { return cmp.Compare(t.v, v) })
		for v := lo; v < hi; {
			t := ts[i]
			if end := min(int(t.v), hi); v < end {
				s := int32(t.shift)
				for x := v; x < end; x++ {
					offsets[x] = g.Offsets[x] + s
				}
				copy(adj[g.Offsets[v]+s:g.Offsets[end]+s], g.Adj[g.Offsets[v]:g.Offsets[end]])
				v = end
				continue
			}
			offsets[v] = g.Offsets[v] + int32(t.shift)
			next := ts[i+1]
			mergeArcs(adj[offsets[v]:g.Offsets[v+1]+int32(next.shift)], g.Neighbors(V(v)), ch[t.first:next.first])
			v++
			i++
		}
	})
	offsets[n] = int32(arcs)
	return &Graph{N: g.N, Offsets: offsets, Adj: adj}, nil
}

// mergeArcs writes the sorted list old with the net changes ch (sorted by
// dst, every removal present in old) applied into dst, which has exactly
// the resulting length.
func mergeArcs(dst, old []V, ch []arcChange) {
	o, j := 0, 0
	for _, c := range ch {
		k, _ := slices.BinarySearch(old[j:], c.dst)
		k += j
		o += copy(dst[o:], old[j:k])
		j = k
		if c.c < 0 {
			j -= int(c.c)
			continue
		}
		for r := int32(0); r < c.c; r++ {
			dst[o] = c.dst
			o++
		}
	}
	copy(dst[o:], old[j:])
}
