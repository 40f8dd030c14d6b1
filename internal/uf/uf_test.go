package uf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

func TestUFBasic(t *testing.T) {
	u := New(5)
	if u.Len() != 5 {
		t.Fatal("len wrong")
	}
	if !u.Union(0, 1) {
		t.Fatal("first union must merge")
	}
	if u.Union(1, 0) {
		t.Fatal("repeat union must not merge")
	}
	if !u.SameSet(0, 1) || u.SameSet(0, 2) {
		t.Fatal("membership wrong")
	}
	if !u.Union(2, 3) || !u.Union(0, 3) {
		t.Fatal("unions failed")
	}
	if !u.SameSet(1, 2) {
		t.Fatal("transitive membership broken")
	}
	if u.SameSet(4, 0) {
		t.Fatal("4 should be alone")
	}
}

func TestUFMatchesSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 1000
	u, s := New(n), NewSeq(n)
	for i := 0; i < 3000; i++ {
		x, y := int32(rng.Intn(n)), int32(rng.Intn(n))
		gotU := u.Union(x, y)
		gotS := s.Union(x, y)
		if gotU != gotS {
			t.Fatalf("union(%d,%d): concurrent=%v seq=%v", x, y, gotU, gotS)
		}
	}
	for i := 0; i < 2000; i++ {
		x, y := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u.SameSet(x, y) != s.SameSet(x, y) {
			t.Fatalf("sameset(%d,%d) disagree", x, y)
		}
	}
}

func TestUFConcurrentChainMerge(t *testing.T) {
	// Union i with i+1 for all i concurrently: exactly n-1 successful
	// unions, and everything ends in one set.
	n := 100000
	u := New(n)
	var succ = make([]bool, n-1)
	parallel.For(n-1, func(i int) {
		succ[i] = u.Union(int32(i), int32(i+1))
	})
	count := 0
	for _, b := range succ {
		if b {
			count++
		}
	}
	if count != n-1 {
		t.Fatalf("successful unions = %d, want %d", count, n-1)
	}
	root := u.Find(0)
	for i := 1; i < n; i += 997 {
		if u.Find(int32(i)) != root {
			t.Fatalf("element %d not merged", i)
		}
	}
}

func TestUFConcurrentRandomSpanningForestCount(t *testing.T) {
	// Property: number of successful unions == n - (#components), i.e.
	// successful-union edges form a spanning forest.
	rng := rand.New(rand.NewSource(2))
	n := 5000
	m := 20000
	type pair struct{ x, y int32 }
	edges := make([]pair, m)
	for i := range edges {
		edges[i] = pair{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	u := New(n)
	succ := make([]bool, m)
	parallel.For(m, func(i int) {
		succ[i] = u.Union(edges[i].x, edges[i].y)
	})
	// Reference component count.
	s := NewSeq(n)
	for _, e := range edges {
		s.Union(e.x, e.y)
	}
	wantMerges := n - s.NumSets()
	got := 0
	for _, b := range succ {
		if b {
			got++
		}
	}
	if got != wantMerges {
		t.Fatalf("successful unions = %d, want %d", got, wantMerges)
	}
	// And the successful edges alone must reproduce the same partition.
	s2 := NewSeq(n)
	for i, e := range edges {
		if succ[i] {
			s2.Union(e.x, e.y)
		}
	}
	for i := 0; i < 2000; i++ {
		x, y := int32(rng.Intn(n)), int32(rng.Intn(n))
		if s.SameSet(x, y) != s2.SameSet(x, y) {
			t.Fatal("successful-union edges are not a spanning forest")
		}
	}
}

func TestSeqNumSets(t *testing.T) {
	s := NewSeq(6)
	if s.NumSets() != 6 {
		t.Fatal("initial sets wrong")
	}
	s.Union(0, 1)
	s.Union(2, 3)
	s.Union(0, 3)
	if s.NumSets() != 3 {
		t.Fatalf("sets = %d, want 3", s.NumSets())
	}
	s.Union(1, 2) // already same
	if s.NumSets() != 3 {
		t.Fatal("no-op union changed count")
	}
}

func TestSeqQuickTransitivity(t *testing.T) {
	f := func(ops []uint16) bool {
		n := 64
		s := NewSeq(n)
		for _, op := range ops {
			s.Union(int32(op%uint16(n)), int32((op/uint16(n))%uint16(n)))
		}
		// Transitivity spot check.
		for a := int32(0); a < 8; a++ {
			for b := int32(0); b < 8; b++ {
				for c := int32(0); c < 8; c++ {
					if s.SameSet(a, b) && s.SameSet(b, c) && !s.SameSet(a, c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUFSingleton(t *testing.T) {
	u := New(1)
	if u.Find(0) != 0 {
		t.Fatal("singleton find broken")
	}
	if u.Union(0, 0) {
		t.Fatal("self union must be false")
	}
}
