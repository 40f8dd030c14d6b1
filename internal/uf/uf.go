// Package uf provides union-find (disjoint sets) structures.
//
// UF is a lock-free concurrent union-find in the style of Jayanti, Tarjan,
// and Boix-Adserà ("Randomized concurrent set union and generalized
// wake-up", PODC 2019): finds use path halving with CAS writes, and unions
// link roots with a CAS so that every successful link merges two previously
// disjoint sets. This is the structure the LDD-UF-JTB connectivity
// algorithm of the paper (Thm. 5.1) relies on.
//
// A union links the smaller root under the larger, so every set is rooted
// at its largest member whatever the order of the unions. The order still
// sets the cost: a loop that unions forest-parent edges (v, parent(v))
// visits v from the top id down, so v joins under the root its parent's
// set already has; walking ids upward makes most unions crown v as a new
// root above the old one, and concurrent workers then contend on one
// growing root path.
//
// Seq is the classic sequential union-by-size structure used by the
// verifiers and baselines.
package uf

import "sync/atomic"

// UF is a concurrent union-find over elements 0..n-1. All methods are safe
// for concurrent use.
type UF struct {
	parent []int32
}

// New returns a concurrent union-find with n singleton sets.
func New(n int) *UF {
	u := &UF{parent: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Wrap returns a concurrent union-find backed by the caller's buffer, which
// must already hold parent[i] == i for every i (callers with a parallel
// iota primitive initialize it themselves to recycle scratch memory). The
// buffer is owned by the UF until the caller is done with all operations.
func Wrap(parent []int32) *UF { return &UF{parent: parent} }

// Len returns the number of elements.
func (u *UF) Len() int { return len(u.parent) }

// Find returns the representative of x's set, compressing the path by
// halving. Concurrent finds and unions may run simultaneously.
func (u *UF) Find(x int32) int32 {
	for {
		p := atomic.LoadInt32(&u.parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&u.parent[p])
		if gp == p {
			return p
		}
		// Path halving: splice x to its grandparent. A failed CAS just
		// means someone else already improved the path.
		atomic.CompareAndSwapInt32(&u.parent[x], p, gp)
		x = gp
	}
}

// Union merges the sets of x and y. It returns true iff this call performed
// the link that merged two previously distinct sets — under concurrency,
// exactly one Union call returns true per merged pair of sets, which lets
// callers harvest a spanning forest from the edges whose Union succeeded.
// It links the smaller root under the larger, so every set stays rooted at
// its largest member; a loop that unions forest-parent edges visits ids
// downward, so each vertex joins under a root its parent's set already has.
func (u *UF) Union(x, y int32) bool {
	for {
		rx, ry := u.Find(x), u.Find(y)
		if rx == ry {
			return false
		}
		// Deterministic linking order (smaller root under larger) avoids
		// livelock: concurrent links agree on direction.
		if rx > ry {
			rx, ry = ry, rx
		}
		if atomic.CompareAndSwapInt32(&u.parent[rx], rx, ry) {
			return true
		}
	}
}

// SameSet reports whether x and y are currently in the same set. Only
// meaningful once all concurrent unions are complete.
func (u *UF) SameSet(x, y int32) bool { return u.Find(x) == u.Find(y) }

// Seq is a sequential union-find with union by size and path compression.
type Seq struct {
	parent []int32
	size   []int32
	sets   int
}

// NewSeq returns a sequential union-find with n singleton sets.
func NewSeq(n int) *Seq {
	s := &Seq{parent: make([]int32, n), size: make([]int32, n), sets: n}
	for i := range s.parent {
		s.parent[i] = int32(i)
		s.size[i] = 1
	}
	return s
}

// Find returns the representative of x's set.
func (s *Seq) Find(x int32) int32 {
	root := x
	for s.parent[root] != root {
		root = s.parent[root]
	}
	for s.parent[x] != root {
		s.parent[x], x = root, s.parent[x]
	}
	return root
}

// Union merges the sets of x and y; returns true if they were distinct.
func (s *Seq) Union(x, y int32) bool {
	rx, ry := s.Find(x), s.Find(y)
	if rx == ry {
		return false
	}
	if s.size[rx] < s.size[ry] {
		rx, ry = ry, rx
	}
	s.parent[ry] = rx
	s.size[rx] += s.size[ry]
	s.sets--
	return true
}

// NumSets returns the current number of disjoint sets.
func (s *Seq) NumSets() int { return s.sets }

// SameSet reports whether x and y are in the same set.
func (s *Seq) SameSet(x, y int32) bool { return s.Find(x) == s.Find(y) }
