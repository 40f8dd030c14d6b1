// Package rmq implements a space-efficient parallel range-minimum
// structure over an int32 array.
//
// The paper's Tagging step computes low[v]/high[v] with n 1-D range queries
// over the Euler-tour-ordered w1/w2 arrays (Sec. 4.1). A plain sparse table
// is O(n log n) words; to keep the whole algorithm O(n) auxiliary space we
// use the standard block decomposition: the array is cut into blocks of size
// B, each block stores prefix- and suffix-minima, and a sparse table is built
// over the n/B block minima. Queries are O(1); construction is O(n) work and
// O(log n) span (parallel over blocks and table levels).
//
// There is one kernel, for minima, and it compares with < inline. A range
// maximum is a range minimum over the bitwise complements: ^x = -x-1
// reverses the order of int32 values and cannot overflow, so
// max(a[lo..hi]) = ^min(^a[lo..hi]). Tagging stores ^w2 and queries that.
package rmq

import (
	"math/bits"

	"repro/internal/parallel"
	"repro/internal/prim"
)

// blockSize is the block length B. With B = 64 the sparse table over blocks
// costs (n/64)·log2(n/64) words, well under n for any realistic n.
const blockSize = 64

// Min answers range-minimum queries over a fixed array.
type Min struct {
	a      []int32
	prefix []int32 // prefix[i] = min of a[blockStart(i) .. i]
	suffix []int32 // suffix[i] = min of a[i .. blockEnd(i))
	table  [][]int32
}

// NewMin builds a range-minimum structure over a. The array is retained
// (not copied) and must not change while queries are made.
func NewMin(a []int32) *Min { return NewMinIn(nil, a) }

// NewMinIn is NewMin building on the execution context e (nil = default).
func NewMinIn(e *parallel.Exec, a []int32) *Min {
	return NewMinArena(e, a, nil)
}

// NewMinArena is NewMinIn drawing the prefix/suffix/table arrays from the
// arena ar (nil = plain allocation). An arena-built structure must be
// released with Free once the last query has completed.
func NewMinArena(e *parallel.Exec, a []int32, ar prim.Arena) *Min {
	m := &Min{a: a}
	m.build(e, ar)
	return m
}

// Free returns the structure's internal arrays to ar and invalidates the
// structure; it must only be called on arena-built structures, with the
// arena they were built from, after their last query.
func (m *Min) Free(ar prim.Arena) {
	if m.prefix == nil {
		return
	}
	bufs := append(make([][]int32, 0, len(m.table)+2), m.prefix, m.suffix)
	bufs = append(bufs, m.table...)
	ar.PutInt32(bufs...)
	m.a, m.prefix, m.suffix, m.table = nil, nil, nil, nil
}

// getBuf returns a length-n buffer from ar, or a plain allocation when ar
// is nil. Every element is overwritten by build, so no zeroing is needed.
func getBuf(ar prim.Arena, n int) []int32 {
	if ar == nil {
		return make([]int32, n)
	}
	return ar.GetInt32(n)
}

func (m *Min) build(e *parallel.Exec, ar prim.Arena) {
	n := len(m.a)
	if n == 0 {
		return
	}
	nb := (n + blockSize - 1) / blockSize
	m.prefix = getBuf(ar, n)
	m.suffix = getBuf(ar, n)
	blockMin := getBuf(ar, nb)
	e.ForBlock(nb, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo := b * blockSize
			hi := lo + blockSize
			if hi > n {
				hi = n
			}
			best := m.a[lo]
			for i := lo; i < hi; i++ {
				best = min(best, m.a[i])
				m.prefix[i] = best
			}
			best = m.a[hi-1]
			for i := hi - 1; i >= lo; i-- {
				best = min(best, m.a[i])
				m.suffix[i] = best
			}
			blockMin[b] = m.prefix[hi-1]
		}
	})
	levels := 1
	if nb > 1 {
		levels = bits.Len(uint(nb)) // floor(log2(nb)) + 1
	}
	m.table = make([][]int32, levels)
	m.table[0] = blockMin
	for l := 1; l < levels; l++ {
		span := 1 << l
		width := nb - span + 1
		if width <= 0 {
			m.table = m.table[:l]
			break
		}
		cur := getBuf(ar, width)
		prev := m.table[l-1]
		half := span / 2
		e.ForBlock(width, 2048, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				cur[i] = min(prev[i], prev[i+half])
			}
		})
		m.table[l] = cur
	}
}

// Query returns the minimum of a[lo..hi] (inclusive on both ends).
func (m *Min) Query(lo, hi int) int32 {
	if lo > hi {
		panic("rmq: empty query range")
	}
	bl, bh := lo/blockSize, hi/blockSize
	if bl == bh {
		// Within a single block: linear scan of at most blockSize elements
		// would be O(B); instead combine suffix(lo) limited by hi using a
		// short scan. B is a small constant so this stays O(B) worst case,
		// but the common full-prefix/suffix cases below are O(1).
		best := m.a[lo]
		for i := lo + 1; i <= hi; i++ {
			best = min(best, m.a[i])
		}
		return best
	}
	// The rest of lo's block and the start of hi's block.
	best := min(m.suffix[lo], m.prefix[hi])
	if bh-bl >= 2 {
		l := bits.Len(uint(bh-bl-1)) - 1 // floor(log2(#middle blocks))
		t := m.table[l]
		best = min(best, t[bl+1], t[bh-(1<<l)])
	}
	return best
}
