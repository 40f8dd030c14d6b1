// Package prim implements the parallel primitives the paper's algorithms are
// built from: prefix sums (scan), filter/pack, stable counting sort, semisort
// by integer key, a deterministic seeded RNG, and the Appender through which
// parallel blocks fill one shared output buffer.
package prim

import (
	"repro/internal/parallel"
)

// scanBlock is the block size used by the two-pass parallel scans.
const scanBlock = 4096

// ExclusiveScanInt32 replaces a with its exclusive prefix sum and returns the
// total. a[i] becomes sum of the original a[0..i).
func ExclusiveScanInt32(a []int32) int32 {
	return ExclusiveScanInt32In(nil, a)
}

// ExclusiveScanInt32In is ExclusiveScanInt32 running on the execution
// context e (nil = default).
func ExclusiveScanInt32In(e *parallel.Exec, a []int32) int32 {
	n := len(a)
	if n == 0 {
		return 0
	}
	if n <= scanBlock || e.Procs() == 1 {
		var s int32
		for i := 0; i < n; i++ {
			v := a[i]
			a[i] = s
			s += v
		}
		return s
	}
	nb := (n + scanBlock - 1) / scanBlock
	sums := make([]int32, nb)
	e.ForBlock(nb, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*scanBlock, (b+1)*scanBlock
			if hi > n {
				hi = n
			}
			var s int32
			for i := lo; i < hi; i++ {
				s += a[i]
			}
			sums[b] = s
		}
	})
	var total int32
	for b := 0; b < nb; b++ {
		v := sums[b]
		sums[b] = total
		total += v
	}
	e.ForBlock(nb, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*scanBlock, (b+1)*scanBlock
			if hi > n {
				hi = n
			}
			s := sums[b]
			for i := lo; i < hi; i++ {
				v := a[i]
				a[i] = s
				s += v
			}
		}
	})
	return total
}

// PackIndices returns the indices i in [0, n) with keep(i) true, in order.
func PackIndices(n int, keep func(i int) bool) []int32 {
	return PackIndicesIn(nil, n, keep)
}

// PackIndicesIn is PackIndices running on the execution context e.
func PackIndicesIn(e *parallel.Exec, n int, keep func(i int) bool) []int32 {
	return PackIndicesArena(e, n, keep, nil)
}

// PackIndicesArena is PackIndicesIn drawing the flag temporary and the
// returned index buffer from a (nil = plain allocation). The caller owns
// the result; transient users return it to the arena when done, while
// results that outlive the run should use PackIndicesIn so they never
// alias arena memory.
func PackIndicesArena(e *parallel.Exec, n int, keep func(i int) bool, a Arena) []int32 {
	flags := arenaGet(a, n, true)
	e.For(n, func(i int) {
		if keep(i) {
			flags[i] = 1
		}
	})
	total := ExclusiveScanInt32In(e, flags)
	out := arenaGet(a, int(total), false)
	e.For(n, func(i int) {
		if i+1 < n {
			if flags[i+1] != flags[i] {
				out[flags[i]] = int32(i)
			}
		} else if int32(len(out)) != flags[i] {
			out[flags[i]] = int32(i)
		}
	})
	arenaPut(a, flags)
	return out
}

// CountOnes returns the number of indices with keep(i) true.
func CountOnes(n int, keep func(i int) bool) int {
	return int(parallel.Reduce(n, parallel.DefaultGrain, int64(0),
		func(lo, hi int) int64 {
			var c int64
			for i := lo; i < hi; i++ {
				if keep(i) {
					c++
				}
			}
			return c
		},
		func(a, b int64) int64 { return a + b }))
}
