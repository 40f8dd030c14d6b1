package prim

import (
	"sync/atomic"

	"repro/internal/parallel"
)

// CountingSortByKey stably sorts the items [0, n) into buckets given by
// key(i) in [0, nBuckets). It returns the permuted payload produced by
// emit(i) and the bucket offset array of length nBuckets+1.
//
// This is the semisort used by the Euler tour technique: items with equal
// keys become contiguous, and within a bucket the original order is kept.
// Work O(n + nBuckets), span polylogarithmic (two scans plus scatters).
func CountingSortByKey(n int, nBuckets int32, key func(i int) int32) (perm []int32, offsets []int32) {
	return CountingSortByKeyArena(nil, n, nBuckets, key, nil)
}

// CountingSortByKeyArena is CountingSortByKey running on the execution
// context e (nil = default) and drawing every buffer — including the
// returned perm and offsets, whose ownership passes to the caller — from
// a (nil = plain allocation). Callers on the hot path return perm and
// offsets to the arena when done.
func CountingSortByKeyArena(e *parallel.Exec, n int, nBuckets int32, key func(i int) int32, a Arena) (perm []int32, offsets []int32) {
	offsets = arenaGet(a, int(nBuckets)+1, true)
	counts := offsets[:nBuckets]
	// Parallel histogram with per-block local counters merged by scan.
	p := e.Procs()
	if n < 1<<14 || p == 1 {
		for i := 0; i < n; i++ {
			counts[key(i)]++
		}
		ExclusiveScanInt32In(e, offsets)
		perm = arenaGet(a, n, false)
		cursor := arenaGet(a, int(nBuckets), false)
		copy(cursor, offsets[:nBuckets])
		for i := 0; i < n; i++ {
			k := key(i)
			perm[cursor[k]] = int32(i)
			cursor[k]++
		}
		arenaPut(a, cursor)
		return perm, offsets
	}
	// Parallel path: per-block histograms, column-major scan for stability.
	// Four blocks per worker balance the load, but each block costs a
	// histogram row of nBuckets counters that is zeroed and walked twice
	// by the column passes; when those counters would outnumber the items
	// (about as many buckets as items, as in the Euler tour's sorts by
	// node), one block per worker cuts that overhead fourfold.
	nb := 4 * p
	if nb*int(nBuckets) > n {
		nb = p
	}
	blockSz := (n + nb - 1) / nb
	nb = (n + blockSz - 1) / blockSz
	hist := arenaGet(a, nb*int(nBuckets), true)
	e.ForBlock(nb, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*blockSz, (b+1)*blockSz
			if hi > n {
				hi = n
			}
			h := hist[b*int(nBuckets) : (b+1)*int(nBuckets)]
			for i := lo; i < hi; i++ {
				h[key(i)]++
			}
		}
	})
	// offsets: total per bucket, then exclusive scan.
	e.ForBlock(int(nBuckets), parallel.DefaultGrain, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			var s int32
			for b := 0; b < nb; b++ {
				s += hist[b*int(nBuckets)+k]
			}
			counts[k] = s
		}
	})
	ExclusiveScanInt32In(e, offsets)
	// Per (block, bucket) start = offsets[bucket] + sum of this bucket over
	// earlier blocks. Computed by a per-bucket sequential pass in parallel
	// over buckets (column scan).
	e.ForBlock(int(nBuckets), parallel.DefaultGrain, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			s := offsets[k]
			for b := 0; b < nb; b++ {
				c := hist[b*int(nBuckets)+k]
				hist[b*int(nBuckets)+k] = s
				s += c
			}
		}
	})
	perm = arenaGet(a, n, false)
	e.ForBlock(nb, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo, hi := b*blockSz, (b+1)*blockSz
			if hi > n {
				hi = n
			}
			cur := hist[b*int(nBuckets) : (b+1)*int(nBuckets)]
			for i := lo; i < hi; i++ {
				k := key(i)
				perm[cur[k]] = int32(i)
				cur[k]++
			}
		}
	})
	arenaPut(a, hist)
	return perm, offsets
}

// MaxInt32 returns the maximum of a, or def when a is empty.
func MaxInt32(a []int32, def int32) int32 {
	return MaxInt32In(nil, a, def)
}

// MaxInt32In is MaxInt32 running on the execution context e.
func MaxInt32In(e *parallel.Exec, a []int32, def int32) int32 {
	return parallel.ReduceIn(e, len(a), parallel.DefaultGrain, def,
		func(lo, hi int) int32 {
			m := def
			for i := lo; i < hi; i++ {
				if a[i] > m {
					m = a[i]
				}
			}
			return m
		},
		func(x, y int32) int32 {
			if x > y {
				return x
			}
			return y
		})
}

// WriteMin atomically sets *p = min(*p, v). Returns true if it wrote.
func WriteMin(p *int32, v int32) bool {
	for {
		old := atomic.LoadInt32(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt32(p, old, v) {
			return true
		}
	}
}

// WriteMax atomically sets *p = max(*p, v). Returns true if it wrote.
func WriteMax(p *int32, v int32) bool {
	for {
		old := atomic.LoadInt32(p)
		if v <= old {
			return false
		}
		if atomic.CompareAndSwapInt32(p, old, v) {
			return true
		}
	}
}
