package prim

import (
	"math/rand"
	"testing"
)

func BenchmarkExclusiveScanInt32(b *testing.B) {
	n := 1 << 20
	src := make([]int32, n)
	for i := range src {
		src[i] = int32(i % 7)
	}
	a := make([]int32, n)
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(a, src)
		ExclusiveScanInt32(a)
	}
}

func BenchmarkPackIndices(b *testing.B) {
	n := 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackIndices(n, func(j int) bool { return j%3 == 0 })
	}
}

// BenchmarkCountingSortByKey sorts 2^20 random keys into few buckets, and
// into about as many buckets as items, the shape of the Euler tour's sorts
// by node, where the per-block histograms cost more than the items.
func BenchmarkCountingSortByKey(b *testing.B) {
	n := 1 << 20
	for _, tc := range []struct {
		name     string
		nBuckets int32
	}{{"buckets=4096", 1 << 12}, {"buckets=n", int32(n)}} {
		rng := rand.New(rand.NewSource(1))
		keys := make([]int32, n)
		for i := range keys {
			keys[i] = int32(rng.Intn(int(tc.nBuckets)))
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				CountingSortByKey(n, tc.nBuckets, func(j int) int32 { return keys[j] })
			}
		})
	}
}

func BenchmarkHash64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Hash64(uint64(i))
	}
	_ = sink
}
