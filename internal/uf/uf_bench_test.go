package uf

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

func benchEdges(n, m int, seed int64) [][2]int32 {
	rng := rand.New(rand.NewSource(seed))
	es := make([][2]int32, m)
	for i := range es {
		es[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	return es
}

func BenchmarkConcurrentUnion(b *testing.B) {
	n, m := 1<<18, 1<<20
	es := benchEdges(n, m, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := New(n)
		parallel.ForBlock(m, 4096, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				u.Union(es[j][0], es[j][1])
			}
		})
	}
}

func BenchmarkSeqUnion(b *testing.B) {
	n, m := 1<<18, 1<<20
	es := benchEdges(n, m, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSeq(n)
		for _, e := range es {
			s.Union(e[0], e[1])
		}
	}
}
