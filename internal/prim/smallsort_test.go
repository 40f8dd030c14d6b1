package prim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSortInt32SmallMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := []int{0, 1, 2, 3, 7, 47, 48, 49, 100, 255, 256, 257, 1000, 5000, 70000}
	for _, n := range sizes {
		for trial := 0; trial < 4; trial++ {
			a := make([]int32, n)
			switch trial {
			case 0: // uniform, includes negatives
				for i := range a {
					a[i] = rng.Int31() - (1 << 30)
				}
			case 1: // small range with many duplicates
				for i := range a {
					a[i] = int32(rng.Intn(7))
				}
			case 2: // already sorted
				for i := range a {
					a[i] = int32(i)
				}
			case 3: // reverse sorted
				for i := range a {
					a[i] = int32(n - i)
				}
			}
			want := append([]int32(nil), a...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			SortInt32Small(a)
			for i := range a {
				if a[i] != want[i] {
					t.Fatalf("n=%d trial=%d: a[%d]=%d want %d", n, trial, i, a[i], want[i])
				}
			}
		}
	}
}

func TestSortInt32SmallExtremes(t *testing.T) {
	a := []int32{0, -1, 1 << 30, -(1 << 30), 2147483647, -2147483648, 5, -5}
	want := append([]int32(nil), a...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	SortInt32Small(a)
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("a[%d]=%d want %d", i, a[i], want[i])
		}
	}
}

func BenchmarkSortInt32SmallAdjacency(b *testing.B) {
	// 4,096 lists of 24 random values sorted back to back: the
	// insertion-sort branch under many short calls.
	rng := rand.New(rand.NewSource(9))
	const lists = 4096
	const deg = 24
	data := make([][]int32, lists)
	for i := range data {
		data[i] = make([]int32, deg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, l := range data {
			for j := range l {
				l[j] = rng.Int31n(1 << 20)
			}
		}
		b.StartTimer()
		for _, l := range data {
			SortInt32Small(l)
		}
	}
}
