package prim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

func TestExclusiveScanInt32Small(t *testing.T) {
	a := []int32{3, 1, 4, 1, 5}
	total := ExclusiveScanInt32(a)
	want := []int32{0, 3, 4, 8, 9}
	if total != 14 {
		t.Fatalf("total = %d, want 14", total)
	}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("a[%d] = %d, want %d", i, a[i], want[i])
		}
	}
}

func TestExclusiveScanInt32Empty(t *testing.T) {
	if got := ExclusiveScanInt32(nil); got != 0 {
		t.Fatalf("scan(nil) = %d", got)
	}
}

func TestExclusiveScanInt32Large(t *testing.T) {
	n := 100003
	a := make([]int32, n)
	for i := range a {
		a[i] = int32(i % 7)
	}
	ref := make([]int32, n)
	var s int32
	for i := range a {
		ref[i] = s
		s += a[i]
	}
	total := ExclusiveScanInt32(a)
	if total != s {
		t.Fatalf("total = %d, want %d", total, s)
	}
	for i := range a {
		if a[i] != ref[i] {
			t.Fatalf("a[%d] = %d, want %d", i, a[i], ref[i])
		}
	}
}

func TestScanQuick(t *testing.T) {
	f := func(xs []int32) bool {
		a := make([]int32, len(xs))
		for i, x := range xs {
			a[i] = x % 100
		}
		ref := make([]int32, len(a))
		var s int32
		for i := range a {
			ref[i] = s
			s += a[i]
		}
		got := ExclusiveScanInt32(a)
		if got != s {
			return false
		}
		for i := range a {
			if a[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackIndices(t *testing.T) {
	idx := PackIndices(1000, func(i int) bool { return i%10 == 7 })
	if len(idx) != 100 {
		t.Fatalf("len = %d, want 100", len(idx))
	}
	for j, v := range idx {
		if v != int32(10*j+7) {
			t.Fatalf("idx[%d] = %d", j, v)
		}
	}
}

func TestCountOnes(t *testing.T) {
	if c := CountOnes(100000, func(i int) bool { return i%2 == 0 }); c != 50000 {
		t.Fatalf("CountOnes = %d", c)
	}
	if c := CountOnes(0, func(int) bool { return true }); c != 0 {
		t.Fatalf("CountOnes(0) = %d", c)
	}
}

func checkCountingSort(t *testing.T, n int, nBuckets int32, keys []int32) {
	t.Helper()
	perm, offsets := CountingSortByKey(n, nBuckets, func(i int) int32 { return keys[i] })
	if len(perm) != n || len(offsets) != int(nBuckets)+1 {
		t.Fatalf("sizes: perm=%d offsets=%d", len(perm), len(offsets))
	}
	if offsets[0] != 0 || offsets[nBuckets] != int32(n) {
		t.Fatalf("offsets endpoints: %d %d", offsets[0], offsets[nBuckets])
	}
	seen := make([]bool, n)
	for b := int32(0); b < nBuckets; b++ {
		prev := int32(-1)
		for j := offsets[b]; j < offsets[b+1]; j++ {
			i := perm[j]
			if keys[i] != b {
				t.Fatalf("bucket %d contains item with key %d", b, keys[i])
			}
			if seen[i] {
				t.Fatalf("item %d appears twice", i)
			}
			seen[i] = true
			if i <= prev {
				t.Fatalf("bucket %d not stable: %d after %d", b, i, prev)
			}
			prev = i
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("item %d missing", i)
		}
	}
}

func TestCountingSortSmall(t *testing.T) {
	keys := []int32{2, 0, 1, 2, 0, 0, 1}
	checkCountingSort(t, len(keys), 3, keys)
}

func TestCountingSortLargeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 200000
	nBuckets := int32(997)
	keys := make([]int32, n)
	for i := range keys {
		keys[i] = int32(rng.Intn(int(nBuckets)))
	}
	checkCountingSort(t, n, nBuckets, keys)
}

func TestCountingSortSingleBucket(t *testing.T) {
	n := 5000
	keys := make([]int32, n)
	checkCountingSort(t, n, 1, keys)
}

func TestCountingSortEmpty(t *testing.T) {
	perm, offsets := CountingSortByKey(0, 5, func(int) int32 { return 0 })
	if len(perm) != 0 || len(offsets) != 6 {
		t.Fatalf("empty sort: perm=%v offsets=%v", perm, offsets)
	}
}

func TestMaxInt32(t *testing.T) {
	if m := MaxInt32(nil, -1); m != -1 {
		t.Fatalf("MaxInt32(nil) = %d", m)
	}
	a := make([]int32, 100000)
	for i := range a {
		a[i] = int32(i % 999)
	}
	a[77777] = 123456
	if m := MaxInt32(a, 0); m != 123456 {
		t.Fatalf("MaxInt32 = %d", m)
	}
}

func TestWriteMinMax(t *testing.T) {
	var x int32 = 10
	if !WriteMin(&x, 5) || x != 5 {
		t.Fatalf("WriteMin failed: x=%d", x)
	}
	if WriteMin(&x, 7) {
		t.Fatal("WriteMin should not write larger value")
	}
	if !WriteMax(&x, 9) || x != 9 {
		t.Fatalf("WriteMax failed: x=%d", x)
	}
	if WriteMax(&x, 3) {
		t.Fatal("WriteMax should not write smaller value")
	}
}

func TestWriteMinConcurrent(t *testing.T) {
	var x int32 = 1 << 30
	parallel.For(100000, func(i int) {
		WriteMin(&x, int32(i))
	})
	if x != 0 {
		t.Fatalf("concurrent WriteMin = %d, want 0", x)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(1), NewRNG(1)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(2)
	same := true
	a2 := NewRNG(1)
	for i := 0; i < 10; i++ {
		if a2.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical streams")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestHash64Distribution(t *testing.T) {
	// Crude avalanche check: flipping one input bit changes ~half the bits.
	var totalFlips int
	for i := 0; i < 64; i++ {
		d := Hash64(0) ^ Hash64(1<<uint(i))
		pop := 0
		for d != 0 {
			d &= d - 1
			pop++
		}
		totalFlips += pop
	}
	avg := float64(totalFlips) / 64
	if avg < 24 || avg > 40 {
		t.Fatalf("poor avalanche: avg %.1f bits flipped", avg)
	}
}
