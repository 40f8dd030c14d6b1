package rmq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func naiveMin(a []int32, lo, hi int) int32 {
	m := a[lo]
	for i := lo + 1; i <= hi; i++ {
		if a[i] < m {
			m = a[i]
		}
	}
	return m
}

func TestMinExhaustiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 63, 64, 65, 127, 130, 257} {
		a := make([]int32, n)
		for i := range a {
			a[i] = int32(rng.Intn(100) - 50)
		}
		q := NewMin(a)
		for lo := 0; lo < n; lo++ {
			for hi := lo; hi < n; hi++ {
				if got, want := q.Query(lo, hi), naiveMin(a, lo, hi); got != want {
					t.Fatalf("n=%d min[%d,%d] = %d, want %d", n, lo, hi, got, want)
				}
			}
		}
	}
}

func TestMinRandomLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 1 << 17
	a := make([]int32, n)
	for i := range a {
		a[i] = int32(rng.Intn(1 << 30))
	}
	q := NewMin(a)
	for trial := 0; trial < 5000; trial++ {
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		if got, want := q.Query(lo, hi), naiveMin(a, lo, hi); got != want {
			t.Fatalf("min[%d,%d] = %d, want %d", lo, hi, got, want)
		}
	}
}

func TestSingleElement(t *testing.T) {
	q := NewMin([]int32{42})
	if q.Query(0, 0) != 42 {
		t.Fatal("single element query failed")
	}
}

func TestFullRange(t *testing.T) {
	n := 10000
	a := make([]int32, n)
	for i := range a {
		a[i] = int32(n - i)
	}
	a[n/2] = -5
	if got := NewMin(a).Query(0, n-1); got != -5 {
		t.Fatalf("full range min = %d", got)
	}
}

func TestEmptyArray(t *testing.T) {
	q := NewMin(nil)
	if q == nil {
		t.Fatal("NewMin(nil) returned nil")
	}
}

func TestEmptyRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on lo > hi")
		}
	}()
	NewMin([]int32{1, 2, 3}).Query(2, 1)
}

func TestMinQuick(t *testing.T) {
	f := func(xs []int32, loU, spanU uint16) bool {
		if len(xs) == 0 {
			return true
		}
		lo := int(loU) % len(xs)
		hi := lo + int(spanU)%(len(xs)-lo)
		q := NewMin(xs)
		return q.Query(lo, hi) == naiveMin(xs, lo, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockBoundaryRanges(t *testing.T) {
	// Ranges aligned exactly at block boundaries exercise the "no middle
	// blocks" and "one middle block" sparse-table paths.
	n := blockSize * 5
	a := make([]int32, n)
	for i := range a {
		a[i] = int32(i % 37)
	}
	q := NewMin(a)
	cases := [][2]int{
		{0, blockSize - 1},
		{0, blockSize},
		{blockSize, 2*blockSize - 1},
		{blockSize - 1, blockSize},
		{0, 2*blockSize - 1},
		{0, 3*blockSize - 1},
		{1, n - 2},
		{blockSize / 2, 4*blockSize + 3},
	}
	for _, c := range cases {
		if got, want := q.Query(c[0], c[1]), naiveMin(a, c[0], c[1]); got != want {
			t.Fatalf("range [%d,%d]: got %d want %d", c[0], c[1], got, want)
		}
	}
}
