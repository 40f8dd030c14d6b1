package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSetProcs(t *testing.T) {
	old := Procs()
	defer SetProcs(old)
	if got := SetProcs(3); got != old {
		t.Fatalf("SetProcs returned %d, want previous %d", got, old)
	}
	if Procs() != 3 {
		t.Fatalf("Procs() = %d, want 3", Procs())
	}
	SetProcs(0)
	if Procs() != runtime.GOMAXPROCS(0) {
		t.Fatalf("SetProcs(0) should reset to GOMAXPROCS")
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1023, 1024, 1025, 100000} {
		seen := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForGrainSmallGrain(t *testing.T) {
	n := 5000
	var sum atomic.Int64
	ForGrain(n, 7, func(i int) { sum.Add(int64(i)) })
	want := int64(n) * int64(n-1) / 2
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestForBlockPartition(t *testing.T) {
	for _, n := range []int{0, 1, 10, 4096, 99999} {
		var total atomic.Int64
		ForBlock(n, 64, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad block [%d,%d) for n=%d", lo, hi, n)
			}
			total.Add(int64(hi - lo))
		})
		if total.Load() != int64(n) {
			t.Fatalf("n=%d: covered %d iterations", n, total.Load())
		}
	}
}

func TestForBlockZeroGrain(t *testing.T) {
	var total atomic.Int64
	ForBlock(100, 0, func(lo, hi int) { total.Add(int64(hi - lo)) })
	if total.Load() != 100 {
		t.Fatalf("covered %d, want 100", total.Load())
	}
}

func TestForSingleProc(t *testing.T) {
	old := SetProcs(1)
	defer SetProcs(old)
	order := make([]int, 0, 100)
	For(100, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("single-proc For must run in order; got %v at %d", v, i)
		}
	}
}

func TestDo(t *testing.T) {
	var a, b, c atomic.Int32
	Do()
	Do(func() { a.Store(1) })
	Do(func() { a.Add(1) }, func() { b.Store(2) }, func() { c.Store(3) })
	if a.Load() != 2 || b.Load() != 2 || c.Load() != 3 {
		t.Fatalf("Do results: a=%d b=%d c=%d", a.Load(), b.Load(), c.Load())
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000, 123456} {
		got := Reduce(n, 100, int64(0),
			func(lo, hi int) int64 {
				var s int64
				for i := lo; i < hi; i++ {
					s += int64(i)
				}
				return s
			},
			func(a, b int64) int64 { return a + b })
		want := int64(n) * int64(n-1) / 2
		if got != want {
			t.Fatalf("n=%d: Reduce = %d, want %d", n, got, want)
		}
	}
}

func TestReduceMax(t *testing.T) {
	vals := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}
	got := Reduce(len(vals), 3, -1,
		func(lo, hi int) int {
			m := -1
			for i := lo; i < hi; i++ {
				if vals[i] > m {
					m = vals[i]
				}
			}
			return m
		},
		func(a, b int) int {
			if a > b {
				return a
			}
			return b
		})
	if got != 9 {
		t.Fatalf("Reduce max = %d, want 9", got)
	}
}

func TestFillIotaCopy(t *testing.T) {
	n := 10000
	a := make([]int32, n)
	Fill(a, int32(7))
	for i, v := range a {
		if v != 7 {
			t.Fatalf("Fill: a[%d]=%d", i, v)
		}
	}
	Iota(a, 5)
	for i, v := range a {
		if v != int32(i+5) {
			t.Fatalf("Iota: a[%d]=%d", i, v)
		}
	}
	b := make([]int32, n)
	Copy(b, a)
	for i := range b {
		if b[i] != a[i] {
			t.Fatalf("Copy mismatch at %d", i)
		}
	}
}

func TestCopyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Copy(make([]int, 3), make([]int, 4))
}

func TestReduceMatchesSequentialQuick(t *testing.T) {
	f := func(xs []int32) bool {
		var want int64
		for _, x := range xs {
			want += int64(x)
		}
		got := Reduce(len(xs), 4, int64(0),
			func(lo, hi int) int64 {
				var s int64
				for i := lo; i < hi; i++ {
					s += int64(xs[i])
				}
				return s
			},
			func(a, b int64) int64 { return a + b })
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
