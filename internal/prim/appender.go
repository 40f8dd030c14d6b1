package prim

import "sync/atomic"

// appendBatch is the number of items an Appender stages between two
// reservations on the shared cursor.
const appendBatch = 256

// Appender collects one parallel block's items for a shared output slice
// that every block fills through one atomic write cursor. A per-item add on
// that cursor makes the workers pass its cache line back and forth on every
// append; an Appender instead stages the items in a fixed array and
// reserves the slots of a whole batch with one add, when the array is full
// and at Flush. The array never grows, so an Appender declared inside a
// block body stays on that goroutine's stack and never allocates. Flush it
// at the end of the block.
//
// Each batch lands in out in the order it was pushed. With one worker the
// blocks run in order, so out ends up exactly as per-item appends would
// leave it; with several, the batches of different blocks interleave in
// the order they flush.
type Appender[T any] struct {
	out []T
	cur *atomic.Int64
	n   int
	buf [appendBatch]T
}

// NewAppender returns an empty Appender writing into out through cur.
func NewAppender[T any](out []T, cur *atomic.Int64) Appender[T] {
	return Appender[T]{out: out, cur: cur}
}

// Push appends x.
func (a *Appender[T]) Push(x T) {
	if a.n == len(a.buf) {
		a.Flush()
	}
	a.buf[a.n] = x
	a.n++
}

// Flush writes the staged items to out, reserving their slots with one add
// on the cursor.
func (a *Appender[T]) Flush() {
	if a.n == 0 {
		return
	}
	at := a.cur.Add(int64(a.n)) - int64(a.n)
	copy(a.out[at:], a.buf[:a.n])
	a.n = 0
}
