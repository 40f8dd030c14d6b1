// Package parallel provides the fork-join execution layer used by every
// algorithm in this repository.
//
// The paper assumes the binary-forking work-span model with a randomized
// work-stealing scheduler (ParlayLib). Goroutines are too heavy for
// per-element binary forking, so this package exposes *chunked* fork-join:
// loops are split into blocks of at least a grain size and blocks are
// claimed dynamically over an atomic work counter (a simple form of dynamic
// load balancing). This preserves work-efficiency and keeps span within
// logarithmic factors of the model for the loop shapes used here.
//
// # Execution contexts
//
// Every primitive exists in two forms: a package-level function (For,
// ForBlock, Do, Reduce, Fill, ...) that runs on the process-global default
// context, and a form bound to an *Exec handle (methods for the monomorphic
// primitives, *In functions for the generic ones). An Exec owns a worker
// budget:
//
//   - A nil *Exec is the default context: loops run on the process-global
//     pool sized by Procs()/SetProcs. All package-level functions are thin
//     wrappers over the nil context.
//   - NewExec(p) returns a context owning a private pool of p-1 workers,
//     isolated from the global pool and from every other Exec. Close
//     releases the workers; a closed context runs loops inline.
//   - e.Limit(k) derives a context sharing e's pool but capping any one
//     loop at k workers (submitter included). Limit allocates no goroutines,
//     so a per-request worker cap costs nothing: concurrent submitters
//     share the underlying pool's workers fairly (blocks are claimed
//     dynamically) while each stays within its own cap.
//
// This is what makes concurrent serving safe: two simultaneous runs with
// different worker caps never mutate global state, never restart a pool,
// and never observe each other's cap.
//
// # Persistent worker pool
//
// Blocks are executed by a lazily-started persistent pool of workers (the
// submitting goroutine is always one additional worker). Workers park on a
// buffered channel that doubles as a wake-up semaphore: submitting a loop
// enqueues at most min(available workers, blocks-1) wake tokens carrying
// the task descriptor, so a parked worker is woken with one channel receive
// instead of a fresh goroutine spawn and stack. Task descriptors are
// recycled through a sync.Pool guarded by a reference count, so a parallel
// loop costs O(1) allocations and zero goroutine creations in steady state
// — the scheduling overhead the paper's ParlayLib baseline never pays,
// removed.
//
// The global pool is generational: SetProcs retires the current generation
// (its workers exit once idle) and the next parallel loop lazily starts a
// new one with the updated size. Loops already in flight on a retired
// generation stay correct — the submitter claims every block its helpers
// do not — so SetProcs may be called concurrently with running loops.
// SetProcs(1) stops the pool entirely; all primitives then run inline.
// Private pools (NewExec) are fixed-size and have no generations.
//
// # Cancellation and panics
//
// Loops are cooperatively cancellable at block granularity: WithContext
// derives a context-carrying Exec, and every loop on it checks the
// context between blocks, skipping the remaining blocks once it is
// canceled. The check is free on the happy path — an Exec without a
// context (the default) performs no per-block work, and a loop that
// finishes before cancellation behaves identically either way. A
// canceled loop returns early with its work only partially done, so the
// caller must treat every output as invalid and check Err after the
// last loop of a pipeline (the serving Runner does).
//
// A panic in a loop body — on a pool worker or the submitter — no
// longer crashes the process or deadlocks the join: the first panic is
// captured, the loop's remaining blocks are skipped, and after the join
// the submitting goroutine re-panics with a *Panic carrying the
// original value and the panicking goroutine's stack. Serving layers
// recover it once at the top of a build and convert it to an error.
//
// # Work/span accounting
//
// For a loop of n iterations over p workers, claiming is O(n/grain) atomic
// adds of shared-counter work and the span is O(n·grain/p + grain) plus a
// constant number of channel operations; with the default ~4·p blocks per
// loop the span stays within a constant factor of n/p while still load
// balancing irregular blocks. Nested parallel loops are deadlock-free by
// construction: a submitter never waits on work it could not finish itself,
// because it participates in its own task until the block counter is
// exhausted, and parked workers may adopt nested tasks.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// procs is the number of workers used by the default context. It defaults
// to runtime.GOMAXPROCS(0) and can be lowered for scalability experiments
// (Fig. 4 of the paper).
var procs atomic.Int32

func init() {
	procs.Store(int32(runtime.GOMAXPROCS(0)))
}

// SetProcs sets the number of workers of the default context. p < 1 resets
// to GOMAXPROCS. It returns the previous value. The global worker pool is
// resized lazily: the current generation of workers is told to retire and
// the next parallel loop starts a fresh one. Safe to call while loops are
// running, but note that it mutates process-global state — concurrent
// servers should use per-run contexts (NewExec, Limit) instead.
func SetProcs(p int) int {
	if p < 1 {
		p = runtime.GOMAXPROCS(0)
	}
	prev := int(procs.Swap(int32(p)))
	if prev != p {
		poolMu.Lock()
		if pl := curPool.Load(); pl != nil && pl.size != p-1 {
			close(pl.stop)
			curPool.Store(nil)
		}
		poolMu.Unlock()
	}
	return prev
}

// Procs reports the number of workers of the default context.
func Procs() int { return int(procs.Load()) }

// DefaultGrain is the per-block minimum number of loop iterations. It is
// sized so that the per-block scheduling overhead (~hundreds of ns) is
// amortized over enough work.
const DefaultGrain = 1024

// Exec is an execution context: a worker budget plus the pool that supplies
// the workers. The zero value for a *pointer* — a nil *Exec — is the
// default context backed by the process-global pool; see the package
// comment for NewExec and Limit. All methods are safe for concurrent use,
// including concurrent loops on one Exec, which share its workers fairly.
type Exec struct {
	// limit is the maximum number of workers one loop may use, submitter
	// included. Always >= 1.
	limit int
	// priv is the owning pool; nil means the process-global pool.
	priv *privPool
	// ctx, when non-nil, makes every loop on this context cooperatively
	// cancellable at block granularity (see WithContext). nil — the
	// default — costs nothing per block.
	ctx context.Context
}

// NewExec returns an execution context owning a private pool of p-1 worker
// goroutines (the submitting goroutine is the p-th worker). p < 1 selects
// runtime.GOMAXPROCS(0). The workers are started lazily by the first
// parallel loop and released by Close.
func NewExec(p int) *Exec {
	if p < 1 {
		p = runtime.GOMAXPROCS(0)
	}
	e := &Exec{limit: p}
	if p > 1 {
		e.priv = &privPool{size: p - 1}
	}
	return e
}

// Limit returns a context that runs loops on e's pool but uses at most k
// workers per loop (submitter included). k < 1 or k >= e's budget returns e
// itself. The derived context shares e's workers — Close on either affects
// both — and allocates no goroutines, so deriving per-request caps is free.
func (e *Exec) Limit(k int) *Exec {
	if k < 1 {
		return e
	}
	if e == nil {
		return &Exec{limit: k}
	}
	if k >= e.limit {
		return e
	}
	return &Exec{limit: k, priv: e.priv, ctx: e.ctx}
}

// Limit returns a view of the default context capped at k workers per loop,
// with no global mutation and no pool restart: Limit(k).ForBlock runs on
// the same process-global pool as ForBlock, waking at most k-1 helpers.
func Limit(k int) *Exec { return (*Exec)(nil).Limit(k) }

// noLimit is the worker cap of a derived context that adds no cap of its
// own; Procs() folds it with the pool's real size.
const noLimit = 1 << 30

// WithContext returns a view of e whose loops are cooperatively
// cancellable by ctx: once ctx is done, every loop on the returned
// context skips its remaining blocks and returns early (work already
// running on claimed blocks completes). The derived context shares e's
// pool and worker cap and allocates no goroutines. A nil or
// never-cancellable ctx (context.Background, context.TODO) returns e
// itself, so threading a background context through a hot path costs
// nothing.
//
// Cancellation is cooperative and block-granular: a canceled loop
// returns with its work partially done, so after cancellation every
// value the loops produced is invalid. Pipelines must check Err (or the
// ctx) after their last loop and discard the result.
func (e *Exec) WithContext(ctx context.Context) *Exec {
	if ctx == nil || ctx.Done() == nil {
		return e
	}
	if e == nil {
		return &Exec{limit: noLimit, ctx: ctx}
	}
	return &Exec{limit: e.limit, priv: e.priv, ctx: ctx}
}

// WithContext returns a view of the default context cancellable by ctx;
// see (*Exec).WithContext.
func WithContext(ctx context.Context) *Exec { return (*Exec)(nil).WithContext(ctx) }

// Canceled reports whether e's context is done. Always false for a
// context-free Exec (including nil).
func (e *Exec) Canceled() bool {
	if e == nil || e.ctx == nil {
		return false
	}
	select {
	case <-e.ctx.Done():
		return true
	default:
		return false
	}
}

// Err returns the context's cancellation cause (context.Canceled or
// context.DeadlineExceeded) once e is canceled, and nil otherwise —
// the post-pipeline validity check the package comment's cancellation
// section describes.
func (e *Exec) Err() error {
	if e == nil || e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// done returns the cancellation channel, nil when not cancellable.
func (e *Exec) done() <-chan struct{} {
	if e == nil || e.ctx == nil {
		return nil
	}
	return e.ctx.Done()
}

// canceled is the channel-level form of Canceled for the loop internals.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Panic is the value the submitting goroutine re-panics with when a
// parallel loop body panics: the original panic value plus the stack of
// the goroutine (pool worker or submitter) that panicked. Capturing the
// panic in the worker and re-raising it at the join point is what keeps
// an engine bug from killing an unrelated pool goroutine — and with it
// the whole serving process; the Runner recovers the re-raised value
// once per build and converts it to an error.
type Panic struct {
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("panic in parallel loop: %v", p.Value)
}

// Close releases the context's private workers. Loops submitted after
// Close run inline (sequentially). Close on the default context or on a
// context without a private pool is a no-op; a context derived with Limit
// shares its parent's pool, so closing either closes both.
func (e *Exec) Close() {
	if e != nil && e.priv != nil {
		e.priv.close()
	}
}

// Procs reports the maximum number of workers a loop on e may use. For the
// default (nil) context this is Procs(); for others it is the construction
// budget folded with any Limit caps.
func (e *Exec) Procs() int {
	if e == nil {
		return Procs()
	}
	p := e.limit
	if e.priv == nil {
		// A Limit view of the default context: the global pool bounds it.
		if g := Procs(); g < p {
			p = g
		}
	}
	if p < 1 {
		p = 1
	}
	return p
}

// getPoolFor returns the pool e's loops run on, or nil to run inline.
func (e *Exec) getPoolFor() *pool {
	if e == nil || e.priv == nil {
		return getPool(Procs())
	}
	return e.priv.get()
}

// task is one parallel loop in flight: a body, a partition of [0, n) into
// nBlocks blocks of grain iterations, and an atomic claim counter. Tasks
// are recycled via taskPool; refs counts the goroutines (submitter plus
// woken workers) still holding the descriptor so it is only recycled after
// the last one lets go.
type task struct {
	body    func(lo, hi int)
	n       int
	grain   int
	nBlocks int32
	next    atomic.Int32
	wg      sync.WaitGroup
	refs    atomic.Int32
	// done, when non-nil, is the submitting Exec's cancellation channel:
	// once closed, remaining blocks are claimed but skipped.
	done <-chan struct{}
	// pv holds the first panic captured from a block body. Once set, the
	// remaining blocks are skipped and the submitter re-panics it after
	// the join.
	pv atomic.Pointer[Panic]
}

var taskPool = sync.Pool{New: func() any { return new(task) }}

// run claims and executes blocks until the counter is exhausted. After a
// cancellation or a captured panic the remaining blocks are still
// claimed — their wg slots must drain for the submitter's join — but
// their bodies are skipped.
func (t *task) run() {
	for {
		b := t.next.Add(1) - 1
		if b >= t.nBlocks {
			return
		}
		if t.pv.Load() == nil && !canceled(t.done) {
			lo := int(b) * t.grain
			hi := lo + t.grain
			if hi > t.n {
				hi = t.n
			}
			t.runBlock(lo, hi)
		}
		t.wg.Done()
	}
}

// runBlock executes one block, capturing a panic instead of letting it
// unwind a pool worker (which would kill the process and leave the
// submitter's join waiting forever).
func (t *task) runBlock(lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			// Publish first: the other workers stop running blocks as soon
			// as pv is set, not after the stack capture. The submitter reads
			// Stack only after the join.
			p := &Panic{Value: r}
			if t.pv.CompareAndSwap(nil, p) {
				p.Stack = debug.Stack()
			}
		}
	}()
	t.body(lo, hi)
}

// release drops one reference; the last holder recycles the descriptor.
func (t *task) release() {
	if t.refs.Add(-1) == 0 {
		t.body = nil
		t.done = nil
		taskPool.Put(t)
	}
}

// pool is one set of persistent workers. tasks is both the job queue and
// the wake-up semaphore; stop is closed to retire the workers.
type pool struct {
	size  int
	tasks chan *task
	stop  chan struct{}
}

var (
	poolMu  sync.Mutex
	curPool atomic.Pointer[pool]
)

// getPool returns the global pool of p-1 workers, lazily (re)starting it
// when the size changed since the last parallel loop. It returns nil when
// the worker count is (concurrently) 1 — the caller then runs inline. p is
// the caller's stale Procs() read; the authoritative value is re-read
// under the lock so a racing SetProcs(1) can never have its shutdown
// undone by a pool resurrection (which would leak parked workers).
func getPool(p int) *pool {
	if pl := curPool.Load(); pl != nil && pl.size == p-1 {
		return pl
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	want := Procs() - 1
	if want < 1 {
		return nil
	}
	if pl := curPool.Load(); pl != nil {
		if pl.size == want {
			return pl
		}
		close(pl.stop)
	}
	pl := newPool(want)
	curPool.Store(pl)
	return pl
}

func newPool(size int) *pool {
	pl := &pool{
		size:  size,
		tasks: make(chan *task, 4*size+16),
		stop:  make(chan struct{}),
	}
	for i := 0; i < size; i++ {
		go pl.worker()
	}
	return pl
}

// privPool is the fixed-size lazily-started pool behind NewExec contexts.
type privPool struct {
	size   int
	mu     sync.Mutex
	closed bool
	cur    atomic.Pointer[pool]
}

// get returns the pool, starting its workers on first use; nil after close.
func (pp *privPool) get() *pool {
	if pl := pp.cur.Load(); pl != nil {
		return pl
	}
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.closed {
		return nil
	}
	if pl := pp.cur.Load(); pl != nil {
		return pl
	}
	pl := newPool(pp.size)
	pp.cur.Store(pl)
	return pl
}

func (pp *privPool) close() {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	pp.closed = true
	if pl := pp.cur.Load(); pl != nil {
		close(pl.stop)
		pp.cur.Store(nil)
	}
}

// worker parks on the task channel and helps whatever loop wakes it.
func (pl *pool) worker() {
	for {
		select {
		case t := <-pl.tasks:
			t.run()
			t.release()
		case <-pl.stop:
			return
		}
	}
}

// For runs body(i) for every i in [0, n) in parallel on e with the default
// grain.
func (e *Exec) For(n int, body func(i int)) {
	e.ForGrain(n, DefaultGrain, body)
}

// ForGrain runs body(i) for every i in [0, n) in parallel on e. Blocks have
// at least grain iterations; a loop with n <= grain runs sequentially
// inline.
func (e *Exec) ForGrain(n, grain int, body func(i int)) {
	e.ForBlock(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForBlock partitions [0, n) into blocks of at least grain iterations and
// runs body on each block in parallel on e. Workers claim blocks
// dynamically via an atomic counter, so irregular per-block costs are load
// balanced.
func (e *Exec) ForBlock(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	p := e.Procs()
	if p == 1 || n <= grain {
		e.runInline(n, grain, body)
		return
	}
	nBlocks := (n + grain - 1) / grain
	// Use ~4 blocks per worker so dynamic claiming can balance load
	// without making blocks so small that scheduling dominates.
	if nBlocks > 4*p {
		grain = (n + 4*p - 1) / (4 * p)
		nBlocks = (n + grain - 1) / grain
	}
	if nBlocks < 2 {
		e.runInline(n, grain, body)
		return
	}
	pl := e.getPoolFor()
	if pl == nil { // worker count is 1, or the context was closed: inline
		e.runInline(n, grain, body)
		return
	}
	t := taskPool.Get().(*task)
	t.body = body
	t.n = n
	t.grain = grain
	t.nBlocks = int32(nBlocks)
	t.next.Store(0)
	t.done = e.done()
	t.pv.Store(nil)
	t.wg.Add(nBlocks)
	// The cap p bounds this loop's workers (submitter included) even when
	// the underlying pool is larger — the Limit contract.
	wakes := p - 1
	if wakes > pl.size {
		wakes = pl.size
	}
	if wakes > nBlocks-1 {
		wakes = nBlocks - 1
	}
	// Publish before waking: a woken worker may finish and release its
	// reference before the loop below sends the next token.
	t.refs.Store(int32(wakes) + 1)
	sent := 0
	for sent < wakes {
		select {
		case pl.tasks <- t:
			sent++
			continue
		default:
		}
		// Queue full: every worker is already busy, so extra wake-up
		// tokens would only go stale. The submitter absorbs the work.
		break
	}
	if sent < wakes {
		t.refs.Add(int32(sent - wakes))
	}
	t.run()
	t.wg.Wait()
	pv := t.pv.Load()
	t.release()
	if pv != nil {
		// Re-raise the captured panic on the submitting goroutine, the
		// model's join-point semantics; callers that must survive engine
		// bugs recover the *Panic once at the top of the pipeline.
		panic(pv)
	}
}

// runInline executes the loop on the submitting goroutine. With no
// cancellation context this is a single body call (the historical fast
// path); with one, the range is walked block by block with a cancel
// check between blocks, so even a 1-worker (or pool-less) loop honors
// the block-granularity cancellation contract.
func (e *Exec) runInline(n, grain int, body func(lo, hi int)) {
	done := e.done()
	if done == nil {
		body(0, n)
		return
	}
	if canceled(done) {
		return
	}
	if n <= grain {
		body(0, n)
		return
	}
	for lo := 0; lo < n; lo += grain {
		if canceled(done) {
			return
		}
		hi := lo + grain
		if hi > n {
			hi = n
		}
		body(lo, hi)
	}
}

// Do runs the given functions on e with fork-join semantics and waits for
// all of them: the n-ary analogue of the model's binary fork. Like a fork
// in the work-span model, it permits but does not guarantee concurrency —
// when no pool worker is free the submitter runs every function itself,
// sequentially — so the functions must not synchronize with one another.
func (e *Exec) Do(fns ...func()) {
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0]()
		return
	}
	if e.Procs() == 1 {
		for _, f := range fns {
			if e.Canceled() {
				return
			}
			f()
		}
		return
	}
	e.ForBlock(len(fns), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fns[i]()
		}
	})
}

// Iota fills dst[i] = base + i in parallel on e.
func (e *Exec) Iota(dst []int32, base int32) {
	e.For(len(dst), func(i int) { dst[i] = base + int32(i) })
}

// ReduceIn computes merge over leaf values of the blocks of [0, n) on e.
// id is the identity of merge. merge must be associative. (A function
// rather than an Exec method because Go methods cannot be generic.)
func ReduceIn[T any](e *Exec, n, grain int, id T, leaf func(lo, hi int) T, merge func(a, b T) T) T {
	if n <= 0 {
		return id
	}
	if grain < 1 {
		grain = 1
	}
	p := e.Procs()
	if p == 1 || n <= grain {
		return merge(id, leaf(0, n))
	}
	nBlocks := (n + grain - 1) / grain
	if nBlocks > 4*p {
		grain = (n + 4*p - 1) / (4 * p)
		nBlocks = (n + grain - 1) / grain
	}
	partial := make([]T, nBlocks)
	e.ForBlock(nBlocks, 1, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			lo := b * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			partial[b] = leaf(lo, hi)
		}
	})
	out := id
	for _, v := range partial {
		out = merge(out, v)
	}
	return out
}

// SumInt64In computes the sum of leaf over the blocks of [0, n) on e.
// Because addition is commutative as well as associative, the partial
// results are folded into one atomic accumulator instead of the per-block
// buffer ReduceIn needs — the loop performs no allocation, which is what
// the hot-path counting passes (connectivity root counts, finalization)
// want from a reduce.
func SumInt64In(e *Exec, n, grain int, leaf func(lo, hi int) int64) int64 {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	if e.Procs() == 1 || n <= grain {
		return leaf(0, n)
	}
	var acc atomic.Int64
	e.ForBlock(n, grain, func(lo, hi int) {
		acc.Add(leaf(lo, hi))
	})
	return acc.Load()
}

// FillIn sets every element of dst to v in parallel on e.
func FillIn[T any](e *Exec, dst []T, v T) {
	e.ForBlock(len(dst), DefaultGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = v
		}
	})
}

// CopyIn copies src into dst in parallel on e. Panics if lengths differ.
func CopyIn[T any](e *Exec, dst, src []T) {
	if len(dst) != len(src) {
		panic("parallel.Copy: length mismatch")
	}
	e.ForBlock(len(dst), DefaultGrain, func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// For runs body(i) for every i in [0, n) in parallel with the default grain
// on the default context.
func For(n int, body func(i int)) {
	(*Exec)(nil).ForGrain(n, DefaultGrain, body)
}

// ForGrain runs body(i) for every i in [0, n) in parallel on the default
// context. Blocks have at least grain iterations; a loop with n <= grain
// runs sequentially inline.
func ForGrain(n, grain int, body func(i int)) {
	(*Exec)(nil).ForGrain(n, grain, body)
}

// ForBlock partitions [0, n) into blocks of at least grain iterations and
// runs body on each block in parallel on the default context.
func ForBlock(n, grain int, body func(lo, hi int)) {
	(*Exec)(nil).ForBlock(n, grain, body)
}

// Do runs the given functions with fork-join semantics on the default
// context; see (*Exec).Do for the concurrency contract.
func Do(fns ...func()) {
	(*Exec)(nil).Do(fns...)
}

// Reduce computes merge over leaf values of the blocks of [0, n) on the
// default context. id is the identity of merge. merge must be associative.
func Reduce[T any](n, grain int, id T, leaf func(lo, hi int) T, merge func(a, b T) T) T {
	return ReduceIn(nil, n, grain, id, leaf, merge)
}

// MapInt32 fills dst[i] = f(i) for i in [0, n) in parallel.
func MapInt32(dst []int32, f func(i int) int32) {
	For(len(dst), func(i int) { dst[i] = f(i) })
}

// Fill sets every element of dst to v in parallel.
func Fill[T any](dst []T, v T) {
	FillIn(nil, dst, v)
}

// Iota fills dst[i] = base + i in parallel.
func Iota(dst []int32, base int32) {
	(*Exec)(nil).Iota(dst, base)
}

// Copy copies src into dst in parallel. Panics if lengths differ.
func Copy[T any](dst, src []T) {
	CopyIn(nil, dst, src)
}
