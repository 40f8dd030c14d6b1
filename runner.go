package fastbcc

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/faultpoint"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// ErrBuildPanic is wrapped by the error a Runner or Store returns when an
// engine panics during a build. The panic is captured — on whatever
// goroutine it happened, pool worker or submitter — and converted to an
// error at the top of the build, so one misbehaving engine or graph
// never takes down a serving process; the Store keeps serving the
// entry's last-good snapshot (cmd/bccd maps this error to HTTP 500).
var ErrBuildPanic = errors.New("engine panicked")

// Runner serves BCC decompositions concurrently with a bounded worker
// budget and recycled scratch memory — the serving pattern the package
// documentation describes.
//
// A Runner owns a private worker pool, isolated from the process-global
// one: at most workers-1 pool goroutines ever exist, no matter how many
// Run calls are in flight, and each calling goroutine works only on its
// own run (so k concurrent calls execute on at most workers-1+k
// goroutines). Concurrent runs share the pool workers fairly through
// dynamic block claiming, and a run's Options.Threads further caps that
// one run — submitter included — within the Runner's budget. Each run draws its ~16n int32 of
// auxiliary buffers from a recycled arena, so a warm Runner allocates only
// what the Result itself retains.
//
// All methods are safe for concurrent use. The zero value is not usable;
// construct with NewRunner.
type Runner struct {
	exec *parallel.Exec
	// arenas recycles one *graph.Scratch per concurrent run rather than
	// sharing a single arena, so concurrent runs never contend on a
	// freelist mutex and a burst of k runs settles at k pooled arenas.
	arenas sync.Pool
	// metrics counts runs/errors/panics when the Runner is owned by a
	// Store; nil (and unrecorded) on a standalone Runner.
	metrics *runnerMetrics
}

// NewRunner returns a Runner with workers-1 shared pool goroutines, so a
// single in-flight run uses at most workers workers including its caller
// (workers < 1 selects GOMAXPROCS). The pool goroutines are started
// lazily by the first run and released by Close.
func NewRunner(workers int) *Runner {
	r := &Runner{exec: parallel.NewExec(workers)}
	r.arenas.New = func() any { return graph.NewScratch() }
	return r
}

// Run computes the biconnected components of g like BCC — including
// engine selection via opts.Algorithm, with the same panic-on-unknown-name
// contract — on the Runner's worker budget. opts may be nil for defaults.
// opts.Threads caps this run's share of the Runner's workers. The returned
// Result never aliases pooled memory.
func (r *Runner) Run(g *Graph, opts *Options) *Result {
	res, err := r.run(context.Background(), g, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// recoverBuildPanic converts a panic unwinding a build into an error
// wrapping ErrBuildPanic, assigned to *err. Deferred at the top of every
// build path so an engine bug — wherever it fired; parallel loop bodies
// re-raise worker panics at the join — is isolated to this one build.
func recoverBuildPanic(err *error) {
	if rec := recover(); rec != nil {
		if lp, ok := rec.(*parallel.Panic); ok {
			rec = lp.Value
		}
		*err = fmt.Errorf("fastbcc: %w: %v", ErrBuildPanic, rec)
	}
}

// run is the error-returning dispatch behind Run, shared with the Store
// (which surfaces bad algorithm names, cancellation, and engine panics
// to clients instead of panicking). The four fault points of the build
// pipeline (see internal/faultpoint) live here, ahead of the engine
// dispatch; they are no-ops unless a test or debug endpoint arms them.
func (r *Runner) run(ctx context.Context, g *Graph, opts *Options) (res *Result, err error) {
	if m := r.metrics; m != nil {
		m.runs.Inc()
		// Registered before recoverBuildPanic so it runs after it (LIFO):
		// by then a panic has been converted to an ErrBuildPanic-wrapped
		// error and is classifiable.
		defer func() {
			if err != nil {
				m.errs.Inc()
				if errors.Is(err, ErrBuildPanic) {
					m.panics.Inc()
				}
			}
		}()
	}
	defer recoverBuildPanic(&err)
	if err := r.admitFaults(ctx); err != nil {
		return nil, err
	}
	var o Options
	if opts != nil {
		o = *opts
	}
	ex := r.exec.Limit(o.Threads).WithContext(ctx)
	arena := r.arenas.Get().(*graph.Scratch)
	defer r.arenas.Put(arena)
	// Registry engines return results with the topology caches already
	// computed on ex, so a published snapshot never hits the lazy
	// compute path from a query.
	res, err = runEngine(g, o, ex, arena)
	if err != nil {
		return nil, err
	}
	if err := r.buildErr(ex); err != nil {
		return nil, err
	}
	return res, nil
}

// admitFaults runs the pre-build fault points and the entry cancellation
// check. Order matters for the harness: the slow-build sleep comes first
// so a deadline can expire inside it, then the injected panic and error.
func (r *Runner) admitFaults(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		faultpoint.Check(faultpoint.CancelObserved)
		return err
	}
	if err := faultpoint.CheckCtx(ctx, faultpoint.SlowBuild); err != nil {
		faultpoint.Check(faultpoint.CancelObserved)
		return err
	}
	faultpoint.Check(faultpoint.PanicInEngine) // panics when armed; recovered above
	return faultpoint.Check(faultpoint.ErrorInBuild)
}

// buildErr validates a finished pipeline stage: once the execution
// context is canceled, every buffer the skipped loops left behind is
// garbage, so the build is abandoned and the caller discards the result.
func (r *Runner) buildErr(ex *parallel.Exec) error {
	if err := ex.Err(); err != nil {
		faultpoint.Check(faultpoint.CancelObserved)
		return err
	}
	return nil
}

// Close releases the Runner's worker goroutines. Runs started after Close
// execute sequentially on the calling goroutine; runs already in flight
// complete normally. Close is idempotent.
func (r *Runner) Close() { r.exec.Close() }
