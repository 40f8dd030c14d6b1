package fastbcc

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/obs"
)

// PhaseTimes is the per-phase breakdown of one build — the paper's four
// pipeline phases (First-CC, Rooting, Tagging, Last-CC) as recorded on
// every Result.
type PhaseTimes = core.StepTimes

// phaseNames are the metric label values for the four phases, in
// pipeline order.
var phaseNames = [4]string{"first_cc", "rooting", "tagging", "last_cc"}

// phaseDurations returns t's phases in pipeline order, parallel to
// phaseNames.
func phaseDurations(t PhaseTimes) [4]time.Duration {
	return [4]time.Duration{t.FirstCC, t.Rooting, t.Tagging, t.LastCC}
}

// Build outcomes as recorded in traces and the builds_total metric.
const (
	// BuildOK is a successful build that published a snapshot.
	BuildOK = "ok"
	// BuildError is a failed build: an engine error, injected fault, or
	// captured panic. The entry keeps serving its last-good snapshot.
	BuildError = "error"
	// BuildCanceled is a build abandoned by cancellation or deadline
	// (caller context or the Store's BuildTimeout).
	BuildCanceled = "canceled"
)

// buildOutcome classifies a finished build's error for traces and
// metrics.
func buildOutcome(err error) string {
	switch {
	case err == nil:
		return BuildOK
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return BuildCanceled
	}
	return BuildError
}

// BuildTrace is one build attempt's record in a graph's trace ring —
// what GET /v1/graphs/{name}/trace serves. Every attempt that reached
// the engine is recorded: published snapshots, failures, cancellations.
type BuildTrace struct {
	// Version is the snapshot version the build published (0 when the
	// build failed and published nothing).
	Version int64
	// Algorithm is the engine the build ran.
	Algorithm string
	// Outcome is BuildOK, BuildError, or BuildCanceled; Error carries the
	// failure message for the latter two.
	Outcome string
	Error   string
	// StartedAt and Duration bound the attempt's wall time.
	StartedAt time.Time
	Duration  time.Duration
	// Phases is the per-phase breakdown (zero for failed builds — a
	// failed pipeline leaves no trustworthy phase times).
	Phases PhaseTimes
}

// buildTraceCap is how many build attempts each graph's ring retains.
const buildTraceCap = 16

// traceRing is a fixed-size ring of the most recent build attempts of
// one catalog entry. Recording is mutex-guarded but off every query
// path: builds write it once per attempt, reads come from the status
// endpoints.
type traceRing struct {
	mu    sync.Mutex
	buf   [buildTraceCap]BuildTrace
	total uint64
}

func (r *traceRing) add(t BuildTrace) {
	r.mu.Lock()
	r.buf[r.total%buildTraceCap] = t
	r.total++
	r.mu.Unlock()
}

// list returns the retained attempts, newest first.
func (r *traceRing) list() []BuildTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	if n > buildTraceCap {
		n = buildTraceCap
	}
	out := make([]BuildTrace, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.buf[(r.total-1-i)%buildTraceCap])
	}
	return out
}

// last returns the most recent attempt, if any.
func (r *traceRing) last() (BuildTrace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total == 0 {
		return BuildTrace{}, false
	}
	return r.buf[(r.total-1)%buildTraceCap], true
}

// runnerMetrics counts engine runs on a Runner. Attached by the owning
// Store (nil on a standalone Runner — the hot path guards on it).
type runnerMetrics struct {
	runs   *obs.Counter
	errs   *obs.Counter
	panics *obs.Counter
}

// storeMetrics is a Store's metric surface, registered into one
// obs.Registry (see Store.Metrics). The recording fields sit on paths
// with strict budgets: acquire counters are one sharded atomic add per
// serving hop, and the entire batch record is one single-cacheline
// bank flush per batch (see recordBatch) — never per-query atomics,
// which would dominate the ~35ns/query batch core.
type storeMetrics struct {
	reg *obs.Registry

	// Acquire discipline: epoch pins (Handle.Acquire) vs the CAS
	// refcount (Store.Acquire).
	acquiresEpoch *obs.Counter
	acquiresCAS   *obs.Counter

	// Batch serving: one CounterBank carries the whole batch record —
	// slots 1..opEnd-1 the per-op query volume (slot = QueryOp), slot
	// batchSlot the call count — flushed once per batch onto a single
	// cacheline.
	batchQueries obs.CounterBank

	// Build pipeline: outcomes, sheds, durations, per-phase breakdown
	// (indexed parallel to phaseNames).
	buildsOK       *obs.Counter
	buildsError    *obs.Counter
	buildsCanceled *obs.Counter
	buildSheds     *obs.Counter
	buildDur       *obs.Histogram
	phaseDur       [4]*obs.Histogram

	// Mutation pipeline (see mutate.go): classified dispositions, the
	// coalesced-flush batch-size histogram, and the set of graph names
	// whose per-graph staleness gauges are registered (label sets are
	// fixed per series, so per-graph series register lazily on a graph's
	// first mutation).
	mutFast      *obs.Counter
	mutRebuild   *obs.Counter
	mutFlushSize *obs.Histogram

	// Durability (see durable.go): snapshot writes and WAL appends by
	// outcome, byte volume, journal prefix truncations, and restart
	// recovery totals. These sit off the query path entirely — WAL
	// counters cost one atomic add per mutation batch, snapshot counters
	// one per background persist.
	persistSnapOK    *obs.Counter
	persistSnapErr   *obs.Counter
	persistSnapBytes *obs.Counter
	walAppendOK      *obs.Counter
	walAppendErr     *obs.Counter
	walBytes         *obs.Counter
	walTruncs        *obs.Counter
	recovered        *obs.Counter
	replayed         *obs.Counter

	graphGaugeMu sync.Mutex
	graphGauges  map[string]bool

	runner runnerMetrics
}

// newStoreMetrics builds the store's registry: recorded series for the
// hot paths plus func-backed series reading the gauges the Store already
// maintains (no double accounting, and scrape cost stays on the
// scraper).
func newStoreMetrics(s *Store) *storeMetrics {
	reg := obs.NewRegistry()
	m := &storeMetrics{reg: reg}

	m.acquiresEpoch = reg.Counter("fastbcc_acquires_total",
		"Snapshot acquires by reader discipline.", "discipline", "epoch")
	m.acquiresCAS = reg.Counter("fastbcc_acquires_total",
		"Snapshot acquires by reader discipline.", "discipline", "refcount")

	reg.CounterFunc("fastbcc_batches_total",
		"QueryBatch calls served.",
		func() int64 { return m.batchQueries.Value(batchSlot) })
	for op := OpConnected; op < opEnd; op++ {
		slot := int(op)
		reg.CounterFunc("fastbcc_batch_queries_total",
			"Scalar queries served through batches, by op.",
			func() int64 { return m.batchQueries.Value(slot) },
			"op", op.String())
	}

	m.buildsOK = reg.Counter("fastbcc_builds_total",
		"Finished builds by outcome.", "outcome", BuildOK)
	m.buildsError = reg.Counter("fastbcc_builds_total",
		"Finished builds by outcome.", "outcome", BuildError)
	m.buildsCanceled = reg.Counter("fastbcc_builds_total",
		"Finished builds by outcome.", "outcome", BuildCanceled)
	m.buildSheds = reg.Counter("fastbcc_build_sheds_total",
		"Builds shed by admission control (ErrSaturated).")
	reg.CounterFunc("fastbcc_build_failures_total",
		"Failed builds (errors, panics, cancellations, timeouts).", s.buildFails.Load)
	m.buildDur = reg.Histogram("fastbcc_build_duration_seconds",
		"Successful build duration (decomposition + index).")
	for i, name := range phaseNames {
		m.phaseDur[i] = reg.Histogram("fastbcc_build_phase_duration_seconds",
			"Successful build duration by pipeline phase.", "phase", name)
	}

	m.graphGauges = map[string]bool{}
	m.mutFast = reg.Counter("fastbcc_mutations_total",
		"Mutations by classified disposition (see Store.ApplyBatch).", "class", "fast")
	m.mutRebuild = reg.Counter("fastbcc_mutations_total",
		"Mutations by classified disposition (see Store.ApplyBatch).", "class", "rebuild")
	m.mutFlushSize = reg.Histogram("fastbcc_mutation_flush_size",
		"Deltas drained per coalesced rebuild; recorded as one unit per "+
			"second, so _sum is the exact delta total and bucket bounds read "+
			"as sizes.")
	reg.GaugeFunc("fastbcc_pending_deltas",
		"Mutations accepted but not yet applied, summed over all graphs.",
		func() float64 {
			var n int
			s.mu.RLock()
			for _, en := range s.byName {
				p, _ := en.pendingDeltas()
				n += p
			}
			s.mu.RUnlock()
			return float64(n)
		})
	reg.GaugeFunc("fastbcc_delta_staleness_seconds",
		"Age of the oldest pending mutation delta across all graphs.",
		func() float64 {
			var oldest time.Duration
			s.mu.RLock()
			for _, en := range s.byName {
				if _, age := en.pendingDeltas(); age > oldest {
					oldest = age
				}
			}
			s.mu.RUnlock()
			return oldest.Seconds()
		})

	m.persistSnapOK = reg.Counter("fastbcc_persist_snapshots_total",
		"Snapshot files durably published, by outcome.", "outcome", "ok")
	m.persistSnapErr = reg.Counter("fastbcc_persist_snapshots_total",
		"Snapshot files durably published, by outcome.", "outcome", "error")
	m.persistSnapBytes = reg.Counter("fastbcc_persist_snapshot_bytes_total",
		"Bytes of snapshot files durably published.")
	m.walAppendOK = reg.Counter("fastbcc_persist_wal_appends_total",
		"Mutation journal appends, by outcome.", "outcome", "ok")
	m.walAppendErr = reg.Counter("fastbcc_persist_wal_appends_total",
		"Mutation journal appends, by outcome.", "outcome", "error")
	m.walBytes = reg.Counter("fastbcc_persist_wal_bytes_total",
		"Bytes appended to mutation journals.")
	m.walTruncs = reg.Counter("fastbcc_persist_wal_truncations_total",
		"Journal prefixes truncated after a snapshot durably covered them.")
	m.recovered = reg.Counter("fastbcc_persist_recovered_graphs_total",
		"Graphs restored from snapshot files by Store.Recover.")
	m.replayed = reg.Counter("fastbcc_persist_replayed_mutations_total",
		"Journal records replayed past their snapshot by Store.Recover.")
	reg.GaugeFunc("fastbcc_persist_degraded_graphs",
		"Graphs whose most recent persistence operation failed (serving "+
			"continues; durability is degraded until a retry succeeds).",
		func() float64 {
			degraded := 0
			s.mu.RLock()
			for _, en := range s.byName {
				if msg, _ := en.persistState(); msg != "" {
					degraded++
				}
			}
			s.mu.RUnlock()
			return float64(degraded)
		})

	m.runner.runs = reg.Counter("fastbcc_runs_total",
		"Engine runs started on the Store's Runner.")
	m.runner.errs = reg.Counter("fastbcc_run_errors_total",
		"Engine runs that returned an error (including panics and cancellations).")
	m.runner.panics = reg.Counter("fastbcc_run_panics_total",
		"Engine runs that panicked (captured as ErrBuildPanic).")

	reg.GaugeFunc("fastbcc_live_snapshots",
		"Snapshots with at least one outstanding reference.",
		func() float64 { return float64(s.live.Load()) })
	reg.GaugeFunc("fastbcc_retired_snapshots",
		"Superseded snapshots awaiting epoch reclamation (a scrape runs a reclaim scan first).",
		func() float64 {
			s.epochs.Reclaim()
			return float64(s.epochs.Retired())
		})
	reg.CounterFunc("fastbcc_reclaimed_snapshots_total",
		"Snapshots reclaimed by the epoch domain.", s.epochs.Reclaimed)
	reg.GaugeFunc("fastbcc_graphs",
		"Loaded graph names in the catalog.",
		func() float64 {
			s.mu.RLock()
			n := len(s.byName)
			s.mu.RUnlock()
			return float64(n)
		})
	reg.GaugeFunc("fastbcc_failing_graphs",
		"Entries whose most recent build failed (serving last-good, if any).",
		func() float64 {
			failing := 0
			s.mu.RLock()
			for _, en := range s.byName {
				if f, _, _ := en.failure(); f > 0 {
					failing++
				}
			}
			s.mu.RUnlock()
			return float64(failing)
		})
	reg.GaugeFunc("fastbcc_inflight_builds",
		"Builds currently executing on the Runner.",
		func() float64 { return float64(s.inFlight.Load()) })
	reg.GaugeFunc("fastbcc_faultpoints_armed",
		"Fault-injection points currently armed process-wide.",
		func() float64 { return float64(faultpoint.Armed()) })

	return m
}

// ensureGraphGauges registers name's per-graph staleness series —
// fastbcc_graph_pending_deltas{graph=...} and
// fastbcc_graph_delta_staleness_seconds{graph=...} — on the graph's
// first mutation. The registry's label sets are fixed per series, so
// these register lazily; the callbacks read through the catalog, so a
// removed graph's series reports zero rather than going stale.
func (m *storeMetrics) ensureGraphGauges(s *Store, name string) {
	m.graphGaugeMu.Lock()
	defer m.graphGaugeMu.Unlock()
	if m.graphGauges[name] {
		return
	}
	m.graphGauges[name] = true
	pending := func() (int, time.Duration) {
		s.mu.RLock()
		en := s.byName[name]
		s.mu.RUnlock()
		if en == nil {
			return 0, 0
		}
		return en.pendingDeltas()
	}
	m.reg.GaugeFunc("fastbcc_graph_pending_deltas",
		"Mutations accepted but not yet applied, per graph.",
		func() float64 { p, _ := pending(); return float64(p) },
		"graph", name)
	m.reg.GaugeFunc("fastbcc_graph_delta_staleness_seconds",
		"Age of the oldest pending mutation delta, per graph.",
		func() float64 { _, age := pending(); return age.Seconds() },
		"graph", name)
}

// recordBuild records one finished build attempt into the outcome
// counters and, for successes, the duration and phase histograms.
func (m *storeMetrics) recordBuild(err error, dur time.Duration, phases PhaseTimes) {
	switch buildOutcome(err) {
	case BuildOK:
		m.buildsOK.Inc()
		m.buildDur.Observe(dur)
		for i, d := range phaseDurations(phases) {
			m.phaseDur[i].Observe(d)
		}
	case BuildCanceled:
		m.buildsCanceled.Inc()
	default:
		m.buildsError.Inc()
	}
}

// batchSlot is the bank slot of batchQueries that counts QueryBatch
// calls, beyond the per-op slots 1..opEnd-1.
const batchSlot = 7

// opCounts is the stack-local tally a batch accumulates during
// execution: slots 1..opEnd-1 the per-op query counts, slot batchSlot
// the call itself. Sized to the bank so `op & 7` indexes without a
// bounds check.
type opCounts [obs.BankSlots]int64

// recordBatch flushes one successful batch into the counter bank. The
// per-op counts were accumulated inside the execution loop (one
// register add per query, overlapped with the query work — a separate
// counting pass over a 256-query batch costs more than the flush
// itself), so the entire batch record — call count and per-op volume —
// is one shard pick and up to seven adds on a single cacheline. The
// store core deliberately carries no batch latency histogram: latency
// is recorded at the serving edge
// (bccd_http_request_duration_seconds), where a request costs tens of
// microseconds and two clock reads vanish; on the ~2.5µs store batch
// path those same two clock reads plus a histogram observation
// measured 5-7% of the whole batch — the difference between this
// instrumentation being free and it failing its overhead budget.
func (m *storeMetrics) recordBatch(cnt *opCounts) {
	m.batchQueries.Flush((*[obs.BankSlots]int64)(cnt))
}

// Metrics returns the Store's metric registry for exposition; it is
// never nil. The registry covers the serving hot paths (acquire
// disciplines, batch calls and per-op volume), the build pipeline
// (outcomes, sheds, duration, the paper's four phases), mutations,
// durability, and the reclamation domain (live/retired/reclaimed
// snapshots). Render it with internal/obs/promtext.
func (s *Store) Metrics() *obs.Registry { return s.metrics.reg }

// Trace returns the most recent build attempts of name, newest first —
// successes with their per-phase breakdown, failures with their error.
// At most the last 16 attempts are retained per graph.
func (s *Store) Trace(name string) ([]BuildTrace, error) {
	en, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return en.traces.list(), nil
}
