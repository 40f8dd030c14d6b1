package fastbcc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/epoch"
	"repro/internal/faultpoint"
	"repro/internal/persist"
)

// Sentinel errors wrapped by Store methods, so serving layers can map
// failures to the right client-facing status with errors.Is (cmd/bccd:
// ErrNotLoaded → 404, ErrStoreClosed → 503, ErrSaturated → 503 +
// Retry-After, ErrUnknownAlgorithm → 400, ErrBuildPanic → 500,
// context.DeadlineExceeded → 504).
var (
	// ErrNotLoaded is wrapped by errors for names without a catalog
	// entry (never loaded, or removed).
	ErrNotLoaded = errors.New("graph not loaded")
	// ErrStoreClosed is wrapped by errors from Load/Rebuild/Acquire on a
	// closed Store — a shutting-down server, not a missing graph.
	ErrStoreClosed = errors.New("store closed")
	// ErrSaturated is wrapped by build errors when the admission gate is
	// full and a slot did not free up within the configured queue wait.
	// Only builds are shed; Acquire and queries are never gated.
	ErrSaturated = errors.New("build admission queue saturated")
)

// Snapshot is one immutable version of a served graph: the graph, its
// decomposition, and the query index, published together. A snapshot
// stays fully usable after being superseded by a rebuild — queries in
// flight never observe a half-swapped state and never block
// recomputation.
//
// Two reader disciplines protect a snapshot's lifetime:
//
//   - Epoch pins (the fast path): Handle.Acquire protects the snapshot
//     with two uncontended stores on the handle's private slot until
//     the handle's Release, after which the snapshot must not be used.
//     Batches run Handle.Acquire → Snapshot.QueryBatch → Handle.Release.
//   - Refcounts: Store.Acquire CAS-retains the snapshot's shared
//     refcount and the caller must Snapshot.Release it — for callers
//     that hold a snapshot across goroutines or for unbounded time.
//
// A superseded snapshot is retired into the Store's epoch domain and
// reclaimed only when no pin and no refcount can still reach it.
type Snapshot struct {
	// Name and Version identify the snapshot: Version increases by one
	// per (re)build of Name.
	Name    string
	Version int64
	// Algorithm is the registry name of the engine that computed this
	// snapshot's decomposition (see Algorithms).
	Algorithm string
	// Graph, Result, and Index are the immutable payload.
	Graph  *Graph
	Result *Result
	Index  *Index
	// BuiltAt records when the snapshot was published; BuildTime is the
	// wall time the decomposition + index build took (for a snapshot
	// published by a fast insertion, the mutation's apply time).
	BuiltAt   time.Time
	BuildTime time.Duration

	// overlay lists the edges ApplyBatch applied to this snapshot beyond
	// Graph's CSR. Each one is a self-loop or joins two vertices that are
	// biconnected and two-edge-connected in Graph, so Result and Index,
	// built for Graph, answer exactly for Graph plus overlay (see
	// mutate.go). The next graph materialization (a delta flush or a
	// Rebuild) folds them into the CSR. Immutable, like every other
	// snapshot field.
	overlay []Edge

	// mutSeq is the highest journal sequence number fully reflected in
	// this snapshot (0 with durability off); see durable.go. mapping,
	// when non-nil, is the mmap the snapshot's arrays alias — restored
	// snapshots, and their descendants that share the Graph. The snapshot
	// holds one mapping reference, released with the last refcount.
	mutSeq  uint64
	mapping *persist.Mapping

	refs  atomic.Int64 // the store's reference + one per Acquire
	store *Store
}

// NumEdges returns the snapshot's edge count: the CSR's edges plus the
// overlay of applied-but-unmaterialized insertions.
func (s *Snapshot) NumEdges() int { return s.Graph.NumEdges() + len(s.overlay) }

// OverlayEdges returns how many applied insertions await materialization
// into the CSR (0 on a freshly built snapshot).
func (s *Snapshot) OverlayEdges() int { return len(s.overlay) }

// tryRetain takes a reference unless the snapshot is already dead
// (refs == 0), which can happen when a rebuild swaps it out between a
// reader loading the pointer and retaining it.
func (s *Snapshot) tryRetain() bool {
	for {
		r := s.refs.Load()
		if r <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release returns the snapshot to the store. The caller must not use the
// snapshot afterwards. Releasing more times than acquired panics.
func (s *Snapshot) Release() {
	n := s.refs.Add(-1)
	switch {
	case n == 0:
		// Superseded and no reader left: the version is fully retired.
		if s.store != nil {
			s.store.live.Add(-1)
		}
		if s.mapping != nil {
			// The arrays may alias the mapped snapshot file; only now is
			// it provably unreachable.
			s.mapping.Release()
		}
	case n < 0:
		panic("fastbcc: Snapshot released more times than acquired")
	}
}

// Store is a named-graph catalog serving versioned decomposition
// snapshots — the front end cmd/bccd exposes over HTTP. Each name holds
// one current Snapshot; Load and Rebuild compute a new version on the
// Store's Runner budget and swap it in atomically, so concurrent Acquire
// calls always see a complete snapshot and queries never block
// recomputation (rebuilds of the same name serialize; different names
// rebuild concurrently within the worker budget).
//
// # Fault tolerance
//
// The Store degrades instead of dying. A build that fails — an engine
// panic (captured and converted to an error), an injected fault, a
// cancellation or an expired deadline — leaves the entry's last-good
// snapshot in place: queries keep answering from the previous version
// while the per-entry failure state (consecutive failures, last error
// and time; see Status and StoreStats) records the problem until a
// successful build clears it. Builds are bounded three ways: the
// caller's context cancels cooperatively through the whole pipeline, a
// configured BuildTimeout caps every build, and an admission gate sheds
// Load and Rebuild builds with ErrSaturated once MaxConcurrentBuilds are
// in flight and a slot does not free within BuildQueueWait. The Acquire→query→Release
// path takes none of these locks or gates — queries are never shed.
//
// All methods are safe for concurrent use. The zero value is not usable;
// construct with NewStore or NewStoreWithConfig.
type Store struct {
	runner *Runner
	live   atomic.Int64 // snapshots with at least one outstanding reference

	// epochs is the snapshot-reclamation domain: superseded snapshots
	// are retired into it instead of dropping the store's reference
	// immediately, so epoch-pinned readers (Handles) never
	// race a release. Rebuilds advance the epoch and scan on reclaim;
	// Stats also reclaims, so the live gauge is self-healing even when
	// no further rebuilds arrive.
	epochs *epoch.Domain
	// catalogGen counts catalog shape changes (entry created, removed,
	// store closed). Handles cache their name→entry resolution against
	// it so the query fast path skips the catalog RWMutex entirely.
	catalogGen atomic.Uint64

	// Admission gate (nil sem = unbounded): build slots are acquired
	// before any per-entry serialization so saturation is detected — and
	// shed — up front instead of deep in a lock queue.
	buildSem     chan struct{}
	queueWait    time.Duration
	buildTimeout time.Duration

	// mutationCoalesce is the delta-flush coalescing window; see
	// StoreConfig.MutationCoalesce and mutate.go.
	mutationCoalesce time.Duration

	inFlight   atomic.Int64 // builds currently executing on the Runner
	buildFails atomic.Int64 // cumulative failed builds since creation

	// Durability configuration and store-wide counters (see durable.go).
	// dataDir == "" disables persistence entirely.
	dataDir      string
	verifyOnLoad bool

	persistFails atomic.Int64 // failed snapshot writes / journal appends

	// metrics is the observability surface the hot paths record into.
	// Stats reads its batch and durability counters, so each of those
	// events is counted once. See Store.Metrics.
	metrics *storeMetrics

	mu     sync.RWMutex
	byName map[string]*storeEntry
	closed bool
}

type storeEntry struct {
	// sem is a 1-slot semaphore serializing (re)builds of this name — a
	// mutex whose Lock can be abandoned when the build's context is
	// canceled while waiting (a plain sync.Mutex cannot).
	sem     chan struct{}
	removed bool // guarded by sem
	version atomic.Int64
	cur     atomic.Pointer[Snapshot]

	// Failure state, guarded by failMu (read by Stats/Status while a
	// build holds sem).
	failMu    sync.Mutex
	fails     int
	lastErr   string
	lastErrAt time.Time

	// traces retains the entry's recent build attempts (see Store.Trace).
	traces traceRing

	// Mutation state (see mutate.go). mutMu is a leaf lock in the entry's
	// lock order: it may be taken while holding sem, but a goroutine
	// holding mutMu must never wait on sem.
	mutMu          sync.Mutex
	deltaQ         []edgeDelta // pending rebuild-class mutations, arrival order
	deltaSince     time.Time   // arrival of the oldest pending delta
	inFlightDeltas int         // deltas stolen by a running flush, not yet applied
	flushing       bool        // a coalesced delta flush is scheduled or running
	// graphGen counts graph replacements (Load with an explicit graph).
	// A stolen delta batch from an older generation is dropped: its edges
	// describe a graph that no longer exists.
	graphGen atomic.Uint64
	flushes  atomic.Int64 // coalesced delta rebuilds published
	// flushKick wakes a flusher sleeping out its coalesce window early
	// (FlushDeltas sends it so a synchronous drain never waits out the
	// window). Buffered; a new flusher drops a stale kick before its
	// window starts.
	flushKick chan struct{}

	// Durability state (see durable.go); all dormant with DataDir unset.
	// jmu guards the journal handle, walSeq, and the reusable encode
	// buffers; it is a leaf like mutMu (may be taken under sem or mutMu,
	// never waits on either). appliedSeq — the highest journal seq fully
	// reflected in the published snapshot — is guarded by sem, like the
	// publish it describes.
	jmu        sync.Mutex
	journal    *persist.Journal
	walSeq     uint64
	jAdds      []persist.JEdge
	jDels      []persist.JEdge
	appliedSeq uint64

	// pwMu serializes snapshot writes for this entry (the background
	// persister vs Store.Persist). pmu guards the persister's scheduling
	// flags and the persist-error state; it is a leaf.
	pwMu           sync.Mutex
	pmu            sync.Mutex
	persistDirty   bool
	persistRunning bool
	persistStopped bool
	persistErr     string
	persistErrAt   time.Time
}

// pendingDeltas returns the entry's unapplied mutation count and the age
// of the oldest one (zero when none are pending).
func (en *storeEntry) pendingDeltas() (int, time.Duration) {
	en.mutMu.Lock()
	defer en.mutMu.Unlock()
	n := len(en.deltaQ) + en.inFlightDeltas
	if n == 0 || en.deltaSince.IsZero() {
		return n, 0
	}
	return n, time.Since(en.deltaSince)
}

func newStoreEntry() *storeEntry {
	return &storeEntry{
		sem:       make(chan struct{}, 1),
		flushKick: make(chan struct{}, 1),
	}
}

func (en *storeEntry) lock() { en.sem <- struct{}{} }

// lockCtx acquires the build lock unless ctx is done first.
func (en *storeEntry) lockCtx(ctx context.Context) error {
	select {
	case en.sem <- struct{}{}:
		return nil
	default:
	}
	select {
	case en.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (en *storeEntry) unlock() { <-en.sem }

func (en *storeEntry) recordFailure(err error) {
	en.failMu.Lock()
	en.fails++
	en.lastErr = err.Error()
	en.lastErrAt = time.Now()
	en.failMu.Unlock()
}

func (en *storeEntry) clearFailure() {
	en.failMu.Lock()
	en.fails = 0
	en.lastErr = ""
	en.lastErrAt = time.Time{}
	en.failMu.Unlock()
}

// failure returns the entry's failure state.
func (en *storeEntry) failure() (int, string, time.Time) {
	en.failMu.Lock()
	defer en.failMu.Unlock()
	return en.fails, en.lastErr, en.lastErrAt
}

// StoreConfig tunes a Store's fault-tolerance envelope; the zero value
// of every field selects the permissive default (NewStore's behavior).
type StoreConfig struct {
	// Workers is the Runner worker budget shared by all builds
	// (< 1 selects GOMAXPROCS).
	Workers int
	// MaxConcurrentBuilds bounds Load and Rebuild builds in flight
	// across all names (0 = unbounded). Builds beyond the bound wait up
	// to BuildQueueWait for a slot, then fail wrapping ErrSaturated.
	// Delta flush builds take no slot: a shed flush would park mutations
	// that were already acknowledged until the next mutation arrives to
	// restart the flusher.
	MaxConcurrentBuilds int
	// BuildQueueWait is how long an admitted-over-capacity build may
	// wait for a slot before being shed (0 = shed immediately when
	// saturated). Only meaningful with MaxConcurrentBuilds > 0.
	BuildQueueWait time.Duration
	// BuildTimeout caps every build (0 = none); it composes with — never
	// extends — the caller's context deadline. An over-deadline build is
	// cooperatively canceled, frees its admission slot, and leaves the
	// entry serving its last-good snapshot.
	BuildTimeout time.Duration
	// MutationCoalesce is how long a delta flush waits after the first
	// queued mutation arrives before rebuilding, so a burst of N
	// mutations coalesces into O(1) rebuilds instead of N (0 = flush
	// immediately; the steal-the-whole-queue drain still coalesces any
	// mutations that arrive while a flush build is in flight). Mutations
	// that arrive during a flush build wait one more window after it, so
	// consecutive flush builds are always at least this far apart.
	MutationCoalesce time.Duration
	// DataDir enables durable serving (see durable.go): every full build
	// persists a checksummed, mmap-able snapshot under DataDir/<graph>/,
	// every mutation journals to a write-ahead log before acknowledging,
	// and Store.Recover restores both after a restart. Empty disables
	// persistence entirely — the default, and the pre-durability
	// behavior.
	DataDir string
	// VerifyOnLoad makes Recover validate every section checksum before
	// serving a restored snapshot, instead of the default lazy scheme
	// (header/meta/directory eagerly, sections in the background while
	// the snapshot already serves).
	VerifyOnLoad bool
}

// NewStore returns a Store whose rebuilds share a Runner with workers-1
// pool goroutines (workers < 1 selects GOMAXPROCS), with no admission
// bound and no build timeout. Close releases the workers.
func NewStore(workers int) *Store {
	return NewStoreWithConfig(StoreConfig{Workers: workers})
}

// NewStoreWithConfig returns a Store with the given fault-tolerance
// configuration; see StoreConfig.
func NewStoreWithConfig(cfg StoreConfig) *Store {
	s := &Store{
		runner:           NewRunner(cfg.Workers),
		epochs:           epoch.NewDomain(),
		byName:           map[string]*storeEntry{},
		queueWait:        cfg.BuildQueueWait,
		buildTimeout:     cfg.BuildTimeout,
		mutationCoalesce: cfg.MutationCoalesce,
		dataDir:          cfg.DataDir,
		verifyOnLoad:     cfg.VerifyOnLoad,
	}
	if cfg.MaxConcurrentBuilds > 0 {
		s.buildSem = make(chan struct{}, cfg.MaxConcurrentBuilds)
	}
	s.metrics = newStoreMetrics(s)
	s.runner.metrics = &s.metrics.runner
	return s
}

// Runner returns the Store's Runner, for callers that want to share its
// worker budget for ad-hoc decompositions.
func (s *Store) Runner() *Runner { return s.runner }

func notLoadedErr(name string) error {
	return fmt.Errorf("fastbcc: graph %q: %w", name, ErrNotLoaded)
}

func (s *Store) lookup(name string) (*storeEntry, error) {
	s.mu.RLock()
	en := s.byName[name]
	s.mu.RUnlock()
	if en == nil {
		return nil, notLoadedErr(name)
	}
	return en, nil
}

// Load computes the decomposition and index of g and installs it as the
// current snapshot of name (creating or replacing the entry). It returns
// the new snapshot retained for the caller: Release it when done. A nil
// g is an error and leaves the catalog untouched.
//
// The build observes ctx cooperatively: canceling it (or exceeding its
// deadline, or the Store's BuildTimeout) abandons the build, frees its
// admission slot, and leaves the entry's previous snapshot — if any —
// serving. A failed build records per-entry failure state (see Status).
func (s *Store) Load(ctx context.Context, name string, g *Graph, opts *Options) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("fastbcc: load %q: nil graph", name)
	}
	en, err := s.entry(name)
	if err != nil {
		return nil, err
	}
	return s.build(ctx, en, name, g, opts)
}

// entry returns name's catalog entry, creating it if absent.
func (s *Store) entry(name string) (*storeEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("fastbcc: %w", ErrStoreClosed)
	}
	en := s.byName[name]
	if en == nil {
		en = newStoreEntry()
		s.byName[name] = en
		s.catalogGen.Add(1)
	}
	return en, nil
}

// Rebuild recomputes the current graph of name into a new snapshot
// version (for example after tuning Options, or with a different
// opts.Algorithm to switch engines; an empty Algorithm keeps the entry's
// current one). It returns the new snapshot retained for the caller:
// Release it when done. Cancellation, timeout, admission, and failure
// recording behave exactly as in Load.
func (s *Store) Rebuild(ctx context.Context, name string, opts *Options) (*Snapshot, error) {
	en, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return s.build(ctx, en, name, nil, opts)
}

// admit takes an admission slot, waiting up to queueWait when the gate
// is full; the caller must release the slot. A nil gate admits freely.
func (s *Store) admit(ctx context.Context) error {
	if s.buildSem == nil {
		return nil
	}
	select {
	case s.buildSem <- struct{}{}:
		return nil
	default:
	}
	if s.queueWait <= 0 {
		return fmt.Errorf("fastbcc: %w", ErrSaturated)
	}
	t := time.NewTimer(s.queueWait)
	defer t.Stop()
	select {
	case s.buildSem <- struct{}{}:
		return nil
	case <-t.C:
		return fmt.Errorf("fastbcc: %w (no slot freed in %v)", ErrSaturated, s.queueWait)
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Store) releaseSlot() {
	if s.buildSem != nil {
		<-s.buildSem
	}
}

// build computes and installs one snapshot version. g == nil reuses the
// entry's current graph (Rebuild); the read happens under the entry's
// build lock so a concurrent Load's replacement graph is not lost.
func (s *Store) build(ctx context.Context, en *storeEntry, name string, g *Graph, opts *Options) (*Snapshot, error) {
	// Admission first: saturation is detected ahead of any per-entry
	// lock queue, so a shed build never holds anything.
	if err := s.admit(ctx); err != nil {
		if errors.Is(err, ErrSaturated) {
			s.metrics.buildSheds.Inc()
		}
		return nil, err
	}
	defer s.releaseSlot()
	if s.buildTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.buildTimeout)
		defer cancel()
	}
	for {
		if err := en.lockCtx(ctx); err != nil {
			return nil, err
		}
		if !en.removed {
			break
		}
		// The entry retired between our lookup and taking its lock (a
		// concurrent Remove or Close). A Rebuild of a removed name
		// correctly fails; a Load must (re)create the entry — erroring
		// here was the historical Load-vs-Remove race — so re-resolve
		// the name and retry on the fresh entry.
		en.unlock()
		if g == nil {
			return nil, notLoadedErr(name)
		}
		var err error
		en, err = s.entry(name)
		if err != nil {
			return nil, err
		}
	}
	defer en.unlock()
	var o Options
	if opts != nil {
		o = *opts
	}
	cur := en.cur.Load()
	if g == nil && cur == nil {
		return nil, notLoadedErr(name)
	}
	snap, err := s.buildLocked(ctx, en, name, cur, g, nil, o)
	if err != nil {
		return nil, err
	}
	if g != nil {
		// The graph was replaced wholesale: pending deltas describe edges
		// of the old graph and die with it. Bumping the generation also
		// tells a flush that already stole a batch to drop it.
		en.mutMu.Lock()
		en.graphGen.Add(1)
		en.deltaQ = nil
		en.deltaSince = time.Time{}
		en.mutMu.Unlock()
		// Journal history dies with the old graph too; appliedSeq catches
		// up to walSeq so no obsolete record replays over the new graph.
		s.initDurableEntry(en, name)
	}
	s.publish(en, snap, 2) // the store's reference + the returned one
	s.kickPersist(en, name)
	return snap, nil
}

// buildLocked runs one build attempt for en and returns the new version,
// not yet published. Caller holds en's build lock. A non-nil g is built
// as given (a Load); g == nil rebuilds cur's graph with its overlay and
// the deltas q folded into a fresh CSR (a Rebuild passes none, a delta
// flush its stolen batch), so no applied mutation is lost to a rebuild.
// A Rebuild leaves pending deltas queued: they apply on top of the new
// version, in the same graph generation.
//
// An empty o.Algorithm selects cur's engine when rebuilding — a rebuild
// sticks with the engine the graph was loaded with — but the default
// engine on a Load, including one that replaces an existing entry. An
// unknown algorithm fails before the attempt starts. Every other attempt,
// fold included, is timed and recorded once: the trace ring, the
// entry's failure state, buildFails and the build metrics.
func (s *Store) buildLocked(ctx context.Context, en *storeEntry, name string, cur *Snapshot, g *Graph, q []edgeDelta, o Options) (*Snapshot, error) {
	if g == nil && o.Algorithm == "" {
		o.Algorithm = cur.Algorithm
	}
	algo, err := resolveAlgorithm(o.Algorithm)
	if err != nil {
		return nil, err
	}
	o.Algorithm = algo
	t0 := time.Now()
	s.inFlight.Add(1)
	g, res, idx, err := s.foldAndBuild(ctx, cur, g, q, &o)
	s.inFlight.Add(-1)
	dur := time.Since(t0)
	if err != nil && q != nil {
		err = fmt.Errorf("fastbcc: delta flush: %w", err)
	}
	trace := BuildTrace{Algorithm: algo, StartedAt: t0, Duration: dur, Outcome: buildOutcome(err)}
	if err != nil {
		// Panic, cancellation, deadline, injected fault, fold or engine
		// error: the last-good snapshot, if any, keeps serving.
		trace.Error = err.Error()
		en.traces.add(trace)
		en.recordFailure(err)
		s.buildFails.Add(1)
		s.metrics.recordBuild(err, dur, PhaseTimes{})
		return nil, err
	}
	en.clearFailure()
	snap := &Snapshot{
		Name:      name,
		Version:   en.version.Add(1),
		Algorithm: algo,
		Graph:     g,
		Result:    res,
		Index:     idx,
		BuiltAt:   time.Now(),
		BuildTime: dur,
	}
	trace.Version = snap.Version
	trace.Phases = res.Times
	en.traces.add(trace)
	s.metrics.recordBuild(nil, dur, res.Times)
	return snap, nil
}

// foldAndBuild is buildLocked's fallible part: the delta-flush fault
// point, the fold, and the pipeline run, with any panic — the armed
// fault point's included — captured as an error wrapping ErrBuildPanic.
func (s *Store) foldAndBuild(ctx context.Context, cur *Snapshot, g *Graph, q []edgeDelta, o *Options) (_ *Graph, res *Result, idx *Index, err error) {
	defer recoverBuildPanic(&err)
	if g == nil {
		if q != nil {
			if err := faultpoint.CheckCtx(ctx, faultpoint.MutateDeltaFlush); err != nil {
				return nil, nil, nil, err
			}
		}
		g = cur.Graph
		if len(cur.overlay) > 0 || len(q) > 0 {
			if g, err = materializeGraph(s.runner.exec, cur.Graph, cur.overlay, q); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	if res, idx, err = s.runner.buildIndex(ctx, g, o); err != nil {
		return nil, nil, nil, err
	}
	return g, res, idx, nil
}

// publish installs snap as en's current version. It is the one place a
// version gets its store, its journal watermark (appliedSeq, guarded by
// the build lock the caller holds, is exactly what snap reflects), its
// initial refcount — the store's reference plus any the caller hands
// out — and its live count. A version that shares the replaced one's CSR
// also shares its mmap mapping, whose reference it then holds. The
// replaced version is retired into the epoch domain: epoch-pinned
// readers may still be inside it, so the store's reference drops only
// once every pin that could hold it has drained.
func (s *Store) publish(en *storeEntry, snap *Snapshot, refs int64) {
	snap.store = s
	snap.mutSeq = en.appliedSeq
	snap.refs.Store(refs)
	if cur := en.cur.Load(); cur != nil && cur.mapping != nil && cur.Graph == snap.Graph {
		cur.mapping.Retain()
		snap.mapping = cur.mapping
	}
	s.live.Add(1)
	if old := en.cur.Swap(snap); old != nil {
		s.epochs.Retire(old.Release)
	}
}

// Acquire retains and returns the current snapshot of name. The caller
// must Release it; until then the snapshot stays valid even if a rebuild
// supersedes it. Acquire never blocks on builds, admission, or failure
// handling — it is the untouched query hot path.
func (s *Store) Acquire(name string) (*Snapshot, error) {
	en, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	for {
		snap := en.cur.Load()
		if snap == nil {
			return nil, notLoadedErr(name)
		}
		if snap.tryRetain() {
			s.metrics.acquiresCAS.Inc()
			return snap, nil
		}
		// The snapshot died between the load and the retain (swapped out
		// and fully released); the entry now points at its replacement.
	}
}

// Remove drops name from the catalog. Snapshots already acquired stay
// valid until released.
func (s *Store) Remove(name string) error {
	s.mu.Lock()
	en := s.byName[name]
	if en != nil {
		delete(s.byName, name)
		s.catalogGen.Add(1)
	}
	s.mu.Unlock()
	if en == nil {
		return notLoadedErr(name)
	}
	s.retire(en)
	// Remove deletes the graph's persisted state too — otherwise the next
	// Recover would resurrect a graph the operator deleted. (Close does
	// NOT delete: shutdown persistence is the whole point.)
	if s.dataDir != "" {
		os.RemoveAll(s.graphDir(name))
	}
	return nil
}

func (s *Store) retire(en *storeEntry) {
	en.lock()
	en.removed = true
	old := en.cur.Swap(nil)
	en.unlock()
	s.closeDurable(en)
	if old != nil {
		s.epochs.Retire(old.Release)
	}
}

// Names returns the loaded graph names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.byName))
	for name := range s.byName {
		out = append(out, name)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// GraphStatus is the per-entry health record Status reports: the
// serving version plus the failure state fault-tolerant rebuilds
// maintain.
type GraphStatus struct {
	// Name is the catalog name.
	Name string
	// Loaded reports whether the entry currently serves a snapshot. An
	// entry can exist unloaded when its initial build failed — the
	// failure fields say why.
	Loaded bool
	// Version is the serving snapshot's version (0 when not Loaded).
	Version int64
	// Algorithm is the serving snapshot's engine ("" when not Loaded).
	Algorithm string
	// ConsecutiveFailures counts failed builds since the last success;
	// 0 for a healthy entry. LastError/LastErrorAt describe the most
	// recent failure and are cleared by the next successful build.
	ConsecutiveFailures int
	LastError           string
	LastErrorAt         time.Time
	// LastBuild is the most recent build attempt's trace (nil when the
	// entry has never reached the engine); Store.Trace returns the full
	// retained ring.
	LastBuild *BuildTrace
	// Phases is the serving snapshot's per-phase build breakdown (zero
	// when not Loaded).
	Phases PhaseTimes

	// Mutation staleness (see Store.ApplyBatch). PendingDeltas counts
	// mutations accepted but not yet applied — the serving snapshot does
	// not reflect them — and DeltaAge is the age of the oldest one.
	// OverlayEdges counts fast insertions applied to the serving
	// snapshot but not yet folded into its CSR (queries already reflect
	// them). DeltaFlushes counts the coalesced delta rebuilds published
	// for this entry.
	PendingDeltas int
	DeltaAge      time.Duration
	OverlayEdges  int
	DeltaFlushes  int64

	// Durability state (always false/empty with DataDir unset).
	// DurabilityDegraded reports that the entry's most recent snapshot
	// write or journal append failed: serving and acknowledgments
	// continue, but a crash now may lose state. LastPersistError says
	// why; a successful snapshot persist clears both.
	DurabilityDegraded bool
	LastPersistError   string
	LastPersistErrorAt time.Time
}

// Status reports the health of name's entry: the serving version and
// the failure state of recent builds. Unlike Acquire it succeeds for an
// entry whose builds have all failed (Loaded false), which is how
// operators see why a graph never came up.
func (s *Store) Status(name string) (GraphStatus, error) {
	en, err := s.lookup(name)
	if err != nil {
		return GraphStatus{}, err
	}
	st := GraphStatus{Name: name}
	st.ConsecutiveFailures, st.LastError, st.LastErrorAt = en.failure()
	st.PendingDeltas, st.DeltaAge = en.pendingDeltas()
	st.DeltaFlushes = en.flushes.Load()
	if perr, pat := en.persistState(); perr != "" {
		st.DurabilityDegraded = true
		st.LastPersistError = perr
		st.LastPersistErrorAt = pat
	}
	if t, ok := en.traces.last(); ok {
		st.LastBuild = &t
	}
	if cur := en.cur.Load(); cur != nil {
		st.Loaded = true
		st.Version = cur.Version
		st.Algorithm = cur.Algorithm
		st.OverlayEdges = len(cur.overlay)
		if cur.Result != nil {
			st.Phases = cur.Result.Times
		}
	}
	return st, nil
}

// StoreStats is a point-in-time gauge of the catalog.
type StoreStats struct {
	// Graphs is the number of loaded names.
	Graphs int
	// LiveSnapshots counts snapshots with at least one outstanding
	// reference — current versions plus superseded ones still held by
	// in-flight readers or awaiting epoch reclamation.
	LiveSnapshots int64
	// RetiredSnapshots counts superseded snapshots retired into the
	// epoch domain and not yet reclaimed. Steady nonzero growth means a
	// reader is holding a pin (or a handle leaked while pinned).
	RetiredSnapshots int
	// Batches and BatchQueries count QueryBatch calls and the scalar
	// queries they carried since the Store was created.
	Batches      int64
	BatchQueries int64
	// ByAlgorithm counts loaded graphs by the engine of their current
	// snapshot.
	ByAlgorithm map[string]int
	// FailingGraphs counts entries whose most recent build failed
	// (ConsecutiveFailures > 0); they keep serving their last-good
	// snapshot, if any. Nonzero means the catalog is degraded.
	FailingGraphs int
	// BuildFailures is the cumulative count of failed builds (panics,
	// cancellations, timeouts, engine errors) since the Store was
	// created.
	BuildFailures int64
	// InFlightBuilds is the number of builds currently executing on the
	// Runner (admitted, not yet finished).
	InFlightBuilds int64
	// PendingDeltas totals mutations accepted by ApplyBatch but not yet
	// applied across all entries — the catalog's mutation staleness.
	// DeltaFlushes totals the coalesced delta rebuilds published.
	PendingDeltas int64
	DeltaFlushes  int64
	// Durability counters (all zero with DataDir unset; see durable.go).
	// PersistedSnapshots/PersistFailures count snapshot writes and any
	// durability failure (snapshot or journal); WalAppends counts journal
	// records appended; DegradedGraphs counts entries currently in the
	// durability-degraded state; RecoveredGraphs/ReplayedMutations
	// describe what Recover restored.
	PersistedSnapshots int64
	PersistFailures    int64
	WalAppends         int64
	DegradedGraphs     int
	RecoveredGraphs    int64
	ReplayedMutations  int64
}

// Stats returns current catalog gauges. Reading stats also runs an
// epoch reclamation scan, so the live/retired gauges report what is
// actually reachable, not garbage merely awaiting the next rebuild.
func (s *Store) Stats() StoreStats {
	s.epochs.Reclaim()
	byAlgo := map[string]int{}
	failing, degraded := 0, 0
	var pendingDeltas, deltaFlushes int64
	s.mu.RLock()
	n := len(s.byName)
	for _, en := range s.byName {
		if cur := en.cur.Load(); cur != nil {
			byAlgo[cur.Algorithm]++
		}
		if f, _, _ := en.failure(); f > 0 {
			failing++
		}
		if perr, _ := en.persistState(); perr != "" {
			degraded++
		}
		p, _ := en.pendingDeltas()
		pendingDeltas += int64(p)
		deltaFlushes += en.flushes.Load()
	}
	s.mu.RUnlock()
	// The batch bank carries the call count in batchSlot and the query
	// volume in the per-op slots. See Snapshot.QueryBatch.
	m := s.metrics
	var batchQueries int64
	for op := OpConnected; op < opEnd; op++ {
		batchQueries += m.batchQueries.Value(int(op))
	}
	return StoreStats{
		Graphs:           n,
		LiveSnapshots:    s.live.Load(),
		RetiredSnapshots: s.epochs.Retired(),
		Batches:          m.batchQueries.Value(batchSlot),
		BatchQueries:     batchQueries,
		ByAlgorithm:      byAlgo,
		FailingGraphs:    failing,
		BuildFailures:    s.buildFails.Load(),
		InFlightBuilds:   s.inFlight.Load(),
		PendingDeltas:    pendingDeltas,
		DeltaFlushes:     deltaFlushes,

		PersistedSnapshots: m.persistSnapOK.Value(),
		PersistFailures:    s.persistFails.Load(),
		WalAppends:         m.walAppendOK.Value(),
		DegradedGraphs:     degraded,
		RecoveredGraphs:    m.recovered.Value(),
		ReplayedMutations:  m.replayed.Value(),
	}
}

// Close retires every entry and releases the Store's workers. Snapshots
// already acquired stay valid until released; Load/Rebuild/Acquire after
// Close fail wrapping ErrStoreClosed. Close is idempotent.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	entries := make([]*storeEntry, 0, len(s.byName))
	for _, en := range s.byName {
		entries = append(entries, en)
	}
	s.byName = map[string]*storeEntry{}
	s.catalogGen.Add(1)
	s.mu.Unlock()
	for _, en := range entries {
		s.retire(en)
	}
	// Snapshots still pinned by open handles survive this scan; a later
	// Stats (or the handles' own Release path via rebuild churn) drains
	// them once the pins go quiescent.
	s.epochs.Reclaim()
	s.runner.Close()
}
