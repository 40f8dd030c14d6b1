package fastbcc

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/faultpoint"
)

// QueryOp identifies one scalar query in a batch. The boolean ops mirror
// the Index methods of the same name; OpCutsOnPath and OpBridgesOnPath
// are the counting forms (enumeration stays on the scalar Index API —
// batches are fixed-size answers by design, which is what keeps them
// allocation-free and wire-compact).
type QueryOp uint8

const (
	// OpConnected: are U and V in the same connected component?
	OpConnected QueryOp = 1 + iota
	// OpBiconnected: do U and V share a biconnected component?
	OpBiconnected
	// OpTwoEdgeConnected: does no single edge removal disconnect U and V?
	OpTwoEdgeConnected
	// OpSeparates: does removing X disconnect U from V?
	OpSeparates
	// OpCutsOnPath counts articulation points strictly between U and V.
	OpCutsOnPath
	// OpBridgesOnPath counts bridges every U-V route must cross.
	OpBridgesOnPath

	opEnd
)

var opNames = [opEnd]string{
	OpConnected:        "connected",
	OpBiconnected:      "biconnected",
	OpTwoEdgeConnected: "twoecc",
	OpSeparates:        "separates",
	OpCutsOnPath:       "cuts",
	OpBridgesOnPath:    "bridges",
}

// Valid reports whether op is a defined query operation.
func (op QueryOp) Valid() bool { return op >= OpConnected && op < opEnd }

// Counts reports whether op's answer is a count (true) or a boolean
// encoded as 0/1 (false).
func (op QueryOp) Counts() bool { return op == OpCutsOnPath || op == OpBridgesOnPath }

// String returns the op's wire/API name — the same names cmd/bccd uses
// for its scalar query endpoints.
func (op QueryOp) String() string {
	if op.Valid() {
		return opNames[op]
	}
	return fmt.Sprintf("QueryOp(%d)", uint8(op))
}

// ParseQueryOp maps an op name ("connected", "separates", ...) to its
// QueryOp, the inverse of String.
func ParseQueryOp(name string) (QueryOp, error) {
	for op := OpConnected; op < opEnd; op++ {
		if opNames[op] == name {
			return op, nil
		}
	}
	return 0, fmt.Errorf("fastbcc: unknown query op %q", name)
}

// Query is one scalar query in a batch. X is consulted only by
// OpSeparates.
type Query struct {
	Op QueryOp
	U  int32
	V  int32
	X  int32
}

// Answer is one query's scalar result: 0/1 for the boolean ops, the
// count for OpCutsOnPath/OpBridgesOnPath.
type Answer int32

// Bool interprets the answer of a boolean op.
func (a Answer) Bool() bool { return a != 0 }

// Count interprets the answer of a counting op.
func (a Answer) Count() int { return int(a) }

// Handle is a reader's registration in the Store's epoch-reclamation
// domain — the serving fast path. Acquire/Release through a Handle are
// two uncontended atomic stores on the handle's private cacheline-padded
// slot, instead of the CAS retain/release pair on the snapshot's shared
// refcount that handle-less Store.Acquire performs; under many reader
// goroutines the shared-refcount cacheline is the serving bottleneck,
// not the 2–14ns query core.
//
// Obtain one Handle per goroutine (or pool them per connection) with
// Store.NewHandle, reuse it across batches, and Close it when the
// goroutine retires. A Handle must not be used concurrently.
type Handle struct {
	store *Store
	eh    *epoch.Handle

	// Single-entry resolution cache: a handle typically hammers one
	// graph, and revalidating against the catalog generation turns the
	// per-batch name lookup into a pointer compare instead of a trip
	// through the catalog RWMutex (a shared cacheline, like the
	// refcount this type exists to avoid).
	cacheGen  uint64
	cacheName string
	cacheEn   *storeEntry
}

// NewHandle registers a reader with the Store's epoch domain. The
// returned Handle is the fast-path alternative to Store.Acquire; see
// Handle. Handles remain usable after the Store closes (they answer
// ErrStoreClosed/ErrNotLoaded like the rest of the API).
func (s *Store) NewHandle() *Handle {
	return &Handle{store: s, eh: s.epochs.NewHandle()}
}

// Close unregisters the handle, releasing any reservation it still
// holds and recycling its epoch slot. The Handle must not be used
// afterwards. Close is idempotent.
func (h *Handle) Close() {
	h.eh.Close()
	h.cacheEn = nil
	h.cacheName = ""
}

// entry resolves name to its catalog entry, consulting the handle's
// cache first: while the catalog shape is unchanged (no loads of new
// names, removes, or close), the resolution is two loads and a string
// compare — no shared-memory writes.
func (h *Handle) entry(name string) (*storeEntry, error) {
	gen := h.store.catalogGen.Load()
	if h.cacheEn != nil && h.cacheGen == gen && h.cacheName == name {
		return h.cacheEn, nil
	}
	en, err := h.store.lookup(name)
	if err != nil {
		h.cacheEn = nil
		return nil, err
	}
	h.cacheGen, h.cacheName, h.cacheEn = gen, name, en
	return en, nil
}

// Acquire pins the handle and returns the current snapshot of name. The
// snapshot is valid until the matching Release — even if rebuilds
// supersede it — and must not be used afterwards. Unlike handle-less
// Store.Acquire it takes no shared-memory RMW: the pin is a store to
// the handle's private slot. Do NOT call Snapshot.Release on the result;
// the handle's Release ends the reservation.
//
// Acquire never blocks on builds, admission, or failure handling.
// Acquires nest (each needs its own Release), and the reservation
// covers every snapshot acquired under it.
func (h *Handle) Acquire(name string) (*Snapshot, error) {
	en, err := h.entry(name)
	if err != nil {
		return nil, err
	}
	h.eh.Pin()
	snap := en.cur.Load()
	if snap == nil {
		h.eh.Unpin()
		return nil, notLoadedErr(name)
	}
	h.store.metrics.acquiresEpoch.Inc()
	return snap, nil
}

// Release ends the reservation of the matching Acquire. Snapshots
// acquired under it must not be used afterwards.
func (h *Handle) Release() { h.eh.Unpin() }

// checkEvery is how many queries a batch executes between context
// checks; a power of two so the check is a mask test.
const checkEvery = 1 << 12

// parallelBatchMin is the batch size above which QueryBatch fans the
// queries out over the Store's Runner workers. Below it the sequential
// loop wins (and stays strictly allocation-free).
const parallelBatchMin = 1 << 15

// QueryBatch answers qs against the snapshot sn, appending one Answer
// per query to dst[:0] (pass a recycled dst with enough capacity to
// keep the call allocation-free; nil allocates). The caller must hold
// sn by either reader discipline — an epoch pin or a refcount — for the
// whole call.
//
// Batches larger than an internal threshold execute in parallel on the
// snapshot's Store Runner workers (the build pool; the submitting
// goroutine always participates, so a batch makes progress even while
// builds saturate the pool). ctx is observed cooperatively every few
// thousand queries; a canceled or over-deadline batch returns the
// context's error and no answers.
//
// Every query is validated (known op, vertices in range); an invalid
// query fails the whole batch with an error naming its index — no
// partial answers.
func (sn *Snapshot) QueryBatch(ctx context.Context, qs []Query, dst []Answer) ([]Answer, error) {
	if err := faultpoint.CheckCtx(ctx, faultpoint.SlowQuery); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dst = dst[:0]
	if cap(dst) < len(qs) {
		dst = make([]Answer, 0, len(qs))
	}
	answers := dst[:len(qs)]
	idx := sn.Index
	n := int32(sn.Graph.NumVertices())

	var counts opCounts
	// A Snapshot built outside a Store has no Runner to fan out over;
	// it answers every batch on the calling goroutine.
	if len(qs) >= parallelBatchMin && sn.store != nil {
		if err := sn.queryParallel(ctx, idx, n, qs, answers); err != nil {
			return nil, err
		}
		// Large batches count in a separate pass: its cost amortizes
		// over >=32K queries, and the workers stay untouched.
		for i := range qs {
			counts[qs[i].Op&7]++
		}
	} else {
		for i := range qs {
			if i&(checkEvery-1) == checkEvery-1 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			a, ok := execQuery(idx, n, &qs[i])
			if !ok {
				return nil, queryErr(i, &qs[i], n)
			}
			answers[i] = a
			// Per-op tally: one stack add overlapped with the query
			// work, masked so the validated op indexes without a bounds
			// check.
			counts[qs[i].Op&7]++
		}
	}
	// Stats accounting: the batch call rides the same bank flush as the
	// per-op tallies, so Stats and fastbcc_batches_total read one count.
	// A store-less Snapshot has nothing to record into.
	if sn.store != nil {
		counts[batchSlot] = 1
		sn.store.metrics.recordBatch(&counts)
	}
	return answers, nil
}

// queryParallel is the large-batch path: the queries are blocked over
// the Store's Runner execution context (dynamic claiming shares the
// workers fairly with any in-flight builds). Failures record the lowest
// failing query index so the reported error is deterministic.
func (sn *Snapshot) queryParallel(ctx context.Context, idx *Index, n int32, qs []Query, answers []Answer) error {
	bad := atomic.Int64{}
	bad.Store(int64(len(qs)))
	canceled := atomic.Bool{}
	sn.store.runner.exec.ForBlock(len(qs), checkEvery, func(lo, hi int) {
		if ctx.Err() != nil {
			canceled.Store(true)
			return
		}
		for i := lo; i < hi; i++ {
			a, ok := execQuery(idx, n, &qs[i])
			if !ok {
				// Record the lowest failing index; answers past it are
				// garbage but the batch errors anyway.
				for {
					cur := bad.Load()
					if int64(i) >= cur || bad.CompareAndSwap(cur, int64(i)) {
						break
					}
				}
				return
			}
			answers[i] = a
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	if canceled.Load() {
		return context.Canceled
	}
	if i := bad.Load(); i < int64(len(qs)) {
		return queryErr(int(i), &qs[i], n)
	}
	return nil
}

// execQuery answers one validated query; ok is false for an unknown op
// or out-of-range vertex (the unsigned compares fold the negative and
// too-large cases into one branch each).
func execQuery(idx *Index, n int32, q *Query) (Answer, bool) {
	u, v := q.U, q.V
	if uint32(u) >= uint32(n) || uint32(v) >= uint32(n) {
		return 0, false
	}
	switch q.Op {
	case OpConnected:
		return b2a(idx.Connected(u, v)), true
	case OpBiconnected:
		return b2a(idx.Biconnected(u, v)), true
	case OpTwoEdgeConnected:
		return b2a(idx.TwoEdgeConnected(u, v)), true
	case OpSeparates:
		if uint32(q.X) >= uint32(n) {
			return 0, false
		}
		return b2a(idx.Separates(q.X, u, v)), true
	case OpCutsOnPath:
		return Answer(idx.NumCutsOnPath(u, v)), true
	case OpBridgesOnPath:
		return Answer(idx.NumBridgesOnPath(u, v)), true
	}
	return 0, false
}

func b2a(b bool) Answer {
	if b {
		return 1
	}
	return 0
}

// queryErr builds the batch-failing error for query i: the off-hot-path
// diagnosis of what execQuery rejected.
func queryErr(i int, q *Query, n int32) error {
	switch {
	case !q.Op.Valid():
		return fmt.Errorf("fastbcc: query %d: invalid op %d", i, uint8(q.Op))
	case uint32(q.U) >= uint32(n):
		return fmt.Errorf("fastbcc: query %d: vertex u=%d out of range [0,%d)", i, q.U, n)
	case uint32(q.V) >= uint32(n):
		return fmt.Errorf("fastbcc: query %d: vertex v=%d out of range [0,%d)", i, q.V, n)
	default:
		return fmt.Errorf("fastbcc: query %d: vertex x=%d out of range [0,%d)", i, q.X, n)
	}
}
