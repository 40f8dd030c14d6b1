// Command bccd is the HTTP serving front end for the biconnectivity
// query subsystem: a fastbcc.Store of named graphs, each with a
// versioned decomposition + query-index snapshot, exposed as a JSON API.
//
// Usage:
//
//	bccd -addr :8080 -workers 8
//	bccd -graph road=road.bin -graph social=social.bin
//
// Endpoints (all JSON):
//
//	GET    /healthz                          liveness + catalog gauges + the
//	                                         registered algorithms with their
//	                                         capability flags
//	GET    /v1/graphs                        list loaded graphs
//	PUT    /v1/graphs/{name}                 load a graph: {"n":..,"edges":[[u,w],..]}
//	                                         or {"path":"file.bin"}; optional
//	                                         "algo" (a registered algorithm
//	                                         name; default "fast"), "seed",
//	                                         "threads", "local_search", "source"
//	GET    /v1/graphs/{name}                 snapshot stats (includes "algo")
//	POST   /v1/graphs/{name}/rebuild         recompute a new snapshot version;
//	                                         "algo" switches the engine, empty
//	                                         keeps the entry's current one
//	DELETE /v1/graphs/{name}                 drop the graph
//	GET    /v1/graphs/{name}/query/{op}?u=&v=[&x=][&list=1]
//	POST   /v1/graphs/{name}/query/batch     answer N queries in one request:
//	                                         {"queries":[{"op":"connected",
//	                                         "u":0,"v":6},...],"timeout_ms":50}
//	                                         or, with Content-Type
//	                                         application/x-fastbcc-batch, a
//	                                         binary frame (13 bytes/query,
//	                                         4 bytes/answer; see internal/wire)
//	POST   /v1/graphs/{name}/edges           mutate the graph in place:
//	                                         {"add":[[u,w],..],"del":[[u,w],..]}
//	                                         or, with Content-Type
//	                                         application/x-fastbcc-mutation, a
//	                                         binary "bcu1" frame (8 bytes/edge).
//	                                         Insertions are classified against
//	                                         the serving index and applied by
//	                                         the cheapest exact update; the
//	                                         rest queues for one coalesced
//	                                         rebuild ("queued"/"pending"/
//	                                         "delta_age_ms" in the response,
//	                                         pending_deltas/staleness_ms in
//	                                         the per-graph stats)
//	GET    /v1/graphs/{name}/trace           recent build attempts, newest
//	                                         first: version, outcome, error,
//	                                         duration, and the per-phase
//	                                         breakdown of each build
//	GET    /metrics                          Prometheus text exposition:
//	                                         request/query latency histograms,
//	                                         acquire disciplines, build
//	                                         outcomes and phase timings, epoch
//	                                         reclamation gauges (no external
//	                                         scrape library needed)
//
// Query ops: connected, biconnected, twoecc (2-edge-connected),
// separates (does removing x disconnect u from v), cuts (articulation
// points between u and v; list=1 enumerates them), bridges (bridges
// every u-v route crosses; list=1 enumerates them). A batch answers all
// its queries from one snapshot version under a single epoch
// reservation; the response encoding follows the request's Content-Type
// unless Accept names the other one.
//
// Every graph is served by the engine its snapshot was built with: the
// paper's FAST-BCC by default, or any registered baseline (seq, gbbs,
// sm14, tv, fast-opt) selected per load/rebuild with "algo". All engines
// produce the same decomposition, so query answers are engine-independent;
// the choice trades construction speed, memory, and determinism (see the
// README's "Choosing an algorithm").
//
// Rebuilds run on the store's bounded worker budget and swap snapshots
// atomically, so queries keep being served from the previous version
// while a new one is computed. SIGINT/SIGTERM trigger a graceful
// shutdown: in-flight requests finish, then the store is closed.
//
// # Mutations
//
// POST /v1/graphs/{name}/edges applies edge insertions and deletions
// without a rebuild where the decomposition permits: an insertion whose
// endpoints already share a biconnected and 2-edge-connected block (or a
// self-loop) changes no query answer and publishes a new snapshot in
// O(1) ("fast"); everything else — deletions, and insertions that join
// blocks or components or kill a bridge — queues and is drained by ONE
// coalesced background rebuild per burst (-mutation-coalesce sets the
// gathering window; "collapsed" is retired and always 0). Queries always
// serve the last-good snapshot; the response and stats expose the
// staleness window (pending/delta_age_ms).
//
// # Fault tolerance
//
// Builds are bounded and isolated; queries are never shed. A load or
// rebuild that fails — an engine panic (captured and converted to an
// error), a timeout, a canceled request — leaves the graph serving its
// last-good snapshot and records per-entry failure state, visible in the
// per-graph stats (consecutive_failures, last_error) and in /healthz
// (ok:false + degraded:true while any graph's latest build failed, plus
// failing_graphs / build_failures / in_flight_builds gauges). Builds
// admitted beyond -max-builds wait up to -build-queue-wait for a slot,
// then are shed with 503 + Retry-After; -build-timeout caps every build
// (504 past the deadline), and a per-request "timeout_ms" can tighten it
// further. A client that disconnects mid-build cancels it, freeing its
// admission slot.
//
// # Durability
//
// With -data-dir set, the store persists every graph under
// <data-dir>/<graph>/ as a checksummed, memory-mappable snapshot plus a
// write-ahead journal for mutations: each acknowledged mutation is
// fsynced into the journal BEFORE the HTTP response, and a background
// persister rewrites the snapshot after every full build, truncating the
// journal prefix the snapshot now covers. On startup bccd recovers the
// directory before serving: each graph's last-good snapshot is mmapped
// back (no rebuild — startup is I/O-bound, not compute-bound) and the
// journal tail replays through the ordinary mutation queue, so the first
// query is answered from a stale-but-correct snapshot while one
// coalesced rebuild catches up. Section checksums are verified lazily in
// the background unless -verify-on-load forces eager validation; a
// corrupt snapshot fails only that graph's recovery, reported and
// skipped. Disk trouble never takes down serving: a failed persist or
// journal append degrades durability — surfaced in /healthz
// (degraded_graphs, persist_failures), per-graph stats
// (durability_degraded, last_persist_error), and the fastbcc_persist_*
// metric series — while queries and mutation acks proceed unchanged.
//
// # Observability
//
// GET /metrics exposes the whole serving stack in the Prometheus text
// format with no external dependency (internal/obs): per-endpoint
// request latency histograms and response counters, per-op scalar query
// latency, batch volume and byte counters by codec, acquire-discipline
// counters (epoch pins vs refcount CAS), build outcomes with per-phase
// duration histograms matching the paper's four pipeline phases, and
// epoch-domain live/retired/reclaimed snapshot gauges. Logs are leveled
// structured key=value lines on stderr (-log-level selects the floor;
// -slow-query-ms additionally logs batches over the threshold). The
// pprof surface is mounted under /debug/pprof/ only with -debug-pprof,
// the same explicit gating as -debug-faults.
//
// Flags:
//
//	-addr             listen address (default :8080)
//	-workers          worker budget shared by all rebuilds (0 = GOMAXPROCS)
//	-graph            preload a graph as name=path (repeatable)
//	-drain            graceful-shutdown drain timeout (default 10s)
//	-max-builds       max concurrent builds before shedding (default 16, 0 = unbounded)
//	-build-queue-wait how long a build may wait for a slot (default 1s)
//	-build-timeout    cap on every build, 0 = none
//	-mutation-coalesce how long a delta flush gathers queued mutations
//	                  before rebuilding (default 25ms; 0 = flush at once)
//	-data-dir         persist snapshots + mutation journals here and
//	                  recover them on startup (empty = in-memory only)
//	-verify-on-load   verify every section checksum during recovery
//	                  instead of lazily in the background
//	-log-level        log floor: debug, info, warn, or error (default info)
//	-slow-query-ms    warn-log batch requests slower than this (0 = off)
//	-faultpoints      arm fault-injection points at startup, e.g.
//	                  "build.error=error:after=1" (testing)
//	-debug-faults     mount /debug/faultpoints for arming faults over HTTP
//	                  (testing)
//	-debug-pprof      mount net/http/pprof under /debug/pprof/
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	fastbcc "repro"
	"repro/internal/bccdhttp"
	"repro/internal/faultpoint"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker budget shared by all rebuilds (0 = GOMAXPROCS)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	maxBuilds := flag.Int("max-builds", 16, "max concurrent builds before shedding (0 = unbounded)")
	queueWait := flag.Duration("build-queue-wait", time.Second, "how long a build may wait for an admission slot before 503")
	buildTimeout := flag.Duration("build-timeout", 0, "cap on every build; past it the build is canceled (0 = none)")
	mutationCoalesce := flag.Duration("mutation-coalesce", 25*time.Millisecond,
		"how long a delta flush gathers queued mutations before rebuilding (0 = flush at once)")
	dataDir := flag.String("data-dir", "", "persist snapshots and mutation journals here and recover them on startup (empty = in-memory only)")
	verifyOnLoad := flag.Bool("verify-on-load", false, "verify every snapshot section checksum during recovery instead of lazily in the background")
	logLevel := flag.String("log-level", "info", "log floor: debug, info, warn, or error")
	slowQueryMS := flag.Int("slow-query-ms", 0, "warn-log batch requests slower than this many milliseconds (0 = off)")
	faultSpec := flag.String("faultpoints", "", "arm fault-injection points at startup, e.g. \"build.error=error:after=1\" (testing)")
	debugFaults := flag.Bool("debug-faults", false, "mount /debug/faultpoints for arming faults over HTTP (testing)")
	debugPprof := flag.Bool("debug-pprof", false, "mount net/http/pprof under /debug/pprof/")
	var preload []string
	flag.Func("graph", "preload a graph as name=path (repeatable)", func(v string) error {
		preload = append(preload, v)
		return nil
	})
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bccd: -log-level: %v\n", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	fatal := func(msg string, fields ...any) {
		logger.Error(msg, fields...)
		os.Exit(1)
	}

	if *faultSpec != "" {
		if err := faultpoint.Set(*faultSpec); err != nil {
			fatal("bad -faultpoints", "spec", *faultSpec, "err", err)
		}
		logger.Info("fault points armed", "spec", *faultSpec)
	}

	store := fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{
		Workers:             *workers,
		MaxConcurrentBuilds: *maxBuilds,
		BuildQueueWait:      *queueWait,
		BuildTimeout:        *buildTimeout,
		MutationCoalesce:    *mutationCoalesce,
		DataDir:             *dataDir,
		VerifyOnLoad:        *verifyOnLoad,
	})
	defer store.Close()
	if *dataDir != "" {
		rep, err := store.Recover(context.Background())
		if err != nil {
			fatal("recovering data dir", "dir", *dataDir, "err", err)
		}
		for _, g := range rep.Graphs {
			logger.Info("graph recovered", "graph", g.Name, "version", g.Version,
				"n", g.Vertices, "m", g.Edges, "replayed", g.Replayed,
				"snapshot_bytes", g.SnapshotBytes)
		}
		for _, f := range rep.Failures {
			logger.Error("graph recovery failed", "dir", f.Dir, "err", f.Error)
		}
		logger.Info("recovery done", "dir", *dataDir,
			"recovered", len(rep.Graphs), "failed", len(rep.Failures))
	}
	for _, spec := range preload {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal("bad -graph: want name=path", "spec", spec)
		}
		g, err := fastbcc.LoadGraph(path)
		if err != nil {
			fatal("loading graph", "spec", spec, "err", err)
		}
		snap, err := store.Load(context.Background(), name, g, nil)
		if err != nil {
			fatal("building graph", "spec", spec, "err", err)
		}
		logger.Info("graph preloaded", "graph", name, "version", snap.Version,
			"n", g.NumVertices(), "m", g.NumEdges(),
			"blocks", snap.Result.NumBCC, "took", snap.BuildTime)
		snap.Release()
	}

	srv := &http.Server{
		Addr: *addr,
		Handler: bccdhttp.NewHandler(store, bccdhttp.Config{
			DebugFaults: *debugFaults,
			DebugPprof:  *debugPprof,
			Logger:      logger,
			SlowQuery:   time.Duration(*slowQueryMS) * time.Millisecond,
		}),
		// Slow-client protection: a peer that dribbles its headers or
		// body cannot pin a connection forever. Write timeouts are left
		// off — load/rebuild responses legitimately take as long as the
		// build they wait for, which -build-timeout already bounds.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("serving", "addr", *addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		fatal("server failed", "err", err)
	case <-ctx.Done():
	}
	logger.Info("shutting down", "drain", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fatal("shutdown", "err", err)
	}
	logger.Info("drained cleanly")
}
