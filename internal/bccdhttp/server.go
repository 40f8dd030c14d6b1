// Package bccdhttp implements bccd's HTTP API around a fastbcc.Store:
// graph lifecycle (load/rebuild/remove), scalar queries, batched queries
// with JSON/binary content negotiation, health and stats, and the
// optional fault-injection debug endpoints. It lives outside cmd/bccd so
// tests and the bccperf benchmark can drive the exact production handler
// in-process.
package bccdhttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"sync"
	"time"

	fastbcc "repro"
	"repro/internal/faultpoint"
	"repro/internal/obs"
)

// maxBodyBytes bounds load-request bodies; a 64 MiB JSON edge list is
// roughly 4M edges, beyond which callers should ship a binary file and
// load it by path.
const maxBodyBytes = 64 << 20

type server struct {
	store *fastbcc.Store
	mux   *http.ServeMux

	// log receives the handler's structured request logs; a nil *Logger
	// discards, so no call site guards. metrics is always non-nil.
	log       *obs.Logger
	metrics   *httpMetrics
	slowQuery time.Duration

	// scratch pools per-request batch state: the decoded query and
	// answer slices, the response frame buffer, and an epoch Handle, so
	// a steady stream of binary batches allocates nothing per request on
	// the store side. A pooled Handle dropped by the GC is never Closed;
	// that leaks only its unpinned 128-byte slot in the epoch domain,
	// which cannot block reclamation.
	scratch sync.Pool
}

// Config tunes a handler beyond its Store: debug surfaces, logging, and
// the slow-query threshold. The zero value is the production default —
// no debug endpoints, silent logger, no slow-query log.
type Config struct {
	// DebugFaults mounts the /debug/faultpoints endpoints (arming
	// fault-injection points over HTTP — test and smoke deployments only).
	DebugFaults bool
	// DebugPprof mounts net/http/pprof under /debug/pprof/ — the
	// profiling surface stays off unless explicitly gated on, same
	// discipline as DebugFaults.
	DebugPprof bool
	// Logger receives the handler's structured request logs (nil
	// discards).
	Logger *obs.Logger
	// SlowQuery is the batch-duration threshold above which a batch
	// request is logged at warn level and counted (0 disables).
	SlowQuery time.Duration
}

// NewHandler wires the HTTP API around a Store; see Config for the
// debug and observability knobs. Every handler exposes its metrics on
// GET /metrics (Prometheus text): its own per-endpoint request series
// merged with the Store's serving/build/reclamation series.
func NewHandler(store *fastbcc.Store, cfg Config) http.Handler {
	s := &server{
		store:     store,
		mux:       http.NewServeMux(),
		log:       cfg.Logger,
		metrics:   newHTTPMetrics(),
		slowQuery: cfg.SlowQuery,
	}
	s.scratch.New = func() any { return &batchScratch{} }
	s.handle("GET /healthz", "healthz", s.handleHealth)
	s.handle("GET /v1/graphs", "list", s.handleList)
	s.handle("PUT /v1/graphs/{name}", "load", s.handleLoad)
	s.handle("GET /v1/graphs/{name}", "stats", s.handleStats)
	s.handle("DELETE /v1/graphs/{name}", "remove", s.handleRemove)
	s.handle("POST /v1/graphs/{name}/rebuild", "rebuild", s.handleRebuild)
	s.handle("GET /v1/graphs/{name}/query/{op}", "query", s.handleQuery)
	s.handle("POST /v1/graphs/{name}/query/batch", "batch", s.handleQueryBatch)
	s.handle("POST /v1/graphs/{name}/edges", "mutate", s.handleMutate)
	s.handle("GET /v1/graphs/{name}/trace", "trace", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.DebugFaults {
		s.mux.HandleFunc("GET /debug/faultpoints", s.handleFaultList)
		s.mux.HandleFunc("PUT /debug/faultpoints", s.handleFaultSet)
		s.mux.HandleFunc("DELETE /debug/faultpoints", s.handleFaultReset)
	}
	if cfg.DebugPprof {
		// Mounted explicitly on this mux (the pprof import's DefaultServeMux
		// registration is unused), so an ungated server serves 404 here.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.mux
}

func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Almost always the client hanging up mid-response; the request
		// is already answered as far as the server is concerned, so log
		// rather than fail.
		s.log.Warn("writing response", "err", err)
	}
}

func (s *server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// statusClientClosedRequest is the conventional (nginx) status for a
// request whose client went away first; the canceled build released its
// slot, but there is no one left to tell.
const statusClientClosedRequest = 499

// writeBuildError maps a failed Load/Rebuild onto the HTTP status that
// tells the client what actually happened — and whether to retry:
//
//	400 bad request    unknown algorithm name (the request is wrong)
//	404 not found      graph never loaded / removed
//	499 (client gone)  the client canceled; the build was abandoned
//	500 internal       engine panic or unexpected build failure; the
//	                   entry keeps serving its last-good snapshot
//	503 unavailable    build admission saturated (Retry-After hints when
//	                   to come back) or the store is shutting down
//	504 timeout        the build exceeded its deadline and was canceled
func (s *server) writeBuildError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, fastbcc.ErrUnknownAlgorithm):
		status = http.StatusBadRequest
	case errors.Is(err, fastbcc.ErrNotLoaded):
		status = http.StatusNotFound
	case errors.Is(err, fastbcc.ErrSaturated):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	case errors.Is(err, fastbcc.ErrStoreClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = statusClientClosedRequest
	}
	s.writeError(w, status, "%v", err)
}

// buildCtx derives the context bounding one build request: the request's
// own context (a disconnected client cancels the build, freeing its
// admission slot) tightened by the optional per-request timeout_ms.
func buildCtx(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	if timeoutMS > 0 {
		return context.WithTimeout(r.Context(), time.Duration(timeoutMS)*time.Millisecond)
	}
	return r.Context(), func() {}
}

// graphInfo is the stats payload for one snapshot. The failure fields
// (populated from Store.Status on the per-graph stats endpoint) are
// nonzero only while the entry's most recent builds have been failing —
// the snapshot described by the rest of the payload is then the
// last-good version still being served.
type graphInfo struct {
	Name    string  `json:"name"`
	Version int64   `json:"version"`
	Algo    string  `json:"algo"`
	N       int     `json:"n"`
	M       int     `json:"m"`
	Blocks  int     `json:"blocks"`
	Cuts    int     `json:"cuts"`
	Bridges int     `json:"bridges"`
	TwoECC  int     `json:"two_ecc"`
	BuildMS float64 `json:"build_ms"`
	BuiltAt string  `json:"built_at"`
	// Phases breaks BuildMS down into the paper's four pipeline phases
	// (first_cc, rooting, tagging, last_cc) for the serving snapshot.
	Phases *phasesMS `json:"last_build_phases_ms,omitempty"`

	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	LastError           string `json:"last_error,omitempty"`
	LastErrorAt         string `json:"last_error_at,omitempty"`

	// Mutation staleness (see Store.ApplyBatch): mutations accepted but
	// not yet reflected by the serving snapshot, the age of the oldest
	// one, fast-path insertions applied but not yet folded into the CSR,
	// and the coalesced delta rebuilds published so far. M above counts
	// overlay edges.
	PendingDeltas int     `json:"pending_deltas,omitempty"`
	StalenessMS   float64 `json:"staleness_ms,omitempty"`
	OverlayEdges  int     `json:"overlay_edges,omitempty"`
	DeltaFlushes  int64   `json:"delta_flushes,omitempty"`

	// Durability state (see fastbcc.StoreConfig.DataDir): set while the
	// graph's most recent snapshot persist or journal append failed.
	// Serving continues; a crash in this state may lose recent mutations.
	DurabilityDegraded bool   `json:"durability_degraded,omitempty"`
	LastPersistError   string `json:"last_persist_error,omitempty"`
	LastPersistErrorAt string `json:"last_persist_error_at,omitempty"`
}

// graphStatusInfo is the stats payload for an entry with no serving
// snapshot: it exists in the catalog but every build so far failed. The
// failure fields say why.
type graphStatusInfo struct {
	Name                string `json:"name"`
	Loaded              bool   `json:"loaded"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	LastError           string `json:"last_error,omitempty"`
	LastErrorAt         string `json:"last_error_at,omitempty"`
}

func (s *server) info(snap *fastbcc.Snapshot) graphInfo {
	var phases *phasesMS
	if snap.Result != nil {
		p := toPhasesMS(snap.Result.Times)
		phases = &p
	}
	gi := graphInfo{
		Phases:  phases,
		Name:    snap.Name,
		Version: snap.Version,
		Algo:    snap.Algorithm,
		N:       snap.Graph.NumVertices(),
		M:       snap.NumEdges(),
		Blocks:  snap.Index.NumBlocks(),
		Cuts:    snap.Index.NumCutVertices(),
		Bridges: snap.Index.NumBridges(),
		TwoECC:  snap.Index.NumTwoECC(),
		BuildMS: float64(snap.BuildTime.Microseconds()) / 1000,
		BuiltAt: snap.BuiltAt.UTC().Format(timeFmt),
	}
	if st, err := s.store.Status(snap.Name); err == nil {
		gi.PendingDeltas = st.PendingDeltas
		gi.StalenessMS = float64(st.DeltaAge.Microseconds()) / 1000
		gi.OverlayEdges = st.OverlayEdges
		gi.DeltaFlushes = st.DeltaFlushes
		gi.DurabilityDegraded = st.DurabilityDegraded
		gi.LastPersistError = st.LastPersistError
		if !st.LastPersistErrorAt.IsZero() {
			gi.LastPersistErrorAt = st.LastPersistErrorAt.UTC().Format(timeFmt)
		}
	}
	return gi
}

// algoInfo is one entry of the healthz "algorithms" list.
type algoInfo struct {
	Name          string `json:"name"`
	ConnectedOnly bool   `json:"connected_only,omitempty"`
	Sequential    bool   `json:"sequential,omitempty"`
	Deterministic bool   `json:"deterministic,omitempty"`
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.store.Stats()
	algos := make([]algoInfo, 0, 8)
	for _, a := range fastbcc.Algorithms() {
		algos = append(algos, algoInfo{
			Name:          a.Name,
			ConnectedOnly: a.ConnectedOnly,
			Sequential:    a.Sequential,
			Deterministic: a.Deterministic,
		})
	}
	// A degraded catalog — entries whose latest build failed (still
	// serving their last-good snapshot) or whose durability is degraded
	// (still acknowledging mutations, but a crash may lose them) — stays
	// HTTP 200 (the server is up and answering queries) but reports
	// ok:false so health checks and operators see the failure without
	// scraping per-graph stats.
	s.writeJSON(w, http.StatusOK, map[string]any{
		"ok":                 st.FailingGraphs == 0 && st.DegradedGraphs == 0,
		"degraded":           st.FailingGraphs > 0 || st.DegradedGraphs > 0,
		"graphs":             st.Graphs,
		"live_snapshots":     st.LiveSnapshots,
		"by_algorithm":       st.ByAlgorithm,
		"failing_graphs":     st.FailingGraphs,
		"build_failures":     st.BuildFailures,
		"in_flight_builds":   st.InFlightBuilds,
		"degraded_graphs":    st.DegradedGraphs,
		"persist_failures":   st.PersistFailures,
		"recovered_graphs":   st.RecoveredGraphs,
		"replayed_mutations": st.ReplayedMutations,
		"algorithms":         algos,
	})
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	names := s.store.Names()
	out := make([]graphInfo, 0, len(names))
	for _, name := range names {
		snap, err := s.store.Acquire(name)
		if err != nil {
			continue // removed between Names and Acquire
		}
		out = append(out, s.info(snap))
		snap.Release()
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"graphs": out})
}

// loadRequest loads a graph from an inline edge list or a binary file
// written by fastbcc.SaveGraph.
type loadRequest struct {
	N           int        `json:"n"`
	Edges       [][2]int32 `json:"edges"`
	Path        string     `json:"path"`
	Algo        string     `json:"algo"`
	Seed        uint64     `json:"seed"`
	Threads     int        `json:"threads"`
	LocalSearch bool       `json:"local_search"`
	Source      int32      `json:"source"`
	// TimeoutMS bounds this build; past the deadline it is cooperatively
	// canceled (504) and the entry keeps its previous snapshot. It can
	// only tighten the server-wide -build-timeout, never extend it.
	TimeoutMS int `json:"timeout_ms"`
}

func (s *server) handleLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req loadRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var g *fastbcc.Graph
	var err error
	switch {
	case req.Path != "" && req.Edges != nil:
		s.writeError(w, http.StatusBadRequest, "give either edges or path, not both")
		return
	case req.Path != "":
		g, err = fastbcc.LoadGraph(req.Path)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "load %q: %v", req.Path, err)
			return
		}
	default:
		edges := make([]fastbcc.Edge, len(req.Edges))
		for i, e := range req.Edges {
			edges[i] = fastbcc.Edge{U: e[0], W: e[1]}
		}
		g, err = fastbcc.NewGraphFromEdges(req.N, edges)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad graph: %v", err)
			return
		}
	}
	opts := &fastbcc.Options{Algorithm: req.Algo, Seed: req.Seed, Threads: req.Threads, LocalSearch: req.LocalSearch, Source: req.Source}
	ctx, cancel := buildCtx(r, req.TimeoutMS)
	defer cancel()
	snap, err := s.store.Load(ctx, name, g, opts)
	if err != nil {
		s.log.Warn("load failed", "graph", name, "err", err)
		s.writeBuildError(w, err)
		return
	}
	defer snap.Release()
	s.log.Info("graph loaded", "graph", name, "version", snap.Version,
		"algo", snap.Algorithm, "n", snap.Graph.NumVertices(), "m", snap.Graph.NumEdges(),
		"took", snap.BuildTime)
	s.writeJSON(w, http.StatusOK, s.info(snap))
}

func (s *server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req loadRequest // only the option fields apply
	if r.ContentLength != 0 {
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		if req.N != 0 || req.Edges != nil || req.Path != "" {
			s.writeError(w, http.StatusBadRequest,
				"rebuild recomputes the existing graph; to replace it, PUT the graph instead")
			return
		}
	}
	opts := &fastbcc.Options{Algorithm: req.Algo, Seed: req.Seed, Threads: req.Threads, LocalSearch: req.LocalSearch, Source: req.Source}
	ctx, cancel := buildCtx(r, req.TimeoutMS)
	defer cancel()
	snap, err := s.store.Rebuild(ctx, name, opts)
	if err != nil {
		s.log.Warn("rebuild failed", "graph", name, "err", err)
		s.writeBuildError(w, err)
		return
	}
	defer snap.Release()
	s.log.Info("graph rebuilt", "graph", name, "version", snap.Version,
		"algo", snap.Algorithm, "took", snap.BuildTime)
	s.writeJSON(w, http.StatusOK, s.info(snap))
}

const timeFmt = "2006-01-02T15:04:05.000Z"

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	snap, err := s.store.Acquire(name)
	if err != nil {
		// No serving snapshot — but the entry may still exist with
		// recorded build failures (a graph whose initial build never
		// succeeded). Report that instead of a bare 404.
		if st, serr := s.store.Status(name); serr == nil {
			info := graphStatusInfo{
				Name:                name,
				ConsecutiveFailures: st.ConsecutiveFailures,
				LastError:           st.LastError,
			}
			if !st.LastErrorAt.IsZero() {
				info.LastErrorAt = st.LastErrorAt.UTC().Format(timeFmt)
			}
			s.writeJSON(w, http.StatusOK, info)
			return
		}
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	defer snap.Release()
	info := s.info(snap)
	if st, serr := s.store.Status(name); serr == nil && st.ConsecutiveFailures > 0 {
		info.ConsecutiveFailures = st.ConsecutiveFailures
		info.LastError = st.LastError
		info.LastErrorAt = st.LastErrorAt.UTC().Format(timeFmt)
	}
	s.writeJSON(w, http.StatusOK, info)
}

func (s *server) handleRemove(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.store.Remove(name); err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.log.Info("graph removed", "graph", name)
	s.writeJSON(w, http.StatusOK, map[string]bool{"removed": true})
}

// queryResponse answers one query; Count/Cuts/Bridges appear only for
// the ops that produce them.
type queryResponse struct {
	Graph   string     `json:"graph"`
	Version int64      `json:"version"`
	Op      string     `json:"op"`
	U       int32      `json:"u"`
	V       int32      `json:"v"`
	X       *int32     `json:"x,omitempty"`
	Result  *bool      `json:"result,omitempty"`
	Count   *int       `json:"count,omitempty"`
	Cuts    []int32    `json:"cuts,omitempty"`
	Bridges [][2]int32 `json:"bridges,omitempty"`
}

var errMissingParam = errors.New("missing parameter")

func vertexParam(q url.Values, key string, n int) (int32, error) {
	raw := q.Get(key)
	if raw == "" {
		return 0, fmt.Errorf("%w %q", errMissingParam, key)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad vertex %q: %v", key, err)
	}
	if v < 0 || v >= int64(n) {
		return 0, fmt.Errorf("vertex %s=%d out of range [0,%d)", key, v, n)
	}
	return int32(v), nil
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	name, op := r.PathValue("name"), r.PathValue("op")
	snap, err := s.store.Acquire(name)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	defer snap.Release()
	idx := snap.Index
	n := snap.Graph.NumVertices()

	q := r.URL.Query()
	u, err := vertexParam(q, "u", n)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	v, err := vertexParam(q, "v", n)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := queryResponse{Graph: snap.Name, Version: snap.Version, Op: op, U: u, V: v}
	list := q.Get("list") != ""
	setBool := func(b bool) { resp.Result = &b }
	setCount := func(c int) { resp.Count = &c }

	switch op {
	case "connected":
		setBool(idx.Connected(u, v))
	case "biconnected":
		setBool(idx.Biconnected(u, v))
	case "twoecc":
		setBool(idx.TwoEdgeConnected(u, v))
	case "separates":
		x, err := vertexParam(q, "x", n)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		resp.X = &x
		setBool(idx.Separates(x, u, v))
	case "cuts":
		setCount(idx.NumCutsOnPath(u, v))
		if list {
			cuts := idx.CutsOnPath(u, v)
			if cuts == nil {
				cuts = []int32{}
			}
			resp.Cuts = cuts
		}
	case "bridges":
		setCount(idx.NumBridgesOnPath(u, v))
		if list {
			bridges := idx.BridgesOnPath(u, v)
			resp.Bridges = make([][2]int32, len(bridges))
			for i, b := range bridges {
				resp.Bridges[i] = [2]int32{b.U, b.W}
			}
		}
	default:
		s.writeError(w, http.StatusNotFound,
			"unknown op %q (want connected|biconnected|twoecc|separates|cuts|bridges)", op)
		return
	}
	// Answered queries record into the per-op latency histogram (bad
	// requests and unknown ops only count toward the endpoint series).
	if h := s.metrics.queryDur[op]; h != nil {
		h.Observe(time.Since(t0))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// The /debug/faultpoints endpoints (mounted only with -debug-faults)
// expose the fault-injection registry over HTTP, so smoke tests and
// chaos drills can arm faults in a running server without rebuilding it:
//
//	GET    /debug/faultpoints   list armed points with modes and hit counts
//	PUT    /debug/faultpoints   arm from {"spec": "build.error=error:after=1"}
//	                            (the -faultpoints flag grammar)
//	DELETE /debug/faultpoints   disarm everything

func (s *server) handleFaultList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"points": faultpoint.List()})
}

func (s *server) handleFaultSet(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Spec string `json:"spec"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := faultpoint.Set(req.Spec); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"points": faultpoint.List()})
}

func (s *server) handleFaultReset(w http.ResponseWriter, r *http.Request) {
	faultpoint.Reset()
	s.writeJSON(w, http.StatusOK, map[string]bool{"reset": true})
}
