package bccdhttp

import (
	"io"
	"net/http"
	"time"

	fastbcc "repro"
	"repro/internal/obs"
	"repro/internal/obs/promtext"
)

// endpoints are the instrumented API surfaces, the label values of the
// per-endpoint request metrics. Every route registered through
// server.handle must name one of these.
var endpoints = [...]string{
	"healthz", "list", "load", "stats", "remove", "rebuild",
	"query", "batch", "mutate", "trace",
}

// bodyEndpoints are the endpoints with a negotiated codec, and codecs
// the codecs; together they label the request and response byte
// counters.
var (
	bodyEndpoints = [...]string{"batch", "mutate"}
	codecs        = [...]string{"json", "binary"}
)

// statusClasses label response counters by status family; index is
// status/100 - 2 (the handlers never write 1xx).
var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

// httpMetrics is the handler's metric surface — its own registry, so two
// handlers sharing one Store never double-register, merged with the
// store registry at scrape time by /metrics.
type httpMetrics struct {
	reg      *obs.Registry
	inFlight *obs.Gauge
	reqDur   map[string]*obs.Histogram                   // by endpoint
	resp     map[string][len(statusClasses)]*obs.Counter // by endpoint, status class
	queryDur map[string]*obs.Histogram                   // scalar endpoint, by op
	reqBytes map[string]map[string]*obs.Counter          // by body endpoint, codec
	resBytes map[string]map[string]*obs.Counter          // by body endpoint, codec
	slow     *obs.Counter
}

func newHTTPMetrics() *httpMetrics {
	reg := obs.NewRegistry()
	m := &httpMetrics{
		reg:      reg,
		reqDur:   make(map[string]*obs.Histogram, len(endpoints)),
		resp:     make(map[string][len(statusClasses)]*obs.Counter, len(endpoints)),
		queryDur: make(map[string]*obs.Histogram, 6),
		reqBytes: make(map[string]map[string]*obs.Counter, len(bodyEndpoints)),
		resBytes: make(map[string]map[string]*obs.Counter, len(bodyEndpoints)),
	}
	m.inFlight = reg.Gauge("bccd_http_in_flight_requests",
		"Requests currently being handled.")
	for _, ep := range endpoints {
		m.reqDur[ep] = reg.Histogram("bccd_http_request_duration_seconds",
			"Request handling latency by endpoint.", "endpoint", ep)
		var byClass [len(statusClasses)]*obs.Counter
		for i, class := range statusClasses {
			byClass[i] = reg.Counter("bccd_http_responses_total",
				"Responses by endpoint and status class.", "endpoint", ep, "code", class)
		}
		m.resp[ep] = byClass
	}
	for op := fastbcc.OpConnected; op.Valid(); op++ {
		m.queryDur[op.String()] = reg.Histogram("bccd_http_query_duration_seconds",
			"Scalar query endpoint latency by op.", "op", op.String())
	}
	for _, ep := range bodyEndpoints {
		m.reqBytes[ep] = make(map[string]*obs.Counter, len(codecs))
		m.resBytes[ep] = make(map[string]*obs.Counter, len(codecs))
		for _, c := range codecs {
			m.reqBytes[ep][c] = reg.Counter("bccd_http_request_bytes_total",
				"Request body bytes read by the batch and mutation endpoints, by codec.",
				"endpoint", ep, "codec", c)
			m.resBytes[ep][c] = reg.Counter("bccd_http_response_bytes_total",
				"Response body bytes written by the batch and mutation endpoints, by codec.",
				"endpoint", ep, "codec", c)
		}
	}
	m.slow = reg.Counter("bccd_http_slow_queries_total",
		"Batch requests that exceeded the slow-query threshold.")
	return m
}

// statusRecorder captures the response status and body size on the way
// through to the real ResponseWriter. Unwrap keeps the wrapped writer
// reachable for http.ResponseController.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// handle registers an instrumented route: every request through it
// counts toward the in-flight gauge, the endpoint's latency histogram,
// and the endpoint × status-class response counter.
func (s *server) handle(pattern, endpoint string, h http.HandlerFunc) {
	hist := s.metrics.reqDur[endpoint]
	resp := s.metrics.resp[endpoint]
	inFlight := s.metrics.inFlight
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		inFlight.Inc()
		rec := &statusRecorder{ResponseWriter: w}
		t0 := time.Now()
		h(rec, r)
		hist.Observe(time.Since(t0))
		inFlight.Dec()
		if rec.status == 0 {
			// Handler wrote nothing; net/http will send an implicit 200.
			rec.status = http.StatusOK
		}
		if i := rec.status/100 - 2; i >= 0 && i < len(resp) {
			resp[i].Inc()
		}
	})
}

// countingReader counts the bytes a request-body decoder actually
// consumed — the batch and mutation endpoints' per-codec ingress
// accounting.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// handleMetrics serves GET /metrics: the store registry (hot-path,
// build, and reclamation series) merged with the handler's own HTTP
// series, in the Prometheus text exposition format. Scraping is
// read-only and lock-light; it never touches a query hot path.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", promtext.ContentType)
	if err := promtext.Write(w, s.store.Metrics(), s.metrics.reg); err != nil {
		s.log.Warn("writing metrics response", "err", err)
	}
}

// phasesMS is the JSON shape of a build's per-phase breakdown, in
// milliseconds, mirroring the paper's four pipeline phases.
type phasesMS struct {
	FirstCC float64 `json:"first_cc"`
	Rooting float64 `json:"rooting"`
	Tagging float64 `json:"tagging"`
	LastCC  float64 `json:"last_cc"`
}

func toPhasesMS(t fastbcc.PhaseTimes) phasesMS {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return phasesMS{FirstCC: ms(t.FirstCC), Rooting: ms(t.Rooting), Tagging: ms(t.Tagging), LastCC: ms(t.LastCC)}
}

// buildTraceInfo is one build attempt in the trace endpoint's response.
type buildTraceInfo struct {
	Version    int64    `json:"version,omitempty"`
	Algorithm  string   `json:"algorithm"`
	Outcome    string   `json:"outcome"`
	Error      string   `json:"error,omitempty"`
	StartedAt  string   `json:"started_at"`
	DurationMS float64  `json:"duration_ms"`
	Phases     phasesMS `json:"phases_ms"`
}

func toTraceInfo(t fastbcc.BuildTrace) buildTraceInfo {
	return buildTraceInfo{
		Version:    t.Version,
		Algorithm:  t.Algorithm,
		Outcome:    t.Outcome,
		Error:      t.Error,
		StartedAt:  t.StartedAt.UTC().Format(timeFmt),
		DurationMS: float64(t.Duration.Microseconds()) / 1000,
		Phases:     toPhasesMS(t.Phases),
	}
}

// handleTrace serves GET /v1/graphs/{name}/trace: the graph's recent
// build attempts, newest first — versions, outcomes, errors, and the
// per-phase breakdown of each successful build.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	traces, err := s.store.Trace(name)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	out := make([]buildTraceInfo, len(traces))
	for i, t := range traces {
		out[i] = toTraceInfo(t)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"graph": name, "builds": out})
}
