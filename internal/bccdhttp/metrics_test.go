package bccdhttp

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	fastbcc "repro"
	"repro/internal/wire"
)

// scrape fetches /metrics and parses the Prometheus text exposition into
// a map keyed by the full series identity — `name{labels}` exactly as
// exposed — so assertions match what a real scraper would ingest.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in metrics line %q: %v", line, err)
		}
		if _, dup := series[line[:i]]; dup {
			t.Fatalf("duplicate series %q", line[:i])
		}
		series[line[:i]] = v
	}
	return series
}

// TestMetricsExactCounts drives a known mix of requests and asserts the
// scraped counters and histogram counts match it exactly — the
// instrumentation is not sampled, so every driven request must appear.
func TestMetricsExactCounts(t *testing.T) {
	srv := testServer(t)

	if code, _ := do(t, http.MethodPut, srv.URL+"/v1/graphs/demo", barbell); code != http.StatusOK {
		t.Fatalf("load: %d", code)
	}
	if code, _ := do(t, http.MethodPost, srv.URL+"/v1/graphs/demo/rebuild", `{"seed":9}`); code != http.StatusOK {
		t.Fatalf("rebuild: %d", code)
	}

	// 5 good scalar queries (3 connected + 2 biconnected) and one that
	// fails validation after the snapshot acquire (vertex out of range).
	scalars := []string{
		"/v1/graphs/demo/query/connected?u=0&v=6",
		"/v1/graphs/demo/query/connected?u=1&v=2",
		"/v1/graphs/demo/query/connected?u=3&v=5",
		"/v1/graphs/demo/query/biconnected?u=0&v=1",
		"/v1/graphs/demo/query/biconnected?u=0&v=6",
	}
	for _, q := range scalars {
		if code, _ := do(t, http.MethodGet, srv.URL+q, ""); code != http.StatusOK {
			t.Fatalf("%s: %d", q, code)
		}
	}
	if code, _ := do(t, http.MethodGet, srv.URL+"/v1/graphs/demo/query/connected?u=0&v=99", ""); code != http.StatusBadRequest {
		t.Fatal("out-of-range query did not 400")
	}

	// Two JSON batches of 4 (3 connected + 1 twoecc each) and one binary
	// batch of 3 bridges queries.
	jsonBatch := `{"queries":[{"op":"connected","u":0,"v":6},{"op":"connected","u":1,"v":2},
		{"op":"connected","u":2,"v":3},{"op":"twoecc","u":3,"v":6}]}`
	for i := 0; i < 2; i++ {
		code, body := do(t, http.MethodPost, srv.URL+"/v1/graphs/demo/query/batch", jsonBatch)
		if code != http.StatusOK || body["count"] != float64(4) {
			t.Fatalf("json batch: %d %v", code, body)
		}
	}
	frame := wire.AppendRequest(nil, []fastbcc.Query{
		{Op: fastbcc.OpBridgesOnPath, U: 1, V: 5},
		{Op: fastbcc.OpBridgesOnPath, U: 0, V: 3},
		{Op: fastbcc.OpBridgesOnPath, U: 4, V: 6},
	})
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/graphs/demo/query/batch", bytes.NewReader(frame))
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary batch: %d", resp.StatusCode)
	}

	// First scrape runs the epoch reclaim scan; the second observes the
	// settled state, so gauge assertions are deterministic.
	scrape(t, srv.URL)
	got := scrape(t, srv.URL)

	want := map[string]float64{
		// Per-endpoint request accounting: exactly what was driven above.
		`bccd_http_request_duration_seconds_count{endpoint="query"}`: 6,
		`bccd_http_request_duration_seconds_count{endpoint="batch"}`: 3,
		`bccd_http_request_duration_seconds_count{endpoint="load"}`:  1,
		`bccd_http_responses_total{endpoint="query",code="2xx"}`:     5,
		`bccd_http_responses_total{endpoint="query",code="4xx"}`:     1,
		`bccd_http_responses_total{endpoint="batch",code="2xx"}`:     3,
		`bccd_http_responses_total{endpoint="rebuild",code="2xx"}`:   1,
		`bccd_http_in_flight_requests`:                               0,

		// Scalar query latency by op: only successful queries observe.
		`bccd_http_query_duration_seconds_count{op="connected"}`:   3,
		`bccd_http_query_duration_seconds_count{op="biconnected"}`: 2,
		`bccd_http_query_duration_seconds_count{op="bridges"}`:     0,

		// Store-side batch accounting: counters only (batch latency is
		// the edge histogram above) — call count and per-op query
		// volume summed across batches.
		`fastbcc_batches_total`:                         3,
		`fastbcc_batch_queries_total{op="connected"}`:   6,
		`fastbcc_batch_queries_total{op="twoecc"}`:      2,
		`fastbcc_batch_queries_total{op="bridges"}`:     3,
		`fastbcc_batch_queries_total{op="biconnected"}`: 0,
		`fastbcc_acquires_total{discipline="epoch"}`:    3,
		// One refcount CAS acquire per scalar query request (the
		// out-of-range one pins before it validates).
		`fastbcc_acquires_total{discipline="refcount"}`: 6,

		// Builds: load + rebuild, both OK, each observing all 4 phases.
		`fastbcc_builds_total{outcome="ok"}`:                           2,
		`fastbcc_builds_total{outcome="error"}`:                        0,
		`fastbcc_builds_total{outcome="canceled"}`:                     0,
		`fastbcc_build_duration_seconds_count`:                         2,
		`fastbcc_build_phase_duration_seconds_count{phase="first_cc"}`: 2,
		`fastbcc_build_phase_duration_seconds_count{phase="rooting"}`:  2,
		`fastbcc_build_phase_duration_seconds_count{phase="tagging"}`:  2,
		`fastbcc_build_phase_duration_seconds_count{phase="last_cc"}`:  2,
		`fastbcc_runs_total`:                                           2,
		`fastbcc_run_errors_total`:                                     0,
		`fastbcc_run_panics_total`:                                     0,

		// Catalog and reclamation state after the settling scrape: one
		// graph, one live snapshot, the superseded v1 reclaimed.
		`fastbcc_graphs`:                    1,
		`fastbcc_live_snapshots`:            1,
		`fastbcc_retired_snapshots`:         0,
		`fastbcc_reclaimed_snapshots_total`: 1,
		`fastbcc_failing_graphs`:            0,
		`fastbcc_inflight_builds`:           0,
		`fastbcc_build_sheds_total`:         0,
		`fastbcc_faultpoints_armed`:         0,
	}
	for series, v := range want {
		g, ok := got[series]
		if !ok {
			// Zero-valued histogram series elide their buckets but must
			// still expose _count; counters always appear.
			t.Errorf("series %s missing from /metrics", series)
			continue
		}
		if g != v {
			t.Errorf("%s = %v, want %v", series, g, v)
		}
	}

	// Byte counters move with the codec actually used.
	if got[`bccd_http_request_bytes_total{endpoint="batch",codec="json"}`] <= 0 {
		t.Error("json request bytes not counted")
	}
	if got[`bccd_http_request_bytes_total{endpoint="batch",codec="binary"}`] != float64(len(frame)) {
		t.Errorf("binary request bytes = %v, want %d",
			got[`bccd_http_request_bytes_total{endpoint="batch",codec="binary"}`], len(frame))
	}
	if got[`bccd_http_response_bytes_total{endpoint="batch",codec="json"}`] <= 0 {
		t.Error("json response bytes not counted")
	}
	// Binary response: 16-byte header + 4 bytes per answer.
	if got[`bccd_http_response_bytes_total{endpoint="batch",codec="binary"}`] <= 0 {
		t.Error("binary response bytes not counted")
	}

	// Histograms carry real time: the edge request-latency sum and the
	// store build-duration sum are positive.
	if got[`bccd_http_request_duration_seconds_sum{endpoint="batch"}`] <= 0 {
		t.Error("batch endpoint duration sum is zero")
	}
	if got[`fastbcc_build_duration_seconds_sum`] <= 0 {
		t.Error("build duration sum is zero")
	}
}

// TestTraceEndpoint exercises GET /v1/graphs/{name}/trace: build
// attempts newest-first with versions, outcomes, and phase breakdowns.
func TestTraceEndpoint(t *testing.T) {
	srv := testServer(t)
	if code, _ := do(t, http.MethodPut, srv.URL+"/v1/graphs/demo", barbell); code != http.StatusOK {
		t.Fatal("load failed")
	}
	if code, _ := do(t, http.MethodPost, srv.URL+"/v1/graphs/demo/rebuild", `{"seed":9}`); code != http.StatusOK {
		t.Fatal("rebuild failed")
	}

	code, body := do(t, http.MethodGet, srv.URL+"/v1/graphs/demo/trace", "")
	if code != http.StatusOK {
		t.Fatalf("trace: %d %v", code, body)
	}
	builds, ok := body["builds"].([]any)
	if !ok || len(builds) != 2 {
		t.Fatalf("trace builds: %v", body["builds"])
	}
	first := builds[0].(map[string]any)
	second := builds[1].(map[string]any)
	if first["version"] != float64(2) || second["version"] != float64(1) {
		t.Fatalf("trace not newest-first: %v then %v", first["version"], second["version"])
	}
	for i, b := range []map[string]any{first, second} {
		if b["outcome"] != "ok" {
			t.Errorf("build %d outcome %v, want ok", i, b["outcome"])
		}
		if b["algorithm"] == "" {
			t.Errorf("build %d missing algorithm", i)
		}
		if _, ok := b["phases_ms"].(map[string]any); !ok {
			t.Errorf("build %d missing phases_ms", i)
		}
	}

	if code, _ := do(t, http.MethodGet, srv.URL+"/v1/graphs/nosuch/trace", ""); code != http.StatusNotFound {
		t.Fatalf("trace of unknown graph: %d, want 404", code)
	}
}

// TestPprofGating: the pprof surface exists only when explicitly enabled,
// mirroring the -debug-faults discipline.
func TestPprofGating(t *testing.T) {
	store := fastbcc.NewStore(2)
	defer store.Close()

	plain := httptest.NewServer(NewHandler(store, Config{}))
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ungated /debug/pprof/: %d, want 404", resp.StatusCode)
	}

	gated := httptest.NewServer(NewHandler(store, Config{DebugPprof: true}))
	defer gated.Close()
	resp, err = http.Get(gated.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gated /debug/pprof/: %d, want 200", resp.StatusCode)
	}
}

// TestGraphStatsPhases: the per-graph stats response carries the last
// build's phase breakdown.
func TestGraphStatsPhases(t *testing.T) {
	srv := testServer(t)
	if code, _ := do(t, http.MethodPut, srv.URL+"/v1/graphs/demo", barbell); code != http.StatusOK {
		t.Fatal("load failed")
	}
	code, body := do(t, http.MethodGet, srv.URL+"/v1/graphs/demo", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	phases, ok := body["last_build_phases_ms"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing last_build_phases_ms: %v", body)
	}
	for _, k := range []string{"first_cc", "rooting", "tagging", "last_cc"} {
		if _, ok := phases[k]; !ok {
			t.Errorf("phases missing %q: %v", k, phases)
		}
	}
}
