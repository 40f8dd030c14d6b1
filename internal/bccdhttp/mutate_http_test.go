package bccdhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	fastbcc "repro"
	"repro/internal/wire"
)

// mutateServer is testServer with the Store exposed, so tests can drain
// queued deltas deterministically with FlushDeltas instead of sleeping —
// the hour-long coalesce window keeps the background flusher from
// racing the assertions.
func mutateServer(t *testing.T) (*httptest.Server, *fastbcc.Store) {
	t.Helper()
	store := fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{
		Workers: 2, MutationCoalesce: time.Hour,
	})
	srv := httptest.NewServer(NewHandler(store, Config{}))
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	return srv, store
}

func postMutation(t *testing.T, srv *httptest.Server, name, body string) (int, map[string]any) {
	t.Helper()
	return do(t, http.MethodPost, srv.URL+"/v1/graphs/"+name+"/edges", body)
}

// postBinaryMutation sends a bcu1 frame and decodes the bcm1 response.
func postBinaryMutation(t *testing.T, srv *httptest.Server, name string, adds, dels []fastbcc.Edge) (int, fastbcc.MutationResult) {
	t.Helper()
	frame := wire.AppendMutation(nil, adds, dels)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/graphs/"+name+"/edges", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.MutationContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fastbcc.MutationResult{}
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.MutationContentType {
		t.Fatalf("binary mutation response Content-Type = %q", ct)
	}
	res, err := wire.ReadMutationResult(resp.Body)
	if err != nil {
		t.Fatalf("decoding binary mutation response: %v", err)
	}
	return resp.StatusCode, res
}

// TestServerMutateJSON drives the full JSON mutation surface on the
// barbell: a fast-path insertion bumps the version synchronously and
// shows up as an overlay edge in stats; a bridge deletion queues, and
// after the coalesced flush the graph is split and the staleness fields
// read clean again.
func TestServerMutateJSON(t *testing.T) {
	srv, store := mutateServer(t)
	if code, body := do(t, http.MethodPut, srv.URL+"/v1/graphs/demo", barbell); code != http.StatusOK {
		t.Fatalf("load: %d %v", code, body)
	}

	// Parallel edge inside the triangle: fast class, synchronous version.
	code, body := postMutation(t, srv, "demo", `{"add":[[0,2]]}`)
	if code != http.StatusOK {
		t.Fatalf("fast add: %d %v", code, body)
	}
	if body["fast"] != float64(1) || body["queued"] != float64(0) || body["version"] != float64(2) {
		t.Fatalf("fast add result: %v", body)
	}

	code, body = do(t, http.MethodGet, srv.URL+"/v1/graphs/demo", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %v", code, body)
	}
	if body["overlay_edges"] != float64(1) || body["m"] != float64(9) {
		t.Fatalf("stats after fast add: overlay_edges=%v m=%v", body["overlay_edges"], body["m"])
	}

	// Deleting the bridge cannot be classified: it queues for the
	// coalesced rebuild and the last-good snapshot keeps serving.
	code, body = postMutation(t, srv, "demo", `{"del":[[2,3]]}`)
	if code != http.StatusOK || body["queued"] != float64(1) || body["pending"] != float64(1) {
		t.Fatalf("bridge delete: %d %v", code, body)
	}
	code, body = do(t, http.MethodGet, srv.URL+"/v1/graphs/demo/query/connected?u=0&v=6", "")
	if code != http.StatusOK || body["result"] != true {
		t.Fatalf("query before flush: %d %v (last-good should still serve)", code, body)
	}

	if err := store.FlushDeltas(context.Background(), "demo"); err != nil {
		t.Fatalf("FlushDeltas: %v", err)
	}
	code, body = do(t, http.MethodGet, srv.URL+"/v1/graphs/demo/query/connected?u=0&v=6", "")
	if code != http.StatusOK || body["result"] != false {
		t.Fatalf("query after flush: %d %v (bridge delete should disconnect)", code, body)
	}
	code, body = do(t, http.MethodGet, srv.URL+"/v1/graphs/demo", "")
	if code != http.StatusOK {
		t.Fatalf("stats after flush: %d %v", code, body)
	}
	if body["delta_flushes"] != float64(1) || body["pending_deltas"] != nil ||
		body["overlay_edges"] != nil {
		t.Fatalf("staleness after flush: %v", body)
	}
}

// TestServerMutateBinary: the bcu1/bcm1 codec end to end, plus Accept
// negotiation crossing codecs both ways.
func TestServerMutateBinary(t *testing.T) {
	srv, _ := mutateServer(t)
	if code, body := do(t, http.MethodPut, srv.URL+"/v1/graphs/demo", barbell); code != http.StatusOK {
		t.Fatalf("load: %d %v", code, body)
	}

	code, res := postBinaryMutation(t, srv, "demo", []fastbcc.Edge{{U: 0, W: 2}}, nil)
	if code != http.StatusOK || res.Fast != 1 || res.Version != 2 || res.Queued != 0 {
		t.Fatalf("binary fast add: %d %+v", code, res)
	}

	// Binary request, JSON accept.
	frame := wire.AppendMutation(nil, []fastbcc.Edge{{U: 1, W: 2}}, nil)
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/graphs/demo/edges", bytes.NewReader(frame))
	req.Header.Set("Content-Type", wire.MutationContentType)
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("binary request + JSON accept did not produce JSON: %v", err)
	}
	if resp.StatusCode != http.StatusOK || body["fast"] != float64(1) || body["version"] != float64(3) {
		t.Fatalf("negotiated JSON response: %d %v", resp.StatusCode, body)
	}

	// JSON request, binary accept.
	req, _ = http.NewRequest(http.MethodPost, srv.URL+"/v1/graphs/demo/edges",
		bytes.NewReader([]byte(`{"add":[[0,1]]}`)))
	req.Header.Set("Accept", wire.MutationContentType)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	res, err = func() (fastbcc.MutationResult, error) { return wire.ReadMutationResult(resp.Body) }()
	if err != nil || res.Version != 4 || res.Fast != 1 {
		t.Fatalf("negotiated binary response: %v %+v", err, res)
	}
}

// TestMutationMetricsExactCounts drives a known mutation mix and asserts
// the scraped mutation series exactly: the per-class counters, the
// coalesced flush-size histogram (one unit per second, so _sum is the
// delta count), and the pending/staleness gauges before and after the
// flush — aggregate and per-graph.
func TestMutationMetricsExactCounts(t *testing.T) {
	srv, store := mutateServer(t)
	if code, body := do(t, http.MethodPut, srv.URL+"/v1/graphs/demo", barbell); code != http.StatusOK {
		t.Fatalf("load: %d %v", code, body)
	}

	// 2 fast (parallel edges in the triangle), then 3 rebuild-class
	// mutations: 0-4, whose endpoints are connected but not biconnected,
	// and 2 deletions.
	reqBytes := 0
	for _, m := range []struct {
		body, class string
		n           float64
	}{
		{`{"add":[[0,2],[1,2]]}`, "fast", 2},
		{`{"add":[[0,4]]}`, "queued", 1},
		{`{"del":[[5,6],[4,5]]}`, "queued", 2},
	} {
		code, body := postMutation(t, srv, "demo", m.body)
		if code != http.StatusOK || body[m.class] != m.n {
			t.Fatalf("mutation %s: %d %v", m.body, code, body)
		}
		reqBytes += len(m.body)
	}

	got := scrape(t, srv.URL)
	pending := map[string]float64{
		`fastbcc_mutations_total{class="fast"}`:                       2,
		`fastbcc_mutations_total{class="rebuild"}`:                    3,
		`fastbcc_mutation_flush_size_count`:                           0,
		`fastbcc_pending_deltas`:                                      3,
		`fastbcc_graph_pending_deltas{graph="demo"}`:                  3,
		`bccd_http_responses_total{endpoint="mutate",code="2xx"}`:     3,
		`bccd_http_request_duration_seconds_count{endpoint="mutate"}`: 3,
		// Mutation bodies count under their own endpoint, never the
		// batch endpoint's.
		`bccd_http_request_bytes_total{endpoint="mutate",codec="json"}`:   float64(reqBytes),
		`bccd_http_request_bytes_total{endpoint="mutate",codec="binary"}`: 0,
		`bccd_http_request_bytes_total{endpoint="batch",codec="json"}`:    0,
		`bccd_http_request_bytes_total{endpoint="batch",codec="binary"}`:  0,
		`bccd_http_response_bytes_total{endpoint="batch",codec="json"}`:   0,
		`bccd_http_response_bytes_total{endpoint="batch",codec="binary"}`: 0,
	}
	for series, v := range pending {
		if g, ok := got[series]; !ok || g != v {
			t.Errorf("before flush: %s = %v (found %v), want %v", series, g, ok, v)
		}
	}
	if _, ok := got[`fastbcc_mutations_total{class="collapse"}`]; ok {
		t.Error(`the retired fastbcc_mutations_total{class="collapse"} series is still exported`)
	}
	if got[`fastbcc_delta_staleness_seconds`] <= 0 ||
		got[`fastbcc_graph_delta_staleness_seconds{graph="demo"}`] <= 0 {
		t.Errorf("staleness gauges not positive with deltas pending: %v / %v",
			got[`fastbcc_delta_staleness_seconds`],
			got[`fastbcc_graph_delta_staleness_seconds{graph="demo"}`])
	}

	if err := store.FlushDeltas(context.Background(), "demo"); err != nil {
		t.Fatalf("FlushDeltas: %v", err)
	}
	got = scrape(t, srv.URL)
	flushed := map[string]float64{
		`fastbcc_mutation_flush_size_count`:                   1,
		`fastbcc_mutation_flush_size_sum`:                     3, // 3 deltas in the one coalesced flush
		`fastbcc_pending_deltas`:                              0,
		`fastbcc_delta_staleness_seconds`:                     0,
		`fastbcc_graph_pending_deltas{graph="demo"}`:          0,
		`fastbcc_graph_delta_staleness_seconds{graph="demo"}`: 0,
	}
	for series, v := range flushed {
		if g, ok := got[series]; !ok || g != v {
			t.Errorf("after flush: %s = %v (found %v), want %v", series, g, ok, v)
		}
	}
}

// TestServerMutateValidation: the error surface — unknown graph,
// out-of-range endpoints, malformed and hostile binary frames.
func TestServerMutateValidation(t *testing.T) {
	srv, _ := mutateServer(t)
	if code, body := do(t, http.MethodPut, srv.URL+"/v1/graphs/demo", barbell); code != http.StatusOK {
		t.Fatalf("load: %d %v", code, body)
	}

	if code, _ := postMutation(t, srv, "nope", `{"add":[[0,1]]}`); code != http.StatusNotFound {
		t.Fatalf("unknown graph: %d, want 404", code)
	}
	if code, body := postMutation(t, srv, "demo", `{"add":[[0,7]]}`); code != http.StatusBadRequest {
		t.Fatalf("out-of-range vertex: %d %v", code, body)
	}
	if code, body := postMutation(t, srv, "demo", `{"add":[[0,`); code != http.StatusBadRequest {
		t.Fatalf("truncated JSON: %d %v", code, body)
	}

	// Truncated binary frame.
	frame := wire.AppendMutation(nil, []fastbcc.Edge{{U: 0, W: 1}}, nil)
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/graphs/demo/edges", bytes.NewReader(frame[:len(frame)-3]))
	req.Header.Set("Content-Type", wire.MutationContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated binary frame: %d, want 400", resp.StatusCode)
	}

	// Hostile frame declaring more mutations than the cap: 413.
	huge := wire.AppendMutation(nil, nil, nil)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0x7F
	req, _ = http.NewRequest(http.MethodPost, srv.URL+"/v1/graphs/demo/edges", bytes.NewReader(huge))
	req.Header.Set("Content-Type", wire.MutationContentType)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("hostile length prefix: %d, want 413", resp.StatusCode)
	}

	// An empty batch is legal: it reports the current version.
	code, body := postMutation(t, srv, "demo", `{}`)
	if code != http.StatusOK || body["version"] != float64(1) {
		t.Fatalf("empty mutation: %d %v", code, body)
	}
}
