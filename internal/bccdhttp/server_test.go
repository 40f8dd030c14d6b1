package bccdhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	fastbcc "repro"
	"repro/internal/wire"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	store := fastbcc.NewStore(2)
	srv := httptest.NewServer(NewHandler(store, Config{}))
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	return srv
}

func do(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: bad JSON: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// barbell is the test graph: triangle 0-1-2, bridge 2-3, square 3-4-5-6.
const barbell = `{"n":7,"edges":[[0,1],[1,2],[2,0],[2,3],[3,4],[4,5],[5,6],[6,3]]}`

func TestServerEndToEnd(t *testing.T) {
	srv := testServer(t)

	code, body := do(t, http.MethodGet, srv.URL+"/healthz", "")
	if code != http.StatusOK || body["ok"] != true {
		t.Fatalf("healthz: %d %v", code, body)
	}

	code, body = do(t, http.MethodPut, srv.URL+"/v1/graphs/demo", barbell)
	if code != http.StatusOK {
		t.Fatalf("load: %d %v", code, body)
	}
	if body["n"] != float64(7) || body["blocks"] != float64(3) ||
		body["cuts"] != float64(2) || body["bridges"] != float64(1) || body["version"] != float64(1) {
		t.Fatalf("load stats: %v", body)
	}

	queries := []struct {
		url  string
		key  string
		want any
	}{
		{"/v1/graphs/demo/query/connected?u=0&v=6", "result", true},
		{"/v1/graphs/demo/query/biconnected?u=0&v=1", "result", true},
		{"/v1/graphs/demo/query/biconnected?u=0&v=6", "result", false},
		{"/v1/graphs/demo/query/twoecc?u=3&v=6", "result", true},
		{"/v1/graphs/demo/query/twoecc?u=2&v=3", "result", false},
		{"/v1/graphs/demo/query/separates?x=2&u=0&v=4", "result", true},
		{"/v1/graphs/demo/query/separates?x=4&u=0&v=3", "result", false},
		{"/v1/graphs/demo/query/cuts?u=0&v=4", "count", float64(2)},
		{"/v1/graphs/demo/query/bridges?u=1&v=5", "count", float64(1)},
	}
	for _, q := range queries {
		code, body := do(t, http.MethodGet, srv.URL+q.url, "")
		if code != http.StatusOK || body[q.key] != q.want {
			t.Errorf("%s: %d %v, want %s=%v", q.url, code, body, q.key, q.want)
		}
	}

	// Enumerating variants.
	code, body = do(t, http.MethodGet, srv.URL+"/v1/graphs/demo/query/cuts?u=0&v=4&list=1", "")
	if code != http.StatusOK || fmt.Sprint(body["cuts"]) != "[2 3]" {
		t.Fatalf("cuts list: %d %v", code, body)
	}
	code, body = do(t, http.MethodGet, srv.URL+"/v1/graphs/demo/query/bridges?u=1&v=5&list=1", "")
	if code != http.StatusOK || fmt.Sprint(body["bridges"]) != "[[2 3]]" {
		t.Fatalf("bridges list: %d %v", code, body)
	}

	// Rebuild refuses graph-defining fields: replacing a graph is PUT's job.
	if code, _ := do(t, http.MethodPost, srv.URL+"/v1/graphs/demo/rebuild", `{"edges":[[0,1]]}`); code != http.StatusBadRequest {
		t.Fatalf("rebuild with edges: %d", code)
	}

	// Rebuild bumps the version; stats agree.
	code, body = do(t, http.MethodPost, srv.URL+"/v1/graphs/demo/rebuild", `{"seed":9}`)
	if code != http.StatusOK || body["version"] != float64(2) {
		t.Fatalf("rebuild: %d %v", code, body)
	}
	code, body = do(t, http.MethodGet, srv.URL+"/v1/graphs/demo", "")
	if code != http.StatusOK || body["version"] != float64(2) {
		t.Fatalf("stats: %d %v", code, body)
	}

	// Listing.
	code, body = do(t, http.MethodGet, srv.URL+"/v1/graphs", "")
	if code != http.StatusOK || len(body["graphs"].([]any)) != 1 {
		t.Fatalf("list: %d %v", code, body)
	}

	// Errors: bad vertex, unknown op, unknown graph, bad body.
	if code, _ := do(t, http.MethodGet, srv.URL+"/v1/graphs/demo/query/connected?u=0&v=99", ""); code != http.StatusBadRequest {
		t.Fatalf("out-of-range vertex: %d", code)
	}
	if code, _ := do(t, http.MethodGet, srv.URL+"/v1/graphs/demo/query/connected?u=0", ""); code != http.StatusBadRequest {
		t.Fatalf("missing v: %d", code)
	}
	if code, _ := do(t, http.MethodGet, srv.URL+"/v1/graphs/demo/query/nonsense?u=0&v=1", ""); code != http.StatusNotFound {
		t.Fatalf("unknown op: %d", code)
	}
	if code, _ := do(t, http.MethodGet, srv.URL+"/v1/graphs/nope/query/connected?u=0&v=1", ""); code != http.StatusNotFound {
		t.Fatalf("unknown graph: %d", code)
	}
	if code, _ := do(t, http.MethodPut, srv.URL+"/v1/graphs/bad", `{"n":2,"edges":[[0,7]]}`); code != http.StatusBadRequest {
		t.Fatalf("bad edge: %d", code)
	}

	// Remove, then everything 404s.
	if code, _ := do(t, http.MethodDelete, srv.URL+"/v1/graphs/demo", ""); code != http.StatusOK {
		t.Fatalf("remove: %d", code)
	}
	if code, _ := do(t, http.MethodGet, srv.URL+"/v1/graphs/demo", ""); code != http.StatusNotFound {
		t.Fatalf("stats after remove: %d", code)
	}
}

// TestServerAlgorithmSelection loads the same graph once per registered
// algorithm and checks the decomposition stats and query answers are
// engine-independent, the "algo" field round-trips through stats, and
// rebuilds keep or switch the engine as requested.
func TestServerAlgorithmSelection(t *testing.T) {
	srv := testServer(t)

	// healthz advertises the registry.
	code, body := do(t, http.MethodGet, srv.URL+"/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %v", code, body)
	}
	algos, _ := body["algorithms"].([]any)
	if len(algos) < 5 {
		t.Fatalf("healthz algorithms: %v", body["algorithms"])
	}

	for _, a := range fastbcc.Algorithms() {
		name := "algo-" + a.Name
		req := fmt.Sprintf(`{"n":7,"edges":[[0,1],[1,2],[2,0],[2,3],[3,4],[4,5],[5,6],[6,3]],"algo":%q}`, a.Name)
		code, body := do(t, http.MethodPut, srv.URL+"/v1/graphs/"+name, req)
		if code != http.StatusOK {
			t.Fatalf("load %s: %d %v", a.Name, code, body)
		}
		if body["algo"] != a.Name {
			t.Fatalf("load %s: algo=%v", a.Name, body["algo"])
		}
		if body["blocks"] != float64(3) || body["cuts"] != float64(2) || body["bridges"] != float64(1) {
			t.Fatalf("%s decomposition differs: %v", a.Name, body)
		}
		code, body = do(t, http.MethodGet, srv.URL+"/v1/graphs/"+name+"/query/separates?x=2&u=0&v=4", "")
		if code != http.StatusOK || body["result"] != true {
			t.Fatalf("%s separates query: %d %v", a.Name, code, body)
		}
	}

	// Rebuild with no algo keeps the engine; with algo switches it.
	code, body = do(t, http.MethodPost, srv.URL+"/v1/graphs/algo-sm14/rebuild", "")
	if code != http.StatusOK || body["algo"] != "sm14" || body["version"] != float64(2) {
		t.Fatalf("rebuild keep: %d %v", code, body)
	}
	code, body = do(t, http.MethodPost, srv.URL+"/v1/graphs/algo-sm14/rebuild", `{"algo":"gbbs"}`)
	if code != http.StatusOK || body["algo"] != "gbbs" || body["version"] != float64(3) {
		t.Fatalf("rebuild switch: %d %v", code, body)
	}

	// Unknown algorithms are a client error on load and rebuild.
	if code, _ := do(t, http.MethodPut, srv.URL+"/v1/graphs/bad-algo", `{"n":2,"edges":[[0,1]],"algo":"nope"}`); code != http.StatusBadRequest {
		t.Fatalf("load with unknown algo: %d", code)
	}
	if code, _ := do(t, http.MethodPost, srv.URL+"/v1/graphs/algo-fast/rebuild", `{"algo":"nope"}`); code != http.StatusBadRequest {
		t.Fatalf("rebuild with unknown algo: %d", code)
	}
}

// TestServerRestartKeepsLoadedIDs: a graph served from a durable store
// answers in the vertex ids it was loaded with across Persist, a clean
// shutdown, Recover and a new handler. The load carries a legacy field
// that older servers used to relabel the graph; the handler now ignores
// it like any unknown field. Every answer must equal that of an
// in-memory twin given the same graph and mutation.
func TestServerRestartKeepsLoadedIDs(t *testing.T) {
	// Even ids form a triangle-bridge-square chain, odd ids a separate
	// cycle, so the two components interleave in id space.
	const n = 14
	const edges = `[[0,2],[2,4],[4,0],[4,6],[6,8],[8,10],[10,12],[12,6],[1,3],[3,5],[5,7],[7,9],[9,11],[11,13],[13,1]]`
	dir := t.TempDir()
	serve := func() (*fastbcc.Store, *httptest.Server) {
		store := fastbcc.NewStoreWithConfig(fastbcc.StoreConfig{DataDir: dir, MutationCoalesce: time.Hour})
		srv := httptest.NewServer(NewHandler(store, Config{}))
		t.Cleanup(func() {
			srv.Close()
			store.Close()
		})
		return store, srv
	}

	store, srv := serve()
	twin, _ := mutateServer(t)
	for _, c := range []struct {
		srv  *httptest.Server
		load string
	}{
		{srv, `{"n":14,"edges":` + edges + `,"reorder":true}`},
		{twin, `{"n":14,"edges":` + edges + `}`},
	} {
		if code, body := do(t, http.MethodPut, c.srv.URL+"/v1/graphs/g", c.load); code != http.StatusOK {
			t.Fatalf("load %s: %d %v", c.load, code, body)
		}
		// {2,4} parallels a triangle edge: a fast-path overlay insertion.
		if code, body := postMutation(t, c.srv, "g", `{"add":[[2,4]]}`); code != http.StatusOK || body["fast"] != float64(1) {
			t.Fatalf("mutate: %d %v", code, body)
		}
	}
	if err := store.Persist("g"); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	store.Close()

	store, srv = serve()
	rep, err := store.Recover(context.Background())
	if err != nil || len(rep.Graphs) != 1 || len(rep.Failures) != 0 {
		t.Fatalf("recover: %+v, %v", rep, err)
	}

	var qs []fastbcc.Query
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			for op := fastbcc.OpConnected; op <= fastbcc.OpBridgesOnPath; op++ {
				if op != fastbcc.OpSeparates {
					qs = append(qs, fastbcc.Query{Op: op, U: u, V: v})
					continue
				}
				for x := int32(0); x < n; x++ {
					qs = append(qs, fastbcc.Query{Op: op, U: u, V: v, X: x})
				}
			}
		}
	}
	code, got, _ := postBinaryBatch(t, srv, "g", qs)
	codeT, want, _ := postBinaryBatch(t, twin, "g", qs)
	if code != http.StatusOK || codeT != http.StatusOK {
		t.Fatalf("batch status: restarted %d, twin %d", code, codeT)
	}
	wrong := 0
	for i := range qs {
		if got[i] != want[i] {
			if wrong == 0 {
				t.Errorf("query %+v: %d restarted vs %d twin", qs[i], got[i], want[i])
			}
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("%d of %d batch answers differ after the restart", wrong, len(qs))
	}

	// The enumerations, as sets: cut vertices, and bridges with their
	// endpoints in ascending order.
	set := func(v any) map[string]bool {
		out := map[string]bool{}
		list, _ := v.([]any)
		for _, e := range list {
			if p, ok := e.([]any); ok && p[0].(float64) > p[1].(float64) {
				e = []any{p[1], p[0]}
			}
			out[fmt.Sprint(e)] = true
		}
		return out
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			for _, op := range []string{"cuts", "bridges"} {
				q := fmt.Sprintf("/v1/graphs/g/query/%s?u=%d&v=%d&list=1", op, u, v)
				code, r := do(t, http.MethodGet, srv.URL+q, "")
				codeT, o := do(t, http.MethodGet, twin.URL+q, "")
				if code != http.StatusOK || codeT != http.StatusOK ||
					fmt.Sprint(set(r[op])) != fmt.Sprint(set(o[op])) {
					t.Fatalf("%s: restarted %d %v vs twin %d %v", q, code, r[op], codeT, o[op])
				}
			}
		}
	}
}

// discardWriter is a ResponseWriter that keeps only the status, so an
// allocation count covers the handler alone.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestAllocGuardScalarSeparates bounds the allocations of one scalar
// separates request through the in-process handler. The handler parses
// the query string once, and a request then takes 12 allocations at
// GOMAXPROCS 1-4; the bound is that plus 10%. Parsing it again for each
// of u, v, x and list takes 27 and cannot pass.
func TestAllocGuardScalarSeparates(t *testing.T) {
	store := fastbcc.NewStore(2)
	defer store.Close()
	snap, err := store.Load(context.Background(), "guard", fastbcc.GenerateRMAT(12, 8, 0xBC), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	h := NewHandler(store, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/graphs/guard/query/separates?x=2&u=0&v=4", nil)
	w := &discardWriter{h: make(http.Header)}
	avg := testing.AllocsPerRun(200, func() {
		w.code = 0
		h.ServeHTTP(w, req)
	})
	if w.code != http.StatusOK {
		t.Fatalf("separates request: status %d", w.code)
	}
	t.Logf("scalar separates: %.1f allocs/request", avg)
	if avg > 13 {
		t.Fatalf("scalar separates: %.1f allocs/request, want <= 13", avg)
	}
}

// replayBody is a request body that can be rewound, so an allocation
// count over a reused POST request covers the handler alone.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// bodyRequestAllocs returns the allocations of one POST of body to path
// with Content-Type ct through the in-process handler of a store serving
// RMAT-12-8 as "guard".
func bodyRequestAllocs(t *testing.T, path, ct string, body []byte) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	store := fastbcc.NewStore(2)
	defer store.Close()
	snap, err := store.Load(context.Background(), "guard", fastbcc.GenerateRMAT(12, 8, 0xBC), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	h := NewHandler(store, Config{})
	rb := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, path, rb)
	req.Header.Set("Content-Type", ct)
	w := &discardWriter{h: make(http.Header)}
	avg := testing.AllocsPerRun(200, func() {
		rb.Reset(body)
		w.code = 0
		h.ServeHTTP(w, req)
	})
	if w.code != 0 && w.code != http.StatusOK {
		t.Fatalf("POST %s: status %d", path, w.code)
	}
	return avg
}

// TestAllocGuardBinaryBatch bounds the allocations of a one-query binary
// batch through the in-process handler: 8 at GOMAXPROCS 1-8, whose
// bound is that plus 10%. The JSON codec of the same batch takes 20.
func TestAllocGuardBinaryBatch(t *testing.T) {
	frame := wire.AppendRequest(nil, []fastbcc.Query{{Op: fastbcc.OpConnected, U: 0, V: 6}})
	avg := bodyRequestAllocs(t, "/v1/graphs/guard/query/batch", wire.ContentType, frame)
	t.Logf("binary batch: %.1f allocs/request", avg)
	if avg > 8.8 {
		t.Fatalf("binary batch: %.1f allocs/request, want <= 8.8", avg)
	}
}

// TestAllocGuardBinaryMutation bounds the allocations of an empty binary
// mutation, which reaches the store and answers its version, through the
// in-process handler: 9 at GOMAXPROCS 1-8, whose bound is that plus 10%.
// The JSON codec of the same mutation takes 18.
func TestAllocGuardBinaryMutation(t *testing.T) {
	frame := wire.AppendMutation(nil, nil, nil)
	avg := bodyRequestAllocs(t, "/v1/graphs/guard/edges", wire.MutationContentType, frame)
	t.Logf("binary mutation: %.1f allocs/request", avg)
	if avg > 9.9 {
		t.Fatalf("binary mutation: %.1f allocs/request, want <= 9.9", avg)
	}
}
