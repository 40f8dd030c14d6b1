package bccdhttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	fastbcc "repro"
	"repro/internal/wire"
)

// postBatch sends a JSON batch and decodes the JSON response.
func postBatch(t *testing.T, srv *httptest.Server, name, body string) (int, map[string]any) {
	t.Helper()
	return do(t, http.MethodPost, srv.URL+"/v1/graphs/"+name+"/query/batch", body)
}

// postBinaryBatch sends a binary wire frame and decodes a binary
// response (the default mirror negotiation).
func postBinaryBatch(t *testing.T, srv *httptest.Server, name string, qs []fastbcc.Query) (int, []fastbcc.Answer, int64) {
	t.Helper()
	frame := wire.AppendRequest(nil, qs)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/graphs/"+name+"/query/batch", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, 0
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("binary batch response Content-Type = %q", ct)
	}
	as, version, err := wire.ReadResponse(resp.Body, nil)
	if err != nil {
		t.Fatalf("decoding binary batch response: %v", err)
	}
	return resp.StatusCode, as, version
}

// TestServerBatchMatchesScalar: every op, JSON batch and binary batch,
// answer-for-answer identical to the scalar endpoints.
func TestServerBatchMatchesScalar(t *testing.T) {
	srv := testServer(t)
	if code, body := do(t, http.MethodPut, srv.URL+"/v1/graphs/demo", barbell); code != http.StatusOK {
		t.Fatalf("load: %d %v", code, body)
	}

	var qs []fastbcc.Query
	var jq []string
	var want []fastbcc.Answer
	for u := int32(0); u < 7; u++ {
		for v := int32(0); v < 7; v++ {
			for op := fastbcc.OpConnected; op <= fastbcc.OpBridgesOnPath; op++ {
				x := (u + v) % 7
				qs = append(qs, fastbcc.Query{Op: op, U: u, V: v, X: x})
				jq = append(jq, fmt.Sprintf(`{"op":%q,"u":%d,"v":%d,"x":%d}`, op, u, v, x))

				url := fmt.Sprintf("%s/v1/graphs/demo/query/%s?u=%d&v=%d", srv.URL, op, u, v)
				if op == fastbcc.OpSeparates {
					url += fmt.Sprintf("&x=%d", x)
				}
				code, body := do(t, http.MethodGet, url, "")
				if code != http.StatusOK {
					t.Fatalf("scalar %s: %d %v", url, code, body)
				}
				if op.Counts() {
					want = append(want, fastbcc.Answer(body["count"].(float64)))
				} else if body["result"] == true {
					want = append(want, 1)
				} else {
					want = append(want, 0)
				}
			}
		}
	}

	code, body := postBatch(t, srv, "demo", `{"queries":[`+strings.Join(jq, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("JSON batch: %d %v", code, body)
	}
	if body["count"] != float64(len(qs)) || body["version"] != float64(1) {
		t.Fatalf("JSON batch header: %v", body)
	}
	jsonAs := body["answers"].([]any)
	for i, a := range jsonAs {
		if fastbcc.Answer(a.(float64)) != want[i] {
			t.Fatalf("JSON batch answer %d (%+v): got %v, want %d", i, qs[i], a, want[i])
		}
	}

	code, as, version := postBinaryBatch(t, srv, "demo", qs)
	if code != http.StatusOK {
		t.Fatalf("binary batch: %d", code)
	}
	if version != 1 || len(as) != len(want) {
		t.Fatalf("binary batch: version=%d count=%d", version, len(as))
	}
	for i := range want {
		if as[i] != want[i] {
			t.Fatalf("binary batch answer %d (%+v): got %d, want %d", i, qs[i], as[i], want[i])
		}
	}
}

// TestServerBatchAcceptNegotiation: a binary request with an explicit
// JSON Accept gets a JSON body (the CI smoke test's diff path), and a
// JSON request can ask for a binary answer.
func TestServerBatchAcceptNegotiation(t *testing.T) {
	srv := testServer(t)
	if code, body := do(t, http.MethodPut, srv.URL+"/v1/graphs/demo", barbell); code != http.StatusOK {
		t.Fatalf("load: %d %v", code, body)
	}

	frame := wire.AppendRequest(nil, []fastbcc.Query{{Op: fastbcc.OpConnected, U: 0, V: 6}})
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/graphs/demo/query/batch", bytes.NewReader(frame))
	req.Header.Set("Content-Type", wire.ContentType)
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
	if resp.StatusCode != http.StatusOK || fmt.Sprint(body["answers"]) != "[1]" {
		t.Fatalf("negotiated JSON response: %d %v", resp.StatusCode, body)
	}

	req, _ = http.NewRequest(http.MethodPost, srv.URL+"/v1/graphs/demo/query/batch",
		strings.NewReader(`{"queries":[{"op":"connected","u":0,"v":6}]}`))
	req.Header.Set("Accept", wire.ContentType)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	as, version, err := wire.ReadResponse(resp.Body, nil)
	if err != nil || version != 1 || len(as) != 1 || as[0] != 1 {
		t.Fatalf("negotiated binary response: %v as=%v v=%d", err, as, version)
	}
}

// TestServerBatchValidation: bad ops and out-of-range vertices fail the
// whole batch with 400 naming the query; oversized batches are shed.
func TestServerBatchValidation(t *testing.T) {
	srv := testServer(t)
	if code, body := do(t, http.MethodPut, srv.URL+"/v1/graphs/demo", barbell); code != http.StatusOK {
		t.Fatalf("load: %d %v", code, body)
	}

	code, body := postBatch(t, srv, "demo", `{"queries":[{"op":"connected","u":0,"v":1},{"op":"nonsense","u":0,"v":1}]}`)
	if code != http.StatusBadRequest || !strings.Contains(body["error"].(string), "query 1") {
		t.Fatalf("unknown op: %d %v", code, body)
	}

	code, body = postBatch(t, srv, "demo", `{"queries":[{"op":"connected","u":0,"v":1},{"op":"connected","u":0,"v":99}]}`)
	if code != http.StatusBadRequest || !strings.Contains(body["error"].(string), "query 1") {
		t.Fatalf("out-of-range vertex: %d %v", code, body)
	}

	// Binary invalid op: rejected by the engine with the query index
	// (the wire layer passes ops through).
	qs := []fastbcc.Query{{Op: fastbcc.OpConnected, U: 0, V: 1}, {Op: fastbcc.QueryOp(99), U: 0, V: 1}}
	if code, _, _ := postBinaryBatch(t, srv, "demo", qs); code != http.StatusBadRequest {
		t.Fatalf("binary invalid op: %d, want 400", code)
	}

	if code, _ := postBatch(t, srv, "nope", `{"queries":[{"op":"connected","u":0,"v":1}]}`); code != http.StatusNotFound {
		t.Fatalf("unknown graph: %d, want 404", code)
	}

	// An empty batch is legal and returns zero answers.
	code, body = postBatch(t, srv, "demo", `{"queries":[]}`)
	if code != http.StatusOK || body["count"] != float64(0) {
		t.Fatalf("empty batch: %d %v", code, body)
	}
}
