package bccdhttp

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	fastbcc "repro"
	"repro/internal/wire"
)

// POST /v1/graphs/{name}/query/batch answers N scalar queries in one
// request: one snapshot reservation (an epoch pin on a pooled handle —
// no shared-memory RMW), one version, N answers. Two encodings are
// negotiated by Content-Type:
//
//   - application/json (default):
//     {"queries":[{"op":"connected","u":0,"v":6},...],"timeout_ms":50}
//     → {"graph":..,"version":..,"count":N,"answers":[1,0,...]}
//   - application/x-fastbcc-batch: a binary wire frame (package wire);
//     13 bytes per query, 4 per answer, zero per-query allocations.
//
// The response encoding follows the request's, unless an Accept header
// names the other one (a binary request with "Accept: application/json"
// gets a JSON answer — how the CI smoke test diffs binary batches
// against the scalar endpoints). Answers are int32s: 0/1 for the
// boolean ops, counts for cuts/bridges. Errors are always JSON, with
// the scalar endpoints' status mapping plus 504 for a batch that
// exceeds its timeout_ms (accepted in the JSON body or, for binary
// requests, as a ?timeout_ms= query parameter).
//
// The whole batch answers from one snapshot version — a batch racing a
// rebuild never mixes versions — and fails atomically: an invalid query
// fails the batch with its index, no partial answers.

// batchScratch is the pooled per-request state of the batch endpoint.
type batchScratch struct {
	qs  []fastbcc.Query
	as  []fastbcc.Answer
	buf []byte
	h   *fastbcc.Handle
}

// jsonQuery is one query in the JSON batch encoding.
type jsonQuery struct {
	Op string `json:"op"`
	U  int32  `json:"u"`
	V  int32  `json:"v"`
	X  int32  `json:"x"`
}

type jsonBatchRequest struct {
	Queries   []jsonQuery `json:"queries"`
	TimeoutMS int         `json:"timeout_ms"`
}

type jsonBatchResponse struct {
	Graph   string           `json:"graph"`
	Version int64            `json:"version"`
	Count   int              `json:"count"`
	Answers []fastbcc.Answer `json:"answers"`
}

// wantsBinary decides the response encoding of an endpoint whose binary
// codec is contentType: an explicit Accept for either type wins,
// otherwise the response mirrors the request.
func wantsBinary(r *http.Request, binaryReq bool, contentType string) bool {
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, contentType):
		return true
	case strings.Contains(accept, "application/json"):
		return false
	}
	return binaryReq
}

func (s *server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sc := s.scratch.Get().(*batchScratch)
	defer s.scratch.Put(sc)

	binaryReq := strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentType)
	timeoutMS := 0
	// Per-codec byte accounting: the body reader counts what the decoder
	// consumed; the response side counts the encoded frame (binary) or
	// the bytes the instrumented writer saw (JSON).
	reqCodec, respCodec := "json", "json"
	if binaryReq {
		reqCodec = "binary"
	}
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, maxBodyBytes)}
	rec, _ := w.(*statusRecorder)
	var respStart int64
	if rec != nil {
		respStart = rec.bytes
	}
	defer func() {
		s.metrics.reqBytes["batch"][reqCodec].Add(body.n)
		if rec != nil {
			s.metrics.resBytes["batch"][respCodec].Add(rec.bytes - respStart)
		}
	}()
	if binaryReq {
		var err error
		sc.qs, err = wire.ReadRequest(body, sc.qs)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, wire.ErrTooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			s.writeError(w, status, "%v", err)
			return
		}
	} else {
		var req jsonBatchRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		if len(req.Queries) > wire.MaxQueries {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				"batch of %d queries exceeds limit %d", len(req.Queries), wire.MaxQueries)
			return
		}
		timeoutMS = req.TimeoutMS
		sc.qs = sc.qs[:0]
		for i, jq := range req.Queries {
			op, err := fastbcc.ParseQueryOp(jq.Op)
			if err != nil {
				s.writeError(w, http.StatusBadRequest, "query %d: %v", i, err)
				return
			}
			sc.qs = append(sc.qs, fastbcc.Query{Op: op, U: jq.U, V: jq.V, X: jq.X})
		}
	}
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms < 0 {
			s.writeError(w, http.StatusBadRequest, "bad timeout_ms %q", raw)
			return
		}
		timeoutMS = ms
	}

	ctx := r.Context()
	if timeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
		defer cancel()
	}

	// One reservation for the whole batch, on the pooled epoch handle.
	if sc.h == nil {
		sc.h = s.store.NewHandle()
	}
	snap, err := sc.h.Acquire(name)
	if err != nil {
		status := http.StatusNotFound
		if errors.Is(err, fastbcc.ErrStoreClosed) {
			status = http.StatusServiceUnavailable
		}
		s.writeError(w, status, "%v", err)
		return
	}
	defer sc.h.Release()

	q0 := time.Now()
	sc.as, err = snap.QueryBatch(ctx, sc.qs, sc.as)
	if took := time.Since(q0); s.slowQuery > 0 && took >= s.slowQuery {
		s.metrics.slow.Inc()
		s.log.Warn("slow batch", "graph", name, "version", snap.Version,
			"queries", len(sc.qs), "took", took)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.writeError(w, http.StatusGatewayTimeout, "batch exceeded its deadline: %v", err)
		case errors.Is(err, context.Canceled):
			s.writeError(w, statusClientClosedRequest, "%v", err)
		default:
			s.writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}

	if wantsBinary(r, binaryReq, wire.ContentType) {
		respCodec = "binary"
		sc.buf = wire.AppendResponse(sc.buf[:0], snap.Version, sc.as)
		w.Header().Set("Content-Type", wire.ContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(sc.buf)))
		if _, err := w.Write(sc.buf); err != nil {
			s.log.Warn("writing batch response", "graph", name, "err", err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, jsonBatchResponse{
		Graph:   snap.Name,
		Version: snap.Version,
		Count:   len(sc.as),
		Answers: sc.as,
	})
}
