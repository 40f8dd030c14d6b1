package bccdhttp

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
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

// batchScratch is the pooled per-request state of the body endpoints.
type batchScratch struct {
	call bodyCall
	qs   []fastbcc.Query
	as   []fastbcc.Answer
	buf  []byte
	h    *fastbcc.Handle
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

func (s *server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	sc := s.scratch.Get().(*batchScratch)
	defer s.scratch.Put(sc)
	c := &sc.call
	c.open(w, r, "batch", wire.ContentType)
	defer c.close(s)

	timeoutMS := 0
	if c.binary {
		var err error
		if sc.qs, err = wire.ReadRequest(&c.body, sc.qs); err != nil {
			s.readFailed(w, err)
			return
		}
	} else {
		var req jsonBatchRequest
		if err := json.NewDecoder(&c.body).Decode(&req); err != nil {
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
	ctx, cancel, ok := s.bodyContext(w, r, timeoutMS)
	if !ok {
		return
	}
	defer cancel()

	// One reservation for the whole batch, on the pooled epoch handle.
	if sc.h == nil {
		sc.h = s.store.NewHandle()
	}
	snap, err := sc.h.Acquire(c.name)
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
		s.log.Warn("slow batch", "graph", c.name, "version", snap.Version,
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

	if wantsBinary(r, c.binary, wire.ContentType) {
		sc.buf = wire.AppendResponse(sc.buf[:0], snap.Version, sc.as)
		c.writeFrame(s, w, sc.buf)
		return
	}
	s.writeJSON(w, http.StatusOK, jsonBatchResponse{
		Graph:   snap.Name,
		Version: snap.Version,
		Count:   len(sc.as),
		Answers: sc.as,
	})
}
