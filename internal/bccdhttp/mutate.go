package bccdhttp

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	fastbcc "repro"
	"repro/internal/wire"
)

// POST /v1/graphs/{name}/edges mutates a loaded graph in place: a batch
// of edge insertions and deletions applied through Store.ApplyBatch,
// which classifies each insertion against the serving decomposition and
// picks the cheapest exact update (shared-index fast path, bounded
// block-path collapse, or one coalesced background rebuild). Two
// encodings are negotiated by Content-Type, mirroring the batch-query
// endpoint:
//
//   - application/json (default):
//     {"add":[[0,5],[2,3]],"del":[[1,4]],"timeout_ms":50}
//     → {"graph":..,"version":..,"fast":..,"collapsed":..,"queued":..,
//     "pending":..,"delta_age_ms":..}
//   - application/x-fastbcc-mutation: a binary wire frame ("bcu1" in,
//     "bcm1" out; package wire), 8 bytes per edge.
//
// The response encoding follows the request's unless an Accept header
// names the other one. queued > 0 means those entries are not yet
// visible to queries — pending and delta_age_ms report the staleness
// window, which closes when the coalesced rebuild publishes.

// jsonMutationRequest is the JSON mutation encoding: edge endpoints as
// [u,w] pairs.
type jsonMutationRequest struct {
	Add       [][2]int32 `json:"add"`
	Del       [][2]int32 `json:"del"`
	TimeoutMS int        `json:"timeout_ms"`
}

type jsonMutationResponse struct {
	Graph      string  `json:"graph"`
	Version    int64   `json:"version"`
	Fast       int     `json:"fast"`
	Collapsed  int     `json:"collapsed"`
	Queued     int     `json:"queued"`
	Pending    int     `json:"pending"`
	DeltaAgeMS float64 `json:"delta_age_ms"`
}

// writeMutationError maps a failed ApplyBatch onto its HTTP status:
// 404 for a graph never loaded or removed, 503 for a closing store,
// 504/499 for a deadline or departed client while waiting on the
// entry's build lock, and 400 for everything the request itself got
// wrong (out-of-range endpoints, oversized batch).
func (s *server) writeMutationError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, fastbcc.ErrNotLoaded):
		status = http.StatusNotFound
	case errors.Is(err, fastbcc.ErrStoreClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = statusClientClosedRequest
	}
	s.writeError(w, status, "%v", err)
}

func (s *server) handleMutate(w http.ResponseWriter, r *http.Request) {
	sc := s.scratch.Get().(*batchScratch)
	defer s.scratch.Put(sc)
	c := &sc.call
	c.open(w, r, "mutate", wire.MutationContentType)
	defer c.close(s)

	timeoutMS := 0
	var adds, dels []fastbcc.Edge
	if c.binary {
		var err error
		if adds, dels, err = wire.ReadMutation(&c.body); err != nil {
			s.readFailed(w, err)
			return
		}
	} else {
		var req jsonMutationRequest
		if err := json.NewDecoder(&c.body).Decode(&req); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		if len(req.Add)+len(req.Del) > wire.MaxMutations {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				"batch of %d mutations exceeds limit %d",
				len(req.Add)+len(req.Del), wire.MaxMutations)
			return
		}
		timeoutMS = req.TimeoutMS
		toEdges := func(pairs [][2]int32) []fastbcc.Edge {
			if len(pairs) == 0 {
				return nil
			}
			out := make([]fastbcc.Edge, 0, len(pairs))
			for _, p := range pairs {
				out = append(out, fastbcc.Edge{U: p[0], W: p[1]})
			}
			return out
		}
		adds, dels = toEdges(req.Add), toEdges(req.Del)
	}
	ctx, cancel, ok := s.bodyContext(w, r, timeoutMS)
	if !ok {
		return
	}
	defer cancel()

	res, err := s.store.ApplyBatch(ctx, c.name, adds, dels)
	if err != nil {
		s.writeMutationError(w, err)
		return
	}
	s.log.Info("mutate", "graph", c.name, "version", res.Version,
		"fast", res.Fast, "collapsed", res.Collapsed, "queued", res.Queued,
		"pending", res.Pending)

	if wantsBinary(r, c.binary, wire.MutationContentType) {
		sc.buf = wire.AppendMutationResult(sc.buf[:0], res)
		c.writeFrame(s, w, sc.buf)
		return
	}
	s.writeJSON(w, http.StatusOK, jsonMutationResponse{
		Graph:      c.name,
		Version:    res.Version,
		Fast:       res.Fast,
		Collapsed:  res.Collapsed,
		Queued:     res.Queued,
		Pending:    res.Pending,
		DeltaAgeMS: float64(res.DeltaAge.Microseconds()) / 1000,
	})
}
