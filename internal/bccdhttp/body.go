package bccdhttp

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

// bodyCall is the byte accounting of one request to a body endpoint, the
// query batch or the mutation: the codec the request came in, the bytes
// its decoder consumed and the bytes the response wrote, under the
// endpoint's label. It lives in the pooled batchScratch, so it adds no
// allocation to a request.
type bodyCall struct {
	endpoint string // the byte counters' endpoint label
	binType  string // the endpoint's binary Content-Type
	name     string // the graph the request names
	binary   bool   // the request body is in the binary codec
	resCodec string
	body     countingReader
	rec      *statusRecorder
	recStart int64
}

// open starts a call on r, picking its codec from Content-Type. The
// caller defers close.
func (c *bodyCall) open(w http.ResponseWriter, r *http.Request, endpoint, binType string) {
	*c = bodyCall{
		endpoint: endpoint,
		binType:  binType,
		name:     r.PathValue("name"),
		binary:   strings.HasPrefix(r.Header.Get("Content-Type"), binType),
		resCodec: "json",
	}
	c.body.r = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if c.rec, _ = w.(*statusRecorder); c.rec != nil {
		c.recStart = c.rec.bytes
	}
}

// close adds the call's request and response bytes to s's counters and
// drops its references to the request.
func (c *bodyCall) close(s *server) {
	reqCodec := "json"
	if c.binary {
		reqCodec = "binary"
	}
	s.metrics.reqBytes[c.endpoint][reqCodec].Add(c.body.n)
	if c.rec != nil {
		s.metrics.resBytes[c.endpoint][c.resCodec].Add(c.rec.bytes - c.recStart)
	}
	c.body.r, c.rec = nil, nil
}

// writeFrame writes a binary response frame and counts it under the
// binary codec.
func (c *bodyCall) writeFrame(s *server, w http.ResponseWriter, frame []byte) {
	c.resCodec = "binary"
	w.Header().Set("Content-Type", c.binType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	if _, err := w.Write(frame); err != nil {
		s.log.Warn("writing "+c.endpoint+" response", "graph", c.name, "err", err)
	}
}

// readFailed answers a request whose binary frame did not decode: 413
// for a frame over its limit, else 400.
func (s *server) readFailed(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, wire.ErrTooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeError(w, status, "%v", err)
}

// bodyContext returns r's context under its timeout: timeoutMS, the JSON
// body's timeout_ms (0 for none), unless a ?timeout_ms= query parameter
// overrides it. ok is false after a 400 for a bad parameter.
func (s *server) bodyContext(w http.ResponseWriter, r *http.Request, timeoutMS int) (ctx context.Context, cancel context.CancelFunc, ok bool) {
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms < 0 {
			s.writeError(w, http.StatusBadRequest, "bad timeout_ms %q", raw)
			return nil, nil, false
		}
		timeoutMS = ms
	}
	if timeoutMS > 0 {
		ctx, cancel = context.WithTimeout(r.Context(), time.Duration(timeoutMS)*time.Millisecond)
		return ctx, cancel, true
	}
	return r.Context(), func() {}, true
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
