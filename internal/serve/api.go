package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// HTTP API (all JSON):
//
//	POST /api/v1/jobs                     submit a CampaignSpec → JobStatus
//	GET  /api/v1/jobs                     list jobs
//	GET  /api/v1/jobs/{id}                one job, with per-shard detail
//	GET  /api/v1/jobs/{id}/events?cursor=N
//	     long-poll: blocks until events with seq > N exist, then returns
//	     them; with Accept: text/event-stream, streams events as SSE
//	     instead, each `data:` line one Event, until the client leaves.
//	POST /api/v1/workers                  register → {worker_id}
//	DELETE /api/v1/workers/{id}           deregister: ends the worker's
//	     parked lease request and returns its held shards to pending
//	     without costing an attempt
//	POST /api/v1/lease                    {worker_id} → LeaseGrant, or 204
//	     long-poll: blocks until a shard is runnable; 204 when the worker
//	     deregistered, the coordinator closed or longPollTimeout passed.
//	     A request whose client has left is never granted a shard.
//	POST /api/v1/leases/{lease}/heartbeat {worker_id}
//	POST /api/v1/leases/{lease}/complete  {worker_id, result}
//	POST /api/v1/leases/{lease}/fail      {worker_id, reason}
//
// A lost lease answers 409 Conflict; Client turns that back into
// ErrLeaseLost so remote workers behave exactly like in-process ones.

// longPollTimeout bounds how long an events request or a Lease call may
// block before returning empty-handed (the caller just asks again).
const longPollTimeout = 25 * time.Second

// NewServer wraps a coordinator in its HTTP API.
func NewServer(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", func(rw http.ResponseWriter, req *http.Request) {
		var spec CampaignSpec
		if !readJSON(rw, req, &spec) {
			return
		}
		st, err := c.accept(spec)
		if err != nil {
			httpError(rw, http.StatusBadRequest, err)
			return
		}
		// Acknowledge, then dispatch. Workers woken before the reply is on
		// the wire, as many of them as cores and computing without blocking,
		// keep it from its reader for a scheduler time slice or two: the
		// submitter heard of its job 10-20 ms after it began, in about one
		// job in twenty. The reply declares its length, so the flush
		// completes it.
		writeJSON(rw, http.StatusCreated, st)
		http.NewResponseController(rw).Flush()
		c.dispatch()
	})
	mux.HandleFunc("GET /api/v1/jobs", func(rw http.ResponseWriter, req *http.Request) {
		writeJSON(rw, http.StatusOK, c.Jobs())
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}", func(rw http.ResponseWriter, req *http.Request) {
		st, ok := c.Job(req.PathValue("id"))
		if !ok {
			httpError(rw, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", req.PathValue("id")))
			return
		}
		writeJSON(rw, http.StatusOK, st)
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", func(rw http.ResponseWriter, req *http.Request) {
		handleEvents(c, rw, req)
	})
	mux.HandleFunc("POST /api/v1/workers", func(rw http.ResponseWriter, req *http.Request) {
		var info WorkerInfo
		if !readJSON(rw, req, &info) {
			return
		}
		id, err := c.Register(info)
		if err != nil {
			httpError(rw, http.StatusBadRequest, err)
			return
		}
		writeJSON(rw, http.StatusOK, map[string]string{"worker_id": id})
	})
	mux.HandleFunc("POST /api/v1/lease", func(rw http.ResponseWriter, req *http.Request) {
		var body struct {
			WorkerID string `json:"worker_id"`
		}
		if !readJSON(rw, req, &body) {
			return
		}
		grant, err := c.lease(req.Context(), body.WorkerID)
		switch {
		case req.Context().Err() != nil:
			// The client left while parked; nobody reads a reply.
		case err != nil:
			httpError(rw, http.StatusBadRequest, err)
		case grant == nil:
			rw.WriteHeader(http.StatusNoContent)
		default:
			// A grant the worker never receives would otherwise sit out its
			// TTL and cost the shard an attempt.
			if writeJSON(rw, http.StatusOK, grant) != nil || req.Context().Err() != nil {
				c.release(body.WorkerID, grant.LeaseID)
			}
		}
	})
	mux.HandleFunc("DELETE /api/v1/workers/{id}", func(rw http.ResponseWriter, req *http.Request) {
		leaseReply(rw, c.Deregister(req.PathValue("id")))
	})
	mux.HandleFunc("POST /api/v1/leases/{lease}/heartbeat", func(rw http.ResponseWriter, req *http.Request) {
		var body struct {
			WorkerID string `json:"worker_id"`
		}
		if !readJSON(rw, req, &body) {
			return
		}
		leaseReply(rw, c.Heartbeat(body.WorkerID, req.PathValue("lease")))
	})
	mux.HandleFunc("POST /api/v1/leases/{lease}/complete", func(rw http.ResponseWriter, req *http.Request) {
		var body struct {
			WorkerID string      `json:"worker_id"`
			Result   ShardResult `json:"result"`
		}
		if !readJSON(rw, req, &body) {
			return
		}
		leaseReply(rw, c.Complete(body.WorkerID, req.PathValue("lease"), body.Result))
	})
	mux.HandleFunc("POST /api/v1/leases/{lease}/fail", func(rw http.ResponseWriter, req *http.Request) {
		var body struct {
			WorkerID string `json:"worker_id"`
			Reason   string `json:"reason"`
		}
		if !readJSON(rw, req, &body) {
			return
		}
		leaseReply(rw, c.Fail(body.WorkerID, req.PathValue("lease"), body.Reason))
	})
	return mux
}

// handleEvents serves one job's progress stream, long-poll or SSE.
func handleEvents(c *Coordinator, rw http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	cursor := 0
	if s := req.URL.Query().Get("cursor"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			httpError(rw, http.StatusBadRequest, fmt.Errorf("serve: bad cursor %q", s))
			return
		}
		cursor = n
	}
	if strings.Contains(req.Header.Get("Accept"), "text/event-stream") {
		serveSSE(c, rw, req, id, cursor)
		return
	}
	deadline := time.NewTimer(longPollTimeout)
	defer deadline.Stop()
	for {
		evs, wake, err := c.EventsAfter(id, cursor)
		if err != nil {
			httpError(rw, http.StatusNotFound, err)
			return
		}
		if len(evs) > 0 {
			writeJSON(rw, http.StatusOK, evs)
			return
		}
		select {
		case <-wake:
		case <-deadline.C:
			writeJSON(rw, http.StatusOK, []Event{})
			return
		case <-req.Context().Done():
			return
		}
	}
}

// serveSSE streams a job's events as server-sent events until the client
// disconnects. Each event is one `data:` line; the id field carries the seq
// so clients can resume with ?cursor=.
func serveSSE(c *Coordinator, rw http.ResponseWriter, req *http.Request, id string, cursor int) {
	fl, ok := rw.(http.Flusher)
	if !ok {
		httpError(rw, http.StatusNotAcceptable, errors.New("serve: streaming unsupported by this connection"))
		return
	}
	rw.Header().Set("Content-Type", "text/event-stream")
	rw.Header().Set("Cache-Control", "no-cache")
	rw.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		evs, wake, err := c.EventsAfter(id, cursor)
		if err != nil {
			return
		}
		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(rw, "id: %d\ndata: %s\n\n", ev.Seq, b); err != nil {
				return
			}
			cursor = ev.Seq
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		select {
		case <-wake:
		case <-req.Context().Done():
			return
		}
	}
}

// leaseReply maps lease-scoped errors onto status codes: lost leases are
// 409 so workers can tell "abandon this shard" from "request was bad".
func leaseReply(rw http.ResponseWriter, err error) {
	switch {
	case err == nil:
		rw.WriteHeader(http.StatusNoContent)
	case errors.Is(err, ErrLeaseLost):
		httpError(rw, http.StatusConflict, err)
	default:
		httpError(rw, http.StatusBadRequest, err)
	}
}

func readJSON(rw http.ResponseWriter, req *http.Request, v any) bool {
	dec := json.NewDecoder(req.Body)
	if err := dec.Decode(v); err != nil {
		httpError(rw, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return false
	}
	return true
}

// writeJSON's error is a reply that could not be written: the client is
// gone, and only a handler with something to undo cares.
func writeJSON(rw http.ResponseWriter, code int, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	body = append(body, '\n')
	rw.Header().Set("Content-Type", "application/json")
	rw.Header().Set("Content-Length", strconv.Itoa(len(body)))
	rw.WriteHeader(code)
	_, err = rw.Write(body)
	return err
}

func httpError(rw http.ResponseWriter, code int, err error) {
	_ = writeJSON(rw, code, map[string]string{"error": err.Error()})
}
