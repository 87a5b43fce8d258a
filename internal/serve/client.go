package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client speaks the coordinator's HTTP API. It implements Backend, so a
// remote worker is just Worker{Backend: NewClient(url)} — the same code
// path as an in-process pool, with HTTP in the middle.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for a coordinator at base (e.g.
// "http://127.0.0.1:8077").
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// apiError is the server's JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// statusError turns a ≥400 reply into an error naming op, reading the body
// to its end so the keep-alive connection goes back to the pool.
func statusError(op string, resp *http.Response) error {
	var ae apiError
	decodeErr := json.NewDecoder(resp.Body).Decode(&ae)
	io.Copy(io.Discard, resp.Body)
	if decodeErr == nil && ae.Error != "" {
		return fmt.Errorf("serve: %s: %s", op, ae.Error)
	}
	return fmt.Errorf("serve: %s: HTTP %d", op, resp.StatusCode)
}

// do sends in as JSON (no body when in is nil) and decodes the JSON
// response into out when non-nil. A 204 leaves out untouched.
func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusConflict:
		io.Copy(io.Discard, resp.Body)
		return ErrLeaseLost
	case resp.StatusCode == http.StatusNoContent:
		return nil
	case resp.StatusCode >= 400:
		return statusError(method+" "+path, resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a campaign spec and returns the created job.
func (c *Client) Submit(spec CampaignSpec) (*JobStatus, error) {
	var st JobStatus
	if err := c.do("POST", "/api/v1/jobs", spec, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches one job's status with per-shard detail.
func (c *Client) Job(id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do("GET", "/api/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists all jobs.
func (c *Client) Jobs() ([]*JobStatus, error) {
	var out []*JobStatus
	if err := c.do("GET", "/api/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Events long-polls one batch of events with seq > cursor. An empty batch
// means the poll timed out server-side; call again with the same cursor.
func (c *Client) Events(ctx context.Context, id string, cursor int) ([]Event, error) {
	req, err := http.NewRequestWithContext(ctx, "GET",
		fmt.Sprintf("%s/api/v1/jobs/%s/events?cursor=%d", c.base, id, cursor), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return nil, statusError("events", resp)
	}
	var evs []Event
	if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
		return nil, err
	}
	return evs, nil
}

// Watch follows a job's event stream from cursor, invoking fn per event,
// until the job settles, ctx cancels, or the stream errors. It returns the
// job's final status.
func (c *Client) Watch(ctx context.Context, id string, cursor int, fn func(Event)) (*JobStatus, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		evs, err := c.Events(ctx, id, cursor)
		if err != nil {
			return nil, err
		}
		settled := false
		for _, ev := range evs {
			cursor = ev.Seq
			if fn != nil {
				fn(ev)
			}
			if ev.Type == "job" && Settled(ev.State) {
				settled = true
			}
		}
		if settled {
			return c.Job(id)
		}
	}
}

// Backend implementation for remote workers.

// Register implements Backend.
func (c *Client) Register(info WorkerInfo) (string, error) {
	var out struct {
		WorkerID string `json:"worker_id"`
	}
	if err := c.do("POST", "/api/v1/workers", info, &out); err != nil {
		return "", err
	}
	return out.WorkerID, nil
}

// Lease implements Backend. The request parks on the coordinator; a 204
// (nothing to run, or this worker deregistered) leaves the grant empty and
// becomes (nil, nil).
func (c *Client) Lease(workerID string) (*LeaseGrant, error) {
	var grant LeaseGrant
	if err := c.do("POST", "/api/v1/lease", map[string]string{"worker_id": workerID}, &grant); err != nil {
		return nil, err
	}
	if grant.LeaseID == "" {
		return nil, nil
	}
	return &grant, nil
}

// Deregister implements Backend.
func (c *Client) Deregister(workerID string) error {
	return c.do("DELETE", "/api/v1/workers/"+workerID, nil, nil)
}

// Heartbeat implements Backend.
func (c *Client) Heartbeat(workerID, leaseID string) error {
	return c.do("POST", "/api/v1/leases/"+leaseID+"/heartbeat",
		map[string]string{"worker_id": workerID}, nil)
}

// Complete implements Backend.
func (c *Client) Complete(workerID, leaseID string, res ShardResult) error {
	return c.do("POST", "/api/v1/leases/"+leaseID+"/complete", struct {
		WorkerID string      `json:"worker_id"`
		Result   ShardResult `json:"result"`
	}{workerID, res}, nil)
}

// Fail implements Backend.
func (c *Client) Fail(workerID, leaseID, reason string) error {
	return c.do("POST", "/api/v1/leases/"+leaseID+"/fail", struct {
		WorkerID string `json:"worker_id"`
		Reason   string `json:"reason"`
	}{workerID, reason}, nil)
}
