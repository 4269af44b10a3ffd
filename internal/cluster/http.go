package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/exec"
)

// The HTTP transport: one Node behind NewNodeHandler (POST /exec,
// /append, /compact; GET /stats; gob bodies), N base URLs in front of
// HTTPTransport. Node-side failures travel as status codes plus an
// X-Cluster-Error header naming the typed error, so the client can
// rebuild the same error values the Local transport returns; transport-
// level failures (connection refused, body cut short) wrap
// ErrUnavailable and are the coordinator's only retryable errors.

const (
	errHeader     = "X-Cluster-Error"
	errNodeFailed = "node-failed"
	errOverloaded = "overloaded"
	errTooLarge   = "too-large"
	contentType   = "application/x-gob"
)

// maxRequestBytes bounds the /exec and /append body a node will buffer:
// roughly a million appended rows, far beyond any sub-query, and small
// enough that a misbehaving client cannot make a node allocate without
// limit. Larger appends must be split by the caller.
const maxRequestBytes = 64 << 20

// ErrRequestTooLarge marks a request whose body exceeds the node's
// limit; the node answers 413 without buffering the excess.
var ErrRequestTooLarge = errors.New("cluster: request body too large")

// NewNodeHandler serves one node over HTTP. Mount it at the server
// root: the handler owns the /exec, /append, /compact and /stats paths.
func NewNodeHandler(n *Node) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /exec", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if !decodeRequest(w, r, &req) {
			return
		}
		resp, err := n.Exec(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeGob(w, &resp)
	})
	mux.HandleFunc("POST /append", func(w http.ResponseWriter, r *http.Request) {
		var rows []Row
		if !decodeRequest(w, r, &rows) {
			return
		}
		if err := n.Append(r.Context(), rows); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /compact", func(w http.ResponseWriter, r *http.Request) {
		if err := n.Compact(r.Context()); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		st := n.Stats()
		writeGob(w, &st)
	})
	return mux
}

// decodeRequest decodes a request body of at most maxRequestBytes into
// v, answering 413 (declared or actual oversize) or 400 (malformed) and
// reporting false when it could not.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	oversize := r.ContentLength > maxRequestBytes // declared: refuse unread
	if !oversize {
		err := decodeBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), v)
		if err == nil {
			return true
		}
		var tooLarge *http.MaxBytesError
		if oversize = errors.As(err, &tooLarge); !oversize {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return false
		}
	}
	w.Header().Set(errHeader, errTooLarge)
	http.Error(w, ErrRequestTooLarge.Error(), http.StatusRequestEntityTooLarge)
	return false
}

func decodeBody(body io.Reader, v any) error {
	data, err := io.ReadAll(body)
	if err != nil {
		return err
	}
	return decodeGob(data, v)
}

// writeError maps a node-side error onto a status code and the typed
// error header. 503 = killed node, 429 = admission shed, 500 = any
// other execution error; none of them are retryable.
func writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNodeFailed):
		w.Header().Set(errHeader, errNodeFailed)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, exec.ErrOverloaded):
		w.Header().Set(errHeader, errOverloaded)
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeGob(w http.ResponseWriter, v any) {
	data, err := encodeGob(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(data)
}

// HTTPTransport talks to N node servers (NewNodeHandler each) at the
// given base URLs, node k at addrs[k]. Connection-level failures wrap
// ErrUnavailable so the coordinator's retry loop re-sends them; node-
// side errors are rebuilt from the typed error header and returned
// as-is.
type HTTPTransport struct {
	addrs  []string
	client *http.Client
}

// NewHTTPTransport returns a transport over the node base URLs
// (e.g. "http://10.0.0.7:7070"). A nil client uses a default with a
// 30s overall timeout.
func NewHTTPTransport(addrs []string, client *http.Client) (*HTTPTransport, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no node addresses")
	}
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &HTTPTransport{addrs: addrs, client: client}, nil
}

// Nodes returns the node count.
func (t *HTTPTransport) Nodes() int { return len(t.addrs) }

// Exec runs one sub-query on node k's server.
func (t *HTTPTransport) Exec(ctx context.Context, node int, req Request) (Response, error) {
	var resp Response
	err := t.post(ctx, node, "/exec", &req, &resp)
	return resp, err
}

// Append ingests rows on node k's server.
func (t *HTTPTransport) Append(ctx context.Context, node int, rows []Row) error {
	return t.post(ctx, node, "/append", &rows, nil)
}

// Compact compacts node k's shard.
func (t *HTTPTransport) Compact(ctx context.Context, node int) error {
	return t.post(ctx, node, "/compact", nil, nil)
}

// Stats snapshots node k's counters.
func (t *HTTPTransport) Stats(ctx context.Context, node int) (NodeStats, error) {
	var st NodeStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.addrs[node]+"/stats", nil)
	if err != nil {
		return st, err
	}
	hr, err := t.client.Do(req)
	if err != nil {
		return st, unavailable(ctx, err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return st, t.statusErr(node, hr)
	}
	if err := decodeBody(hr.Body, &st); err != nil {
		return st, unavailable(ctx, err)
	}
	return st, nil
}

// Close is a no-op: the http.Client's pooled connections are shared.
func (t *HTTPTransport) Close() error { return nil }

// post sends a gob body and decodes the gob reply into out (when
// non-nil). Errors before a status line arrives — and truncated reply
// bodies — wrap ErrUnavailable; error statuses are rebuilt into the
// node's typed error.
func (t *HTTPTransport) post(ctx context.Context, node int, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := encodeGob(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.addrs[node]+path, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	hr, err := t.client.Do(req)
	if err != nil {
		return unavailable(ctx, err)
	}
	defer hr.Body.Close()
	if hr.StatusCode < 200 || hr.StatusCode > 299 {
		return t.statusErr(node, hr)
	}
	if out == nil {
		io.Copy(io.Discard, hr.Body)
		return nil
	}
	if err := decodeBody(hr.Body, out); err != nil {
		return unavailable(ctx, err)
	}
	return nil
}

// unavailable classifies a failure to get a whole reply out of a node: a
// caller that cancelled or ran out of time gave up and is told so
// (ctx.Err()); otherwise the node could not be reached — ErrUnavailable,
// which the coordinator retries.
func unavailable(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("%w: %v", ErrUnavailable, err)
}

// statusErr rebuilds the node-side error from the status and typed
// error header. These reached the node, so they are not retryable.
func (t *HTTPTransport) statusErr(node int, hr *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(hr.Body, 512))
	switch hr.Header.Get(errHeader) {
	case errNodeFailed:
		return &NodeError{Node: node, Err: ErrNodeFailed}
	case errOverloaded:
		return &NodeError{Node: node, Err: exec.ErrOverloaded}
	case errTooLarge:
		return &NodeError{Node: node, Err: ErrRequestTooLarge}
	}
	return &NodeError{Node: node, Err: fmt.Errorf("http %s: %s", strconv.Itoa(hr.StatusCode), string(msg))}
}
