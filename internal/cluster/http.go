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
// /append, /compact; GET /stats), N base URLs in front of HTTPTransport.
// This file only moves bytes; wire.go owns every body's format. Node-side
// failures travel as status codes plus an X-Cluster-Error header naming
// the typed error, so the client can rebuild the same error values the
// Local transport returns; transport-level failures (connection refused,
// body cut short or undecodable) wrap ErrUnavailable and are the
// coordinator's only retryable errors.

const (
	errHeader     = "X-Cluster-Error"
	errNodeFailed = "node-failed"
	errOverloaded = "overloaded"
	errTooLarge   = "too-large"
	contentType   = "application/x-mdhf-frame"
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
		req, ok := readRequest(w, r, decodeFrame[Request])
		if !ok {
			return
		}
		resp, err := n.Exec(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		body, _ := EncodeResponse(resp) // never fails
		w.Header().Set("Content-Type", contentType)
		w.Write(body) // under 2 kB, net/http declares the length itself
	})
	mux.HandleFunc("POST /append", func(w http.ResponseWriter, r *http.Request) {
		rows, ok := readRequest(w, r, decodeFrame[[]Row])
		if !ok {
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
		w.Header().Set("Content-Type", "application/json")
		w.Write(encodeStats(n.Stats()))
	})
	return mux
}

// readRequest reads and decodes a request body, answering 413 (declared
// or actual oversize) or 400 (malformed) and reporting false when it
// could not.
func readRequest[T any](w http.ResponseWriter, r *http.Request, decode func([]byte) (T, error)) (T, bool) {
	data, err := readBody(w, r.Body, r.ContentLength)
	var v T
	if err == nil {
		v, err = decode(data)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return v, true
	case errors.As(err, &tooLarge):
		w.Header().Set(errHeader, errTooLarge)
		http.Error(w, ErrRequestTooLarge.Error(), http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return v, false
}

// readBody reads a whole body of at most maxRequestBytes. A declared
// length is read into one exact-size slice, and refused unread when it
// is over the cap, so a lying peer cannot make the reader allocate
// without limit; an undeclared (chunked) one goes through MaxBytesReader,
// which stops consuming at the cap.
func readBody(w http.ResponseWriter, body io.ReadCloser, length int64) ([]byte, error) {
	switch {
	case length > maxRequestBytes:
		return nil, &http.MaxBytesError{Limit: maxRequestBytes}
	case length < 0:
		return io.ReadAll(http.MaxBytesReader(w, body, maxRequestBytes))
	}
	data := make([]byte, length)
	_, err := io.ReadFull(body, data)
	return data, err
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

// HTTPTransport talks to N node servers (NewNodeHandler each) at the
// given base URLs, node k at addrs[k]. Connection-level failures wrap
// ErrUnavailable so the coordinator's retry loop re-sends them; node-
// side errors are rebuilt from the typed error header and returned
// as-is.
type HTTPTransport struct {
	addrs  []string
	client *http.Client
	owned  bool // the client is ours: Close drops its idle connections
}

// NewHTTPTransport returns a transport over the node base URLs
// (e.g. "http://10.0.0.7:7070"). A nil client uses one of the
// transport's own — a clone of http.DefaultTransport with a 30s overall
// timeout — whose keep-alive connections Close releases; a caller's
// client stays the caller's.
func NewHTTPTransport(addrs []string, client *http.Client) (*HTTPTransport, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no node addresses")
	}
	t := &HTTPTransport{addrs: addrs, client: client}
	if client == nil {
		rt := &http.Transport{}
		if def, ok := http.DefaultTransport.(*http.Transport); ok {
			rt = def.Clone()
		}
		t.client, t.owned = &http.Client{Timeout: 30 * time.Second, Transport: rt}, true
	}
	return t, nil
}

// Nodes returns the node count.
func (t *HTTPTransport) Nodes() int { return len(t.addrs) }

// Exec runs one sub-query on node k's server.
func (t *HTTPTransport) Exec(ctx context.Context, node int, req Request) (Response, error) {
	return call(ctx, t, node, http.MethodPost, "/exec", encodeRequest(req), DecodeResponse)
}

// Append ingests rows on node k's server.
func (t *HTTPTransport) Append(ctx context.Context, node int, rows []Row) error {
	_, err := call[any](ctx, t, node, http.MethodPost, "/append", encodeRows(rows), nil)
	return err
}

// Compact compacts node k's shard.
func (t *HTTPTransport) Compact(ctx context.Context, node int) error {
	_, err := call[any](ctx, t, node, http.MethodPost, "/compact", nil, nil)
	return err
}

// Stats snapshots node k's counters.
func (t *HTTPTransport) Stats(ctx context.Context, node int) (NodeStats, error) {
	return call(ctx, t, node, http.MethodGet, "/stats", nil, decodeStats)
}

// Close releases the idle keep-alive connections of the transport's own
// client; it leaves a caller-supplied client alone.
func (t *HTTPTransport) Close() error {
	if t.owned {
		t.client.CloseIdleConnections()
	}
	return nil
}

// call sends body to node k's path and decodes the whole reply (when
// decode is non-nil). Errors before a status line arrives — and replies
// cut short, over maxRequestBytes or undecodable — wrap ErrUnavailable;
// error statuses are rebuilt into the node's typed error.
func call[T any](ctx context.Context, t *HTTPTransport, node int, method, path string, body []byte, decode func([]byte) (T, error)) (T, error) {
	var v T
	req, err := http.NewRequestWithContext(ctx, method, t.addrs[node]+path, bytes.NewReader(body))
	if err != nil {
		return v, err
	}
	req.Header.Set("Content-Type", contentType)
	hr, err := t.client.Do(req)
	if err != nil {
		return v, unavailable(ctx, err)
	}
	defer hr.Body.Close()
	if hr.StatusCode < 200 || hr.StatusCode > 299 {
		return v, t.statusErr(node, hr)
	}
	data, err := readBody(nil, hr.Body, hr.ContentLength)
	if err == nil && decode != nil {
		v, err = decode(data)
	}
	if err != nil {
		return v, unavailable(ctx, err)
	}
	return v, nil
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
