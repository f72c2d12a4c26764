package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// consumerGroup is the consumer group every serve workload reads through.
const consumerGroup = "bench"

// collectionName is the one collection a serve workload creates.
const collectionName = "b"

// newConn returns an HTTP client that owns exactly one connection: a
// workload's load generator is one sender and one reader, at most as many
// connections as the box has CPUs, so the generator's parallelism is a
// stated property of the workload and not an accident of the pool.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// api is one connection's view of a server.
type api struct {
	base string
	hc   *http.Client
}

func (a *api) path(p string) string { return a.base + "/v1/collections/" + collectionName + p }

// do issues one request and returns the status and the body. A transport
// error is returned as an error; any status is not.
func (a *api) do(ctx context.Context, method, url, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// send issues one request whose body the caller does not need — ingest
// acks, resolve results inside a timed loop — reading it to the end so the
// round trip covers the whole response, and reports whether it was a 200.
func (a *api) send(ctx context.Context, url string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// getJSON GETs url and decodes a 200 answer into v.
func (a *api) getJSON(ctx context.Context, url string, v any) error {
	status, body, err := a.do(ctx, http.MethodGet, url, "", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, status, body)
	}
	return json.Unmarshal(body, v)
}

// postJSON POSTs v as JSON and decodes a 2xx answer into out (when non-nil).
func (a *api) postJSON(ctx context.Context, url string, v, out any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	status, body, err := a.do(ctx, http.MethodPost, url, "application/json", raw)
	if err != nil {
		return err
	}
	if status < 200 || status > 299 {
		return fmt.Errorf("POST %s: status %d: %s", url, status, body)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// collectionStats is the part of GET /v1/collections/{name} the benchmark
// compares across a restart.
type collectionStats struct {
	Records int `json:"records"`
	Pairs   int `json:"pairs"`
}

// consumerStats is the part of GET .../consumers/{group} it compares.
type consumerStats struct {
	Cursor int64 `json:"cursor"`
}

// resolveAnswer is the part of a /resolve response the quality check reads.
type resolveAnswer struct {
	Records int `json:"records"`
	Matches []struct {
		Left  int32 `json:"left"`
		Right int32 `json:"right"`
	} `json:"matches"`
}

// encodeBodies pre-encodes rows as JSON array bodies of batch rows each, so
// no encoding happens inside a timed loop.
func encodeBodies(rows []Row, batch int) ([][]byte, error) {
	var out [][]byte
	for lo := 0; lo < len(rows); lo += batch {
		hi := lo + batch
		if hi > len(rows) {
			hi = len(rows)
		}
		raw, err := json.Marshal(rows[lo:hi])
		if err != nil {
			return nil, err
		}
		out = append(out, raw)
	}
	return out, nil
}

// pairReader is the SSE consumer of one workload: it reads the group's
// stream on its own connection, folds every pair into a digest, checks that
// frames tile the emission sequence without gap or overlap, and — when the
// sender publishes due times — records how long each pair took from the
// due time of the ingest batch holding its higher-ID record to the moment
// the frame carrying it had been read.
type pairReader struct {
	// batch maps a pair to its ingest batch: record IDs are dense in ingest
	// order, so the higher-ID record of a pair belongs to batch id/batch.
	// due holds each batch's due time as nanoseconds after t0, written by
	// the sender before it sends (0 = not sent yet). Nil due disables
	// latency sampling.
	batch int
	t0    time.Time
	due   []atomic.Int64

	cancel context.CancelFunc
	done   chan struct{}
	ready  chan struct{} // closed at the subscribe handshake

	cursor atomic.Int64 // emission-sequence position read so far

	// Written by the reading goroutine only; read them after stop (or
	// after done is closed).
	err       error
	sum       pairSum
	frames    int
	bytes     int64
	gaps      int // frames that did not start where the previous one ended
	malformed int // frames whose count, pairs and cursor window disagree
	latency   []wsample
}

// startPairReader connects to the group's stream and starts reading.
func startPairReader(ctx context.Context, hc *http.Client, base string, r *pairReader) (*pairReader, error) {
	ctx, cancel := context.WithCancel(ctx)
	r.cancel = cancel
	r.done = make(chan struct{})
	r.ready = make(chan struct{})
	url := base + "/v1/collections/" + collectionName + "/consumers/" + consumerGroup + "/stream"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body) // best effort: the status is the error
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	go r.read(ctx, resp.Body)
	return r, nil
}

func (r *pairReader) read(ctx context.Context, body io.ReadCloser) {
	defer close(r.done)
	defer body.Close()

	var (
		readAt    time.Time
		expect    int64 = -1
		curBatch        = -1
		curCount  int
		perBatch  []wsample // (batch index, pair count) of the open frame
		handshake bool
	)
	flush := func() {
		if curCount > 0 {
			perBatch = append(perBatch, wsample{v: float64(curBatch), w: curCount})
		}
		curBatch, curCount = -1, 0
	}
	sc := newSSEScanner(
		func(left, right int32) {
			r.sum.add(left, right)
			if r.due == nil {
				return
			}
			if b := int(right) / r.batch; b != curBatch {
				flush()
				curBatch = b
			}
			curCount++
		},
		func(f sseFrame) {
			switch f.Event {
			case "cursor":
				expect = f.Cursor
				if !handshake {
					handshake = true
					close(r.ready)
				}
			case "pairs":
				flush()
				r.frames++
				r.bytes += f.Bytes
				if f.Cursor != expect {
					r.gaps++
				}
				if f.Count != f.Pairs || f.Next-f.Cursor != f.Pairs {
					r.malformed++
				}
				expect = f.Next
				at := readAt.Sub(r.t0)
				for _, pb := range perBatch {
					b := int(pb.v)
					if b < 0 || b >= len(r.due) {
						continue
					}
					if due := r.due[b].Load(); due > 0 {
						r.latency = append(r.latency, wsample{v: ms(at - time.Duration(due)), w: pb.w})
					}
				}
				perBatch = perBatch[:0]
				r.cursor.Store(expect)
			}
		})
	buf := make([]byte, 256<<10)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			readAt = time.Now()
			sc.Write(buf[:n])
		}
		if err != nil {
			if ctx.Err() == nil {
				r.err = err
			}
			return
		}
	}
}

// waitReady blocks until the subscribe handshake arrived.
func (r *pairReader) waitReady(timeout time.Duration) error {
	select {
	case <-r.ready:
		return nil
	case <-r.done:
		return fmt.Errorf("pair stream ended before the handshake: %v", r.err)
	case <-time.After(timeout):
		return fmt.Errorf("no stream handshake within %v", timeout)
	}
}

// waitCursor blocks until the reader has read the emission sequence up to
// target.
func (r *pairReader) waitCursor(target int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for r.cursor.Load() < target {
		select {
		case <-r.done:
			return fmt.Errorf("pair stream ended at cursor %d of %d: %v", r.cursor.Load(), target, r.err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pair stream stuck at cursor %d of %d after %v", r.cursor.Load(), target, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// stop disconnects and waits for the reading goroutine to end.
func (r *pairReader) stop() {
	r.cancel()
	<-r.done
}
