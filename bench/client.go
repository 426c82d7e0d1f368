package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// client talks to one daemon over at most conns keep-alive connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is one answer, read to its last byte. body aliases the caller's
// buffer.
type response struct {
	status int
	cache  string // X-Cache
	etag   string
	body   []byte
}

// call sends one request and reads the whole response body into buf.
func (c *client) call(ctx context.Context, method, path string, body []byte, ifNoneMatch string, buf *bytes.Buffer) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return response{}, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return response{}, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return response{status: resp.StatusCode, cache: internCache(resp.Header.Get("X-Cache")), etag: resp.Header.Get("ETag"), body: buf.Bytes()}, nil
}

// internCache returns the X-Cache verdicts the daemon sends as constants,
// so outcomes do not each hold a copy of the header.
func internCache(v string) string {
	switch v {
	case "HIT":
		return "HIT"
	case "MISS":
		return "MISS"
	}
	return v
}

// wireReq is a planned request rendered for the wire before the phase
// starts, so the timed loop encodes nothing.
type wireReq struct {
	method, path string
	body         []byte
	ifNoneMatch  string
}

// clockEpoch is the origin of the benchmark's timestamps: durations since
// it, read from the monotonic clock, keep outcomes and spans free of the
// pointer a time.Time carries.
var clockEpoch = time.Now()

func now() time.Duration { return time.Since(clockEpoch) }

// outcome is what the phase observed for one planned request. Latency runs
// from sched — the send time in a closed loop, the scheduled time in an
// open loop — to the last byte of the body. Times count from clockEpoch.
type outcome struct {
	sched, sent, done time.Duration
	records           int32
	cache             string  // X-Cache verdict
	answer            *answer // cold and budgeted queries only
	err               error   // transport failure, refusal or failed check
}

// answer is what the checks keep of a cold or budgeted query's answer.
type answer struct {
	partial bool
	gap     *float64
	scores  []float64 // budgeted top-k answers
	body    []byte    // kept for a post-phase reference check
}

func (o *outcome) latencyMS() float64 { return float64(o.done-o.sched) / 1e6 }

// errNotSent marks a planned request the phase deadline cut off.
var errNotSent = errors.New("not sent before the phase deadline")

// drive runs the timed phase, filling outs[i] for reqs[i]. With at set,
// request i is due at start+at[i]; otherwise each of the clients
// goroutines sends its next request as soon as its previous answer is in.
// Either way no more than clients requests are outstanding. inspect runs on
// the client goroutine after the answer's last byte, outside the timed
// interval. Requests not sent when ctx ends are marked errNotSent.
func drive(ctx context.Context, c *client, reqs []wireReq, at []time.Duration, clients int, outs []outcome,
	inspect func(i int, o *outcome, resp response)) (start time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start = now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				o := &outs[i]
				if ctx.Err() != nil {
					o.err = errNotSent
					continue
				}
				o.sched = now()
				o.sent = o.sched
				if at != nil {
					o.sched = start + at[i]
					if wait := o.sched - now(); wait > 0 {
						select {
						case <-time.After(wait):
						case <-ctx.Done():
							o.err = errNotSent
							continue
						}
					}
					o.sent = now()
				}
				r := &reqs[i]
				resp, err := c.call(ctx, r.method, r.path, r.body, r.ifNoneMatch, &buf)
				o.done = now()
				if err != nil {
					o.err = err
					continue
				}
				o.cache = resp.cache
				inspect(i, o, resp)
			}
		}()
	}
	wg.Wait()
	return start
}
