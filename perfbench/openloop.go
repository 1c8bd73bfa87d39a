package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// request is one generated HTTP call, ready to hand to the handler.
type request struct {
	op     opKind
	method string
	target string // path and query
	body   string // CSV rows for appends
	ref    int    // index into the labelled pool the answer is checked against
}

func estimateRequest(tenant string, op opKind, where string, ref int) request {
	return request{op: op, method: http.MethodGet, target: "/v1/" + tenant + "/estimate?where=" + url.QueryEscape(where), ref: ref}
}

// outcome is what the generator saw of one request. Times are relative to
// the phase start.
type outcome struct {
	due, served, done time.Duration
	status            int
	body              []byte
}

// latency is the client-observed latency, measured from the due time.
func (o outcome) latency() time.Duration { return o.done - o.due }

// serveTime is the time spent inside ServeHTTP.
func (o outcome) serveTime() time.Duration { return o.done - o.served }

// phase is the result of one open-loop run.
type phase struct {
	out     []outcome
	late    time.Duration // largest gap between a due time and the actual send
	backlog int           // requests still in flight when the last one was sent
	drain   time.Duration // last due time to last response
	wall    time.Duration // first due time to last response
}

// poisson returns n arrival offsets of a Poisson process at rate per second.
func poisson(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// runOpenLoop sends reqs[i] at due[i] into the handler, in process and
// without sockets, one goroutine per in-flight request. Arrivals never wait
// for responses (open loop), so a slow server builds a queue instead of
// slowing the offered load. With a tracer, each request records a request
// span with its generator-wait and ServeHTTP children.
func runOpenLoop(h http.Handler, reqs []request, due []time.Duration, tr *tracer) phase {
	ph := phase{out: make([]outcome, len(reqs))}
	var wg sync.WaitGroup
	var inflight atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	for i, rq := range reqs {
		at := start.Add(due[i])
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(at); late > ph.late {
			ph.late = late
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int, rq request, at time.Time) {
			defer wg.Done()
			served := time.Now()
			status, body := do(h, rq)
			done := time.Now()
			inflight.Add(-1)
			ph.out[i] = outcome{
				due: at.Sub(start), served: served.Sub(start), done: done.Sub(start),
				status: status, body: body,
			}
			if tr != nil {
				id := tr.add(span{kind: spanRequest, op: rq.op, col: -1, parent: -1, start: tr.at(at), end: tr.at(done)})
				tr.add(span{kind: spanGenWait, op: rq.op, col: -1, parent: id, start: tr.at(at), end: tr.at(served)})
				tr.add(span{kind: spanServe, op: rq.op, col: -1, parent: id, start: tr.at(served), end: tr.at(done)})
			}
		}(i, rq, at)
	}
	ph.backlog = int(inflight.Load())
	wg.Wait()
	var last time.Duration
	for _, o := range ph.out {
		if o.done > last {
			last = o.done
		}
	}
	if len(due) > 0 {
		ph.drain = last - due[len(due)-1]
		ph.wall = last - due[0]
	}
	return ph
}

// do serves one request through the handler in process and returns the
// status code and body. The request is built inside the timed region, as a
// server would parse it off the wire.
func do(h http.Handler, rq request) (int, []byte) {
	var r *http.Request
	if rq.body != "" {
		r = httptest.NewRequest(rq.method, rq.target, strings.NewReader(rq.body))
		r.Header.Set("Content-Type", "text/csv")
	} else {
		r = httptest.NewRequest(rq.method, rq.target, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

// decodeEstimate parses an estimate response body.
func decodeEstimate(b []byte) (server.EstimateResponse, error) {
	var r server.EstimateResponse
	err := json.Unmarshal(b, &r)
	return r, err
}

// decodeAppend parses an append response body.
func decodeAppend(b []byte) (server.AppendResponse, error) {
	var r server.AppendResponse
	err := json.Unmarshal(b, &r)
	return r, err
}
