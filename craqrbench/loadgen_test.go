package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestDueTimeLatencyShowsQueuedWait drives an open loop against a server
// that stalls once: the requests that came due during the stall must carry
// the wait in their latency, while the generator itself is not late.
func TestDueTimeLatencyShowsQueuedWait(t *testing.T) {
	const (
		n        = 40
		interval = 2 * time.Millisecond
		stallAt  = 5
		stall    = 60 * time.Millisecond
	)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if calls.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient(1)
	defer c.CloseIdleConnections()
	do := func(int) error {
		resp, err := c.Post(srv.URL, "text/plain", nil)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	}
	start := time.Now().Add(5 * time.Millisecond)
	ts := openLoop(context.Background(), start, n, func(i int) time.Duration { return time.Duration(i) * interval }, do)
	if len(ts) != n {
		t.Fatalf("%d timings, want %d", len(ts), n)
	}
	for i, tm := range ts {
		if tm.err != nil {
			t.Fatalf("request %d: %v", i, tm.err)
		}
	}
	if ts[stallAt].rtt() < stall {
		t.Fatalf("stalled request rtt %v, want ≥ %v", ts[stallAt].rtt(), stall)
	}
	// Request stallAt+1 was due 2ms after the stalled one but could only be
	// sent when it finished: its latency includes ~58ms of queued wait even
	// though its own round trip is short.
	next := ts[stallAt+1]
	if want := stall - 2*interval; next.latency() < want {
		t.Errorf("request after the stall: latency %v, want ≥ %v (queued wait)", next.latency(), want)
	}
	if next.rtt() > stall/2 {
		t.Errorf("request after the stall: rtt %v; the wait should be queueing, not service", next.rtt())
	}
	queued := 0
	for i := stallAt + 1; i < n; i++ {
		if ts[i].latency() > 10*time.Millisecond {
			queued++
		}
		if ts[i].late() > 5*time.Millisecond {
			t.Errorf("request %d: generator late by %v; waiting on the server must not count as lateness", i, ts[i].late())
		}
	}
	if queued < 10 {
		t.Errorf("only %d requests after the stall show the queued wait, want ≥ 10", queued)
	}
}

func TestFreshnessAttributesClosingPush(t *testing.T) {
	if got := closingPush(0, 2); got != 2 {
		t.Errorf("closingPush(0, 2) = %d, want 2", got)
	}
	if got := closingPush(4, 1); got != 5 {
		t.Errorf("closingPush(4, 1) = %d, want 5", got)
	}
	base := time.Unix(1000, 0)
	at := func(msec int) time.Time { return base.Add(time.Duration(msec) * time.Millisecond) }
	pushes := map[int]timing{
		2: {due: at(10)},                           // closes epoch 0
		4: {due: at(20)},                           // closes epoch 1
		6: {due: at(30), err: io.ErrUnexpectedEOF}, // closes epoch 2, failed
		// push 8 (closing epoch 3) is outside the measured window.
	}
	arrivals := map[int]time.Time{0: at(13), 1: at(21), 2: at(35), 3: at(50)}
	got := freshness(arrivals, pushes, 2)
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Errorf("freshness samples %v, want [3 1] ms (epochs 0 and 1, in epoch order)", got)
	}
}

func TestParseStreamTuple(t *testing.T) {
	id, tm, ok := parseStreamTuple([]byte(`{"id":72057594037927937,"attr":"rain","t":0.25,"x":1,"y":2,"value":3,"sensor":4}` + "\n"))
	if !ok || id != 72057594037927937 || tm != 0.25 {
		t.Errorf("parse = %d, %v, %v", id, tm, ok)
	}
	if _, _, ok := parseStreamTuple([]byte(`{"dropped":3}`)); ok {
		t.Error("drop marker parsed as a tuple")
	}
}

// TestFailedPushFailsRun drives pushes at a server that answers one of
// them with a fast 429: the run must count it as failed and be marked
// incorrect, so a cheap refusal never reads as a fast push.
func TestFailedPushFailsRun(t *testing.T) {
	const n, refuse = 10, 3
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if calls.Add(1) == refuse+1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "rate limited", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"accepted":0}`))
	}))
	defer srv.Close()
	c := newClient(1)
	defer c.CloseIdleConnections()
	pu := newPusher(c, srv.URL, "bench")
	probe := frame(nil, nil, 0)
	ops := openLoop(context.Background(), time.Now(), n, func(i int) time.Duration { return time.Duration(i) * time.Millisecond },
		func(int) error { _, err := pu.push(context.Background(), probe); return err })
	h := &httpRun{}
	h.count(ops)
	if h.attempted != n || h.failed != 1 || ops[refuse].err == nil {
		t.Fatalf("attempted %d failed %d (op %d err %v), want %d and 1", h.attempted, h.failed, refuse, ops[refuse].err, n)
	}
	ferr := h.failures()
	if ferr == nil {
		t.Fatal("a 429 did not fail the run")
	}
	var out, errOut bytes.Buffer
	res := &result{Attempted: h.attempted, Failed: h.failed, Metrics: map[string]map[string]any{}}
	res.problem("%v", ferr)
	if code := finish(&out, &errOut, res, nil, false); code == 0 || res.Correct {
		t.Fatalf("exit %d, correct %v: want a nonzero exit and correct=false", code, res.Correct)
	}

}
