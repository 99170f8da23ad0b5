package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/wire"
)

// timing records one scheduled request: when it was due, when the
// generator actually sent it, when the response completed, and when the
// connection became free for it (the previous response's end).
type timing struct {
	due, ready, start, end time.Time
	err                    error
}

// latency is measured from the due time, so time spent queued behind a
// stalled request counts.
func (t timing) latency() time.Duration { return t.end.Sub(t.due) }

// late is how far the generator itself ran behind: send time minus the
// later of the due time and the moment the connection became free. It
// excludes waiting on the server, which latency already charges.
func (t timing) late() time.Duration { return t.start.Sub(t.ready) }

// rtt is the request's own round trip.
func (t timing) rtt() time.Duration { return t.end.Sub(t.start) }

// openLoop sends n scheduled requests in order on the calling goroutine.
// Request i is due at start+due(i); the generator sleeps until then, or —
// when the previous request is still running — sends it the moment that
// one ends. Either way its latency is measured from the due time.
func openLoop(ctx context.Context, start time.Time, n int, due func(int) time.Duration, do func(int) error) []timing {
	out := make([]timing, 0, n)
	var prevEnd time.Time
	for i := 0; i < n && ctx.Err() == nil; i++ {
		d := start.Add(due(i))
		sleepUntil(d)
		ready := d
		if prevEnd.After(ready) {
			ready = prevEnd
		}
		s := time.Now()
		err := do(i)
		e := time.Now()
		out = append(out, timing{due: d, ready: ready, start: s, end: e, err: err})
		prevEnd = e
	}
	return out
}

// sleepUntil blocks until t in a nanosleep system call. time.Sleep wakes
// through the runtime's poller, whose millisecond granularity would make
// the generator up to a millisecond late on every sub-millisecond gap.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the clock
	}
}

// ack is the ingest acknowledgement's JSON form.
type ack struct {
	Accepted    int `json:"accepted"`
	Dropped     int `json:"dropped"`
	Late        int `json:"late"`
	LateDropped int `json:"lateDropped"`
	Rejected    int `json:"rejected"`
	Duplicates  int `json:"duplicates"`
	Pending     int `json:"pending"`
}

// lost counts the tuples the ack did not accept.
func (a ack) lost() int { return a.Dropped + a.LateDropped + a.Rejected + a.Duplicates }

// pusher posts binary frames to one session's ingest route.
type pusher struct {
	c   *http.Client
	url string
}

func newPusher(c *http.Client, base, session string) *pusher {
	return &pusher{c: c, url: base + "/v1/sessions/" + session + "/ingest"}
}

// push sends one frame and decodes its ack. Any non-2xx status is an
// error.
func (p *pusher) push(ctx context.Context, frame []byte) (ack, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url, bytes.NewReader(frame))
	if err != nil {
		return ack{}, err
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	resp, err := p.c.Do(req)
	if err != nil {
		return ack{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return ack{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return ack{}, fmt.Errorf("push: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var a ack
	if err := json.Unmarshal(body, &a); err != nil {
		return ack{}, fmt.Errorf("push: decode ack: %w", err)
	}
	return a, nil
}

// subscription is a live result stream of one query.
type subscription struct {
	// arrivals maps epoch index → when its first tuple arrived.
	arrivals map[int]time.Time
	received atomic.Int64 // tuples delivered, readable while running
	drops    int          // {"dropped":n} markers
	foreign  int          // tuples whose ID/time match no pushed tuple
	err      error
}

func newSubscription() *subscription { return &subscription{arrivals: make(map[int]time.Time)} }

// run reads GET …/results/{q}/stream until ctx ends, recording when each
// epoch's first tuple arrives. match reports whether a streamed (id, t)
// pair is one the generator pushed. started is closed once the stream is
// open (or failed to open).
func (s *subscription) run(ctx context.Context, c *http.Client, base, session, query string, match func(id uint64, t float64) bool, started chan<- struct{}) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sessions/"+session+"/results/"+query+"/stream", nil)
	if err != nil {
		s.err = err
		close(started)
		return
	}
	resp, err := c.Do(req)
	close(started)
	if err != nil {
		s.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("stream: %s", resp.Status)
		return
	}
	r := bufio.NewReaderSize(resp.Body, 64<<10)
	last := math.MinInt
	for {
		line, err := r.ReadSlice('\n')
		now := time.Now()
		if err != nil {
			if ctx.Err() == nil && err != io.EOF {
				s.err = err
			}
			return
		}
		if bytes.HasPrefix(line, []byte(`{"dropped"`)) {
			s.drops++
			continue
		}
		id, t, ok := parseStreamTuple(line)
		if !ok || !match(id, t) {
			s.foreign++
			continue
		}
		s.received.Add(1)
		if k := int(math.Floor(t)); k > last {
			s.arrivals[k] = now
			last = k
		}
	}
}

// parseStreamTuple extracts "id" and "t" from one JSONLinesSink record
// without a full decode.
func parseStreamTuple(line []byte) (uint64, float64, bool) {
	id, ok1 := jsonField(line, `"id":`)
	t, ok2 := jsonField(line, `"t":`)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	idv, err1 := strconv.ParseUint(string(id), 10, 64)
	tv, err2 := strconv.ParseFloat(string(t), 64)
	return idv, tv, err1 == nil && err2 == nil
}

func jsonField(line []byte, key string) ([]byte, bool) {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return nil, false
	}
	v := line[i+len(key):]
	j := bytes.IndexAny(v, ",}")
	if j < 0 {
		return nil, false
	}
	return v[:j], true
}

// closingPush is the index of the push whose watermark closes epoch k when
// every epoch spans perEpoch pushes and the tolerance is zero: the first
// push of epoch k+1 carries the first event time ≥ k+1.
func closingPush(k, perEpoch int) int { return (k + 1) * perEpoch }

// freshness attributes each epoch's first delivered tuple to the push that
// closed the epoch: sample = arrival − that push's due time, in ms, in
// epoch order. Epochs whose closing push is not in pushes (outside the
// measured window) or failed give no sample.
func freshness(arrivals map[int]time.Time, pushes map[int]timing, perEpoch int) []float64 {
	epochs := make([]int, 0, len(arrivals))
	for k := range arrivals {
		epochs = append(epochs, k)
	}
	sort.Ints(epochs)
	var out []float64
	for _, k := range epochs {
		t, ok := pushes[closingPush(k, perEpoch)]
		if !ok || t.err != nil {
			continue
		}
		out = append(out, ms(arrivals[k].Sub(t.due)))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
