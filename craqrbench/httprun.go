package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stream"
)

// rounds is how many times a run starts craqrd, creates the bench session
// and measures both load phases on it. setup_s is the median of the
// rounds' setup times; the other metrics pool the rounds' samples, so one
// craqrd process's luck in thread placement and GC pacing weighs a third.
const rounds = 3

// round is one craqrd process's measurement.
type round struct {
	setup    float64  // seconds from start to queries submitted
	ids      []string // resident query IDs, in submit order
	ops      []timing // one per plan op, in send order
	sub      *subscription
	cpuTicks int64 // craqrd CPU time over the fixed-rate phase
	accepted int   // tuples accepted in the fixed-rate phase
	satRates []float64
	rssMB    float64
	steal    float64 // the host gate's reading: the worse phase's steal share
}

// httpRun is everything the untraced HTTP run measured.
type httpRun struct {
	rounds    []*round // kept rounds, in order
	discarded int      // rounds the host gate discarded

	attempted, failed int
	failSamples       []string
}

func (r *httpRun) fail(format string, args ...any) {
	r.failed++
	if len(r.failSamples) < 8 {
		r.failSamples = append(r.failSamples, fmt.Sprintf(format, args...))
	}
}

// count adds a fixed-rate phase's requests to attempted and its errors to
// failed.
func (r *httpRun) count(ops []timing) {
	for j, t := range ops {
		r.attempted++
		if t.err != nil {
			r.fail("op %d: %v", j, t.err)
		}
	}
}

// failures is the run's failed requests and subscriber drop markers as an
// error. A healthy run has none, so any makes the run incorrect: a fast
// 429 or 5xx must not pass as a fast push.
func (r *httpRun) failures() error {
	if r.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d failed requests or subscriber drop markers, first %q", r.failed, r.failSamples)
}

// runEnv is where a run's processes and files live.
type runEnv struct {
	craqrd string // craqrd binary
	work   string // per-run scratch directory inside the checkout
	procs  int    // craqrd GOMAXPROCS
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// The host gate: a round in which the hypervisor stole more than
// stealBound of the machine's CPU time during either load phase measured
// the host, not craqrd. Its numbers are discarded, and after retryPause a
// new round on a fresh craqrd replaces it, while that still fits in
// roundBudget from the first round's start. A run that does not get
// rounds undisturbed rounds in that time is invalid.
const (
	stealBound  = 0.03
	retryPause  = 2 * time.Second
	roundBudget = 140 * time.Second
)

// runHTTP measures rounds undisturbed rounds, checking each craqrd's
// resident query outputs against ref.
func runHTTP(ctx context.Context, env runEnv, p *plan, sat time.Duration, ref []*stream.ResultStore) (*httpRun, error) {
	r := &httpRun{}
	deadline := time.Now().Add(roundBudget)
	var last time.Duration // the previous round's length
	for len(r.rounds) < rounds {
		if time.Now().Add(last).After(deadline) {
			return r, fmt.Errorf("invalid run: %d rounds discarded by the host gate (steal over %.2f), %d of %d kept within %v",
				r.discarded, stealBound, len(r.rounds), rounds, roundBudget)
		}
		t0 := time.Now()
		attempted, failed, samples := r.attempted, r.failed, len(r.failSamples)
		rd, err := r.measure(ctx, env, p, sat, ref)
		if err != nil {
			return r, err
		}
		last = time.Since(t0)
		if rd.steal > stealBound {
			// The round measured the host: its requests, and the failures
			// a starved craqrd may have answered them with, are not the
			// run's.
			fmt.Fprintf(os.Stderr, "craqrbench: round discarded: the host stole %.3f of the CPU time (bound %.2f); %d of its requests failed\n",
				rd.steal, stealBound, r.failed-failed)
			r.attempted, r.failed, r.failSamples = attempted, failed, r.failSamples[:samples]
			r.discarded++
			time.Sleep(retryPause)
			last += retryPause
			continue
		}
		if rd.sub.drops > 0 {
			r.failed += rd.sub.drops
			r.failSamples = append(r.failSamples, fmt.Sprintf("%d subscriber drop markers", rd.sub.drops))
		}
		if err := r.failures(); err != nil {
			return r, err
		}
		r.rounds = append(r.rounds, rd)
	}
	return r, nil
}

// measure runs one round: it starts craqrd, creates the bench session,
// runs the fixed-rate and saturation phases, and — unless the host gate
// will discard the round — checks the outputs against ref.
func (r *httpRun) measure(ctx context.Context, env runEnv, p *plan, sat time.Duration, ref []*stream.ResultStore) (*round, error) {
	rd := &round{}
	ctl := newClient(1) // the push connection; control calls share it
	defer ctl.CloseIdleConnections()
	spec := sessionSpec{Name: "bench", Seed: int64(p.seed), Source: "external", Simulated: true, LatePolicy: "drop"}
	t0 := time.Now()
	d, err := startDaemon(env.craqrd, env.procs, filepath.Join(env.work, "craqrd.log"))
	if err != nil {
		return nil, err
	}
	defer d.kill()
	if err := d.waitHealthy(ctl, 30*time.Second); err != nil {
		return nil, err
	}
	if rd.ids, err = createSession(ctx, ctl, d.base, spec, p.queries); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rd.setup = time.Since(t0).Seconds()
	r.attempted += 1 + len(p.queries)

	var steal [3]int64
	var at [3]time.Time
	sample := func(i int) (err error) {
		steal[i], err = stealTicks()
		at[i] = time.Now()
		return err
	}
	if err := sample(0); err != nil {
		return nil, err
	}
	if err := r.fixedRate(ctx, ctl, d, p, rd); err != nil {
		return nil, err
	}
	logPhase("fixed", at[0])
	if err := sample(1); err != nil {
		return nil, err
	}
	if err := r.saturate(ctx, d, p, sat, rd); err != nil {
		return nil, err
	}
	logPhase("saturate", at[1])
	if err := sample(2); err != nil {
		return nil, err
	}
	share := func(i int) float64 {
		return float64(steal[i+1]-steal[i]) * float64(clockTick) / (float64(at[i+1].Sub(at[i])) * float64(env.procs))
	}
	rd.steal = max(share(0), share(1))
	if rd.steal > stealBound {
		return rd, nil
	}

	// craqrd is idle except to serve the check: the generator may use
	// every CPU.
	runtime.GOMAXPROCS(env.procs)
	defer runtime.GOMAXPROCS(1)
	t1 := time.Now()
	if err := check(ctx, d.base, rd.ids, ref); err != nil {
		return nil, err
	}
	logPhase("check", t1)
	rd.rssMB, err = d.peakRSSMB()
	return rd, err
}

// logPhase reports how long a part of the run took, on stderr.
func logPhase(name string, since time.Time) {
	fmt.Fprintf(os.Stderr, "craqrbench: %-9s %6.2fs\n", name, time.Since(since).Seconds())
}

// fixedRate runs the plan's ops open loop on one connection while a
// second connection streams the widest query.
func (r *httpRun) fixedRate(ctx context.Context, ctl *http.Client, d *daemon, p *plan, rd *round) error {
	// Frames are encoded before the phase so generation never delays a
	// send.
	frames := make([][]byte, p.pushes+1)
	buf := make([]stream.Tuple, 0, p.w.BatchTuples)
	for i := range frames {
		tuples, wm := p.batch(i, buf)
		frames[i] = frame(nil, tuples, wm)
	}
	subClient := newClient(1)
	defer subClient.CloseIdleConnections()
	subCtx, stopSub := context.WithCancel(ctx)
	defer stopSub()
	started := make(chan struct{})
	subDone := make(chan struct{})
	rd.sub = newSubscription()
	go func() {
		defer close(subDone)
		rd.sub.run(subCtx, subClient, d.base, "bench", rd.ids[0], p.match, started)
	}()
	<-started

	pu := newPusher(ctl, d.base, "bench")
	acked := make([]bool, p.pushes+1)
	churnIDs := make([]string, 0, len(p.churn))
	cpu0, err := d.cpuTicks()
	if err != nil {
		return err
	}
	start := time.Now().Add(5 * time.Millisecond)
	rd.ops = openLoop(ctx, start, len(p.ops), func(j int) time.Duration { return p.ops[j].due }, func(j int) error {
		o := p.ops[j]
		if o.push < 0 {
			c := p.churn[o.churn]
			if c.Query != "" {
				id, err := submitQuery(ctx, ctl, d.base, "bench", c.Query)
				churnIDs = append(churnIDs, id) // "" keeps indices aligned on failure
				return err
			}
			if churnIDs[c.Del] == "" {
				return errors.New("delete of a failed churn submit")
			}
			return doJSON(ctx, ctl, http.MethodDelete, d.base+"/v1/sessions/bench/queries/"+churnIDs[c.Del], "", nil, nil)
		}
		a, err := pu.push(ctx, frames[o.push])
		if err != nil {
			return err
		}
		acked[o.push] = true
		rd.accepted += a.Accepted
		n := 0
		if o.push < p.pushes {
			n = p.w.BatchTuples
		}
		if a.lost() > 0 || a.Accepted+a.lost() != n {
			return fmt.Errorf("push %d: ack %+v for %d tuples", o.push, a, n)
		}
		return nil
	})
	if len(rd.ops) != len(p.ops) {
		return fmt.Errorf("fixed-rate phase cut short: %v", ctx.Err())
	}
	r.count(rd.ops)

	// Every epoch closes once the closing watermark lands.
	st, err := waitQuiet(ctx, ctl, d.base, "bench", int(p.endWM))
	if err != nil {
		return err
	}
	cpu1, err := d.cpuTicks()
	if err != nil {
		return err
	}
	rd.cpuTicks = cpu1 - cpu0
	applied := 0 // tuples in pushes craqrd answered 2xx
	for i := 0; i < p.pushes; i++ {
		if acked[i] {
			applied += p.w.BatchTuples
		}
	}
	if err := ackIdentity(st, applied); err != nil {
		return err
	}
	// Let the subscriber catch up with the streamed query's last tuple.
	total, err := resultTotal(ctx, ctl, d.base, "bench", rd.ids[0])
	if err != nil {
		return err
	}
	for deadline := time.Now().Add(10 * time.Second); rd.sub.received.Load() < int64(total) && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	stopSub()
	<-subDone
	return nil
}

// ackIdentity checks that a session accounted for every pushed tuple:
// accepted + dropped + late-dropped + rejected + duplicates = pushed.
func ackIdentity(st sessionStatus, pushed int) error {
	if got := st.Ingested + st.IngestDropped + st.LateDropped + st.IngestRejected + st.IngestDuplicates; got != uint64(pushed) {
		return fmt.Errorf("ack identity broken: %d tuples accounted (%+v), %d pushed", got, st, pushed)
	}
	return nil
}

// waitQuiet polls the session until it has closed epochs epochs with
// nothing pending.
func waitQuiet(ctx context.Context, c *http.Client, base, session string, epochs int) (sessionStatus, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := getStatus(ctx, c, base, session)
		if err != nil {
			return st, err
		}
		if st.Epochs >= epochs && st.IngestPending == 0 {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("session %s: %d/%d epochs, %d pending after 60s", session, st.Epochs, epochs, st.IngestPending)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// resultPage is GET …/results/{q}'s body with the tuple array kept as the
// server's raw bytes.
type resultPage struct {
	Tuples     json.RawMessage `json:"tuples"`
	NextCursor uint64          `json:"nextCursor"`
	Dropped    uint64          `json:"dropped"`
	Total      uint64          `json:"total"`
}

func getPage(ctx context.Context, c *http.Client, base, session, id string, cursor uint64, limit int) (resultPage, error) {
	url := base + "/v1/sessions/" + session + "/results/" + id + "?cursor=" + strconv.FormatUint(cursor, 10) + "&limit=" + strconv.Itoa(limit)
	var pg resultPage
	err := doJSON(ctx, c, http.MethodGet, url, "", nil, &pg)
	return pg, err
}

func resultTotal(ctx context.Context, c *http.Client, base, session, id string) (uint64, error) {
	pg, err := getPage(ctx, c, base, session, id, math.MaxInt64, 1)
	return pg.Total, err
}

// pageLimit is the page size of the correctness check's paginated reads.
const pageLimit = 16384

// compareQuery pages one query's results to exhaustion and compares each
// page's tuple array byte for byte with the reference store's page, plus
// the totals, eviction counts and cursors.
func compareQuery(ctx context.Context, c *http.Client, base, session, id string, ref *stream.ResultStore) error {
	var cursor uint64
	buf := make([]stream.Tuple, 0, pageLimit)
	for {
		pg, err := getPage(ctx, c, base, session, id, cursor, pageLimit)
		if err != nil {
			return err
		}
		want, next, dropped := ref.ReadFrom(cursor, pageLimit, buf[:0])
		if pg.Total != ref.Total() || pg.Dropped != dropped || pg.NextCursor != next {
			return fmt.Errorf("query %s at cursor %d: got total %d dropped %d next %d, reference %d/%d/%d",
				id, cursor, pg.Total, pg.Dropped, pg.NextCursor, ref.Total(), dropped, next)
		}
		if w := renderPage(want); !bytes.Equal(pg.Tuples, w) {
			return fmt.Errorf("query %s page at cursor %d: %s", id, cursor, firstDiff(pg.Tuples, w))
		}
		if len(want) == 0 {
			return nil
		}
		cursor = next
	}
}

// firstDiff describes where two renderings part.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-60)
	return fmt.Sprintf("differs at byte %d: got …%s…, reference …%s…", i, got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
}

// check compares every resident query against the reference, two
// queries at a time over two connections (craqrd renders a page while the
// generator compares the previous one).
func check(ctx context.Context, base string, ids []string, ref []*stream.ResultStore) error {
	const workers = 2
	c := newClient(workers)
	defer c.CloseIdleConnections()
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := g; q < len(ids); q += workers {
				errs[q] = compareQuery(ctx, c, base, "bench", ids[q], ref[q])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("reference mismatch: %w", err)
	}
	return nil
}

// saturate runs the closed-loop capacity phase on a second session with
// the same resident queries: nproc pushers, at most one batch apart in
// event time. While the latest ack shows a backlog over the workload's
// cap, pushers send empty probes instead of data until epochs drain it. It reports the epoch-closed tuple rate per window.
func (r *httpRun) saturate(ctx context.Context, d *daemon, p *plan, dur time.Duration, rd *round) error {
	const workers = 2
	c := newClient(workers)
	defer c.CloseIdleConnections()
	w := p.w
	delta := 1 / float64(w.PushesPerEpoch)
	spec := sessionSpec{Name: "sat", Seed: int64(p.seed), Source: "external", Simulated: true,
		LatePolicy: "drop", Tolerance: 3 * delta, Retention: 4096}
	if _, err := createSession(ctx, c, d.base, spec, p.queries); err != nil {
		return fmt.Errorf("saturation session: %w", err)
	}
	r.attempted += 1 + len(p.queries)

	type sample struct {
		at      time.Time
		drained int // accepted so far minus pending
	}
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		next     int
		inflight = map[int]bool{}
		accepted int
		samples  []sample
		errs     []error
		pushed   int // requests, probes included
		tuples   int
	)
	oldest := func() int {
		m := next
		for k := range inflight {
			if k < m {
				m = k
			}
		}
		return m
	}
	pu := newPusher(c, d.base, "sat")
	probe := frame(nil, nil, math.NaN()) // no tuples, no watermark: reads the backlog
	var pending atomic.Int64             // backlog in the latest ack
	start := time.Now()
	stopAt := start.Add(dur)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]stream.Tuple, 0, w.BatchTuples)
			var fb []byte
			for time.Now().Before(stopAt) && ctx.Err() == nil {
				if pending.Load() > int64(w.SatPendingCap) {
					// Backlog over the cap: wait for epochs to drain it.
					time.Sleep(time.Millisecond)
					a, err := pu.push(ctx, probe)
					mu.Lock()
					pushed++
					if err != nil {
						errs = append(errs, err)
					} else {
						pending.Store(int64(a.Pending))
					}
					mu.Unlock()
					continue
				}
				mu.Lock()
				for next >= oldest()+2 {
					cond.Wait()
				}
				k := next
				next++
				inflight[k] = true
				mu.Unlock()

				fb = frame(fb, w.pushBatch(p.seed, streamSat, k, buf), math.NaN())
				a, err := pu.push(ctx, fb)

				mu.Lock()
				delete(inflight, k)
				cond.Broadcast()
				pushed++
				tuples += w.BatchTuples
				if err != nil {
					errs = append(errs, err)
				} else {
					pending.Store(int64(a.Pending))
					accepted += a.Accepted
					samples = append(samples, sample{at: time.Now(), drained: accepted - a.Pending})
					if a.lost() > 0 {
						errs = append(errs, fmt.Errorf("saturation push %d: ack %+v", k, a))
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.attempted += pushed
	for _, err := range errs {
		r.fail("%v", err)
	}
	st, err := getStatus(ctx, c, d.base, "sat")
	if err != nil {
		return err
	}
	if err := ackIdentity(st, tuples); err != nil {
		return fmt.Errorf("saturation session: %w", err)
	}
	if err := doJSON(ctx, c, http.MethodDelete, d.base+"/v1/sessions/sat", "", nil, nil); err != nil {
		return err
	}
	// Windowed drain rate; the first window is the ramp-up and is dropped.
	sort.Slice(samples, func(i, j int) bool { return samples[i].at.Before(samples[j].at) })
	const windows = 8
	win := dur / windows
	at := func(t time.Time) int { // drained count at time t
		i := sort.Search(len(samples), func(i int) bool { return samples[i].at.After(t) })
		if i == 0 {
			return 0
		}
		return samples[i-1].drained
	}
	for k := 1; k < windows; k++ {
		a, b := start.Add(time.Duration(k)*win), start.Add(time.Duration(k+1)*win)
		rd.satRates = append(rd.satRates, float64(at(b)-at(a))/win.Seconds())
	}
	return nil
}
