package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/budget"
	"repro/internal/craql"
	"repro/internal/export"
	"repro/internal/geom"
	"repro/internal/ingest"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/world"
)

// op is one scheduled request of the bench session: a push (push ≥ 0) or
// a churn operation (churn ≥ 0). The final op is the watermark-only push
// that closes the last epoch.
type op struct {
	due   time.Duration
	push  int
	churn int
}

// plan is everything one run sends to the bench session, in send order.
type plan struct {
	w       Workload
	seed    uint64
	queries []string
	churn   []churnOp
	ops     []op
	pushes  int     // scheduled pushes (the closing watermark push is index pushes)
	endWM   float64 // the closing watermark: the end of the last pushed epoch
}

// newPlan derives a run's requests from the workload and seed. The phase
// holds a whole number of epochs so the closing watermark lands on an
// epoch boundary and every pushed tuple ends up in a closed epoch.
func newPlan(w Workload, seed uint64, phase time.Duration) *plan {
	n := int(phase.Seconds() * w.Rate)
	n -= n % w.PushesPerEpoch
	p := &plan{w: w, seed: seed, queries: w.genQueries(seed), pushes: n}
	p.churn = w.genChurn(seed, p.queries, phase)
	interval := time.Duration(float64(time.Second) / w.Rate)
	ci := 0
	for i := 0; i <= n; i++ {
		due := time.Duration(i) * interval
		for ci < len(p.churn) && p.churn[ci].At < due {
			p.ops = append(p.ops, op{due: p.churn[ci].At, push: -1, churn: ci})
			ci++
		}
		p.ops = append(p.ops, op{due: due, push: i, churn: -1})
	}
	p.endWM = float64(n / w.PushesPerEpoch)
	return p
}

// batch returns push i's tuples and watermark (the closing push carries
// only the watermark).
func (p *plan) batch(i int, dst []stream.Tuple) ([]stream.Tuple, float64) {
	if i == p.pushes {
		return dst[:0], p.endWM
	}
	return p.w.pushBatch(p.seed, streamBench, i, dst), math.NaN()
}

// match reports whether a delivered (id, t) is a tuple of the bench
// stream: the ID names push i and tuple j, and t lies in that push's
// event-time span.
func (p *plan) match(id uint64, t float64) bool {
	if id>>56 != streamBench {
		return false
	}
	k := int(id&(1<<56-1)) - 1
	i := k / p.w.BatchTuples
	if k < 0 || i >= p.pushes {
		return false
	}
	delta := 1 / float64(p.w.PushesPerEpoch)
	return t >= float64(i)*delta && t < float64(i+1)*delta
}

// benchSpec is the bench session's spec, shared by craqrd (over HTTP) and
// every in-process engine.
func benchSpec(seed uint64) server.SessionSpec {
	return server.SessionSpec{
		Name:       "bench",
		Seed:       int64(seed),
		Source:     "external",
		Clock:      server.ClockConfig{Simulated: true},
		LatePolicy: "drop",
	}
}

// engineConfig builds the bench session's config exactly as craqrd does:
// world.Template with craqrd's flag defaults, then ConfigForSpec.
func engineConfig(seed uint64, procs int, durDir string) (server.Config, error) {
	tmpl := world.Template(0)
	tmpl.Fabricator.Workers = procs
	tmpl.Source = server.SourceConfig{Mode: server.SourceSimulated, Late: ingest.LateDrop}
	if durDir != "" {
		tmpl.Durability = server.DurabilityConfig{Dir: durDir, Fsync: wal.FsyncBatch}
	}
	return server.ConfigForSpec(tmpl, benchSpec(seed))
}

// replayOpts selects how a replay drives the program.
type replayOpts struct {
	churn  bool    // replay the churn ops (the reference does not)
	tr     *tracer // nil = untraced
	split  bool    // assemble epochs from QueueSource/Fabricator/ResultStore
	durDir string  // durable engine directory ("" = non-durable)
	procs  int
	// maxPushes stops the replay after that many pushes (0 = all).
	maxPushes int
}

// replayResult is what one in-process replay produced and counted.
type replayResult struct {
	stores  []*stream.ResultStore // resident queries, in submit order
	engine  *server.Engine        // nil for split replays
	fab     *topology.Fabricator
	elapsed time.Duration

	tuples, frameBytes, pushes int
	epochs, stepAttempts, open int
	pendingMax                 int
	readTuples, exportBytes    int
	syncs                      int
	inproc                     map[int]time.Duration // push index → decode+admit+push
}

// syncFile times WAL segment fsyncs through DurabilityConfig.WrapFile.
type syncFile struct {
	*os.File
	tr    *tracer
	count *int
}

func (f syncFile) Sync() error {
	s := f.tr.begin("wal", "wal.sync")
	err := f.File.Sync()
	f.tr.end(s)
	*f.count++
	return err
}

// epochDriver advances one replay's epochs; the engine-level and split
// replays implement it differently.
type epochDriver interface {
	push(tuples []stream.Tuple, wm float64) (ingest.Ack, error)
	// step runs one epoch; ok=false means the epoch is still open.
	step() (ok bool, err error)
	submit(q string) (string, *stream.ResultStore, error)
	del(id string) error
}

// replay drives one run's request sequence in-process.
func replay(p *plan, o replayOpts) (*replayResult, error) {
	res := &replayResult{inproc: make(map[int]time.Duration)}
	var drv epochDriver
	var err error
	if o.split {
		drv, err = newSplitDriver(p.seed, o.procs, o.tr, res)
	} else {
		drv, err = newEngineDriver(p.seed, o, res)
	}
	if err != nil {
		return nil, err
	}
	tr := o.tr
	start := time.Now()
	for _, q := range p.queries {
		s := tr.begin("planner", "planner.submit")
		_, store, err := drv.submit(q)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("replay submit %q: %w", q, err)
		}
		res.stores = append(res.stores, store)
	}
	dec := wire.BorrowDecoder()
	defer dec.Release()
	churnIDs := make([]string, 0, len(p.churn))
	sink, err := export.NewJSONLinesSink(&countingWriterAdapter{res})
	if err != nil {
		return nil, err
	}
	var (
		cursor  uint64
		buf     = make([]stream.Tuple, 0, 4096)
		readBuf = make([]stream.Tuple, 0, 4096)
		frameB  []byte
	)
	streamed := res.stores[0]
	for _, o2 := range p.ops {
		if o2.push < 0 {
			if !o.churn {
				continue
			}
			c := p.churn[o2.churn]
			tr.setReq(-1 - o2.churn)
			root := tr.begin("request", "request.churn")
			if c.Query != "" {
				s := tr.begin("planner", "planner.submit")
				id, _, err := drv.submit(c.Query)
				tr.end(s)
				if err != nil {
					return nil, fmt.Errorf("replay churn submit: %w", err)
				}
				churnIDs = append(churnIDs, id)
			} else {
				s := tr.begin("planner", "planner.delete")
				err := drv.del(churnIDs[c.Del])
				tr.end(s)
				if err != nil {
					return nil, fmt.Errorf("replay churn delete: %w", err)
				}
			}
			tr.end(root)
			continue
		}
		i := o2.push
		if o.maxPushes > 0 && res.pushes == o.maxPushes {
			break
		}
		tuples, wm := p.batch(i, buf[:0])
		frameB = frame(frameB, tuples, wm)
		tr.setReq(i)
		root := tr.begin("request", "request.push")
		t0 := time.Now()
		s := tr.begin("wire", "wire.decode")
		b, err := dec.DecodeBinary(frameB)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("replay decode push %d: %w", i, err)
		}
		if e := res.engine; e != nil {
			s = tr.begin("server", "server.admit")
			err = e.AdmitIngest(len(b.Tuples), len(frameB))
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("replay admit push %d: %w", i, err)
			}
		}
		s = tr.begin("ingest", "ingest.push")
		a, err := drv.push(b.Tuples, b.Watermark)
		tr.end(s)
		res.inproc[i] = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("replay push %d: %w", i, err)
		}
		res.pushes++
		res.tuples += len(b.Tuples)
		res.frameBytes += len(frameB)
		if a.Pending > res.pendingMax {
			res.pendingMax = a.Pending
		}
		for {
			res.stepAttempts++
			ok, err := drv.step()
			if err != nil {
				return nil, fmt.Errorf("replay step after push %d: %w", i, err)
			}
			if !ok {
				res.open++
				break
			}
			res.epochs++
		}
		// Delivery: what a streaming subscriber of the widest query costs.
		s = tr.begin("stream", "stream.read")
		out, next, _ := streamed.ReadFrom(cursor, 0, readBuf[:0])
		tr.end(s)
		cursor = next
		if len(out) > 0 {
			res.readTuples += len(out)
			s = tr.begin("export", "export.encode")
			err = sink.Process(stream.Batch{Tuples: out})
			tr.end(s)
			if err != nil {
				return nil, err
			}
		}
		tr.end(root)
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// countingWriterAdapter feeds export bytes into the replay result.
type countingWriterAdapter struct{ r *replayResult }

func (c *countingWriterAdapter) Write(p []byte) (int, error) {
	c.r.exportBytes += len(p)
	return len(p), nil
}

// engineDriver replays through server.Engine's public API.
type engineDriver struct {
	e  *server.Engine
	tr *tracer
}

func newEngineDriver(seed uint64, o replayOpts, res *replayResult) (*engineDriver, error) {
	cfg, err := engineConfig(seed, o.procs, o.durDir)
	if err != nil {
		return nil, err
	}
	if o.durDir != "" {
		tr := o.tr
		cfg.Durability.WrapFile = func(f *os.File) (wal.File, error) {
			return syncFile{File: f, tr: tr, count: &res.syncs}, nil
		}
	}
	fields, err := world.Fields()
	if err != nil {
		return nil, err
	}
	e, err := server.New(cfg, fields)
	if err != nil {
		return nil, err
	}
	res.engine = e
	res.fab = e.Fabricator()
	return &engineDriver{e: e, tr: o.tr}, nil
}

func (d *engineDriver) push(t []stream.Tuple, wm float64) (ingest.Ack, error) {
	return d.e.PushObservations(t, wm)
}

func (d *engineDriver) step() (bool, error) {
	s := d.tr.begin("server", "server.step")
	err := d.e.Step()
	d.tr.end(s)
	if errors.Is(err, server.ErrEpochOpen) {
		if d.tr != nil {
			d.tr.spans[s].name = "server.step_open"
		}
		return false, nil
	}
	return err == nil, err
}

func (d *engineDriver) submit(q string) (string, *stream.ResultStore, error) {
	stored, err := d.e.SubmitCRAQL(q)
	if err != nil {
		return "", nil, err
	}
	store, err := d.e.ResultStore(stored.ID)
	return stored.ID, store, err
}

func (d *engineDriver) del(id string) error { return d.e.Delete(id) }

// splitDriver assembles each epoch from the engine's public parts —
// ingest.QueueSource.Acquire → topology.Fabricator.Ingest → ResultStore
// sinks — so the epoch's cost splits by layer from outside. Its output is
// trusted only when it is byte-identical to the engine's.
type splitDriver struct {
	tr     *tracer
	cfg    server.Config
	grid   *geom.Grid
	fab    *topology.Fabricator
	queue  *ingest.Queue
	src    *ingest.QueueSource
	now    float64
	weight planner.Weights
	attrs  []string
}

func newSplitDriver(seed uint64, procs int, tr *tracer, res *replayResult) (*splitDriver, error) {
	cfg, err := engineConfig(seed, procs, "")
	if err != nil {
		return nil, err
	}
	grid, err := geom.NewGrid(cfg.Region, cfg.GridCells)
	if err != nil {
		return nil, err
	}
	// server.New forks the fleet's, then the handler's, then the
	// fabricator's generator from the session seed.
	rng := stats.NewRNG(cfg.Seed)
	rng.Fork()
	rng.Fork()
	fab, err := topology.New(grid, cfg.Fabricator, rng.Fork())
	if err != nil {
		return nil, err
	}
	budgets, err := budget.NewController(cfg.Budget)
	if err != nil {
		return nil, err
	}
	fab.AttachBudgets(budgets)
	q := ingest.NewQueue(ingest.Config{
		Buffer: cfg.Source.Buffer, Tolerance: cfg.Source.Tolerance, Late: cfg.Source.Late, Region: cfg.Region,
	})
	src, err := ingest.NewQueueSource(q, cfg.Region)
	if err != nil {
		return nil, err
	}
	res.fab = fab
	return &splitDriver{tr: tr, cfg: cfg, grid: grid, fab: fab, queue: q, src: src, weight: planner.DefaultWeights()}, nil
}

func (d *splitDriver) push(t []stream.Tuple, wm float64) (ingest.Ack, error) {
	return d.queue.Push(t, wm)
}

func (d *splitDriver) step() (bool, error) {
	t0 := d.now
	t1 := t0 + d.cfg.Epoch
	if !d.src.Ready(t1) {
		return false, nil
	}
	s := d.tr.begin("ingest", "ingest.drain")
	batches, err := d.src.Acquire(t0, t1)
	d.tr.end(s)
	if err != nil {
		return false, err
	}
	d.now = t1
	window := geom.Window{T0: t0, T1: t1, Rect: d.grid.Region()}
	d.attrs = d.fab.AppendAttrs(d.attrs[:0])
	sort.Strings(d.attrs)
	for _, attr := range d.attrs {
		b, ok := batches[attr]
		if !ok {
			b = stream.Batch{Attr: attr, Window: window}
		}
		s := d.tr.begin("topology", "topology.ingest")
		err := d.fab.Ingest(b)
		d.tr.end(s)
		if err != nil {
			return false, err
		}
	}
	return true, nil
}

func (d *splitDriver) submit(src string) (string, *stream.ResultStore, error) {
	q, err := craql.Parse(src)
	if err != nil {
		return "", nil, err
	}
	store := stream.NewResultStore(d.cfg.Retention)
	var sink stream.Processor = store
	if d.tr != nil {
		sink = tracedSink{store: store, tr: d.tr}
	}
	var stored = q
	if est, perr := planner.ChooseMergeMode(d.grid, q, d.cfg.Epoch, d.weight); perr == nil {
		stored, err = d.fab.InsertQueryMerge(q, sink, est.Mode)
	} else {
		stored, err = d.fab.InsertQuery(q, sink)
	}
	if err != nil {
		return "", nil, err
	}
	return stored.ID, store, nil
}

func (d *splitDriver) del(id string) error { return d.fab.DeleteQuery(id) }

// tracedSink times result-store writes.
type tracedSink struct {
	store *stream.ResultStore
	tr    *tracer
}

func (t tracedSink) Process(b stream.Batch) error {
	s := t.tr.begin("stream", "stream.write")
	err := t.store.Process(b)
	t.tr.end(s)
	return err
}

// --- output comparison ------------------------------------------------------

// pageTuple is one tuple of a results page, as craqrd renders it.
type pageTuple struct {
	ID    uint64  `json:"id"`
	T     float64 `json:"t"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Value float64 `json:"value"`
}

// renderPage renders tuples as the results page's "tuples" array.
func renderPage(tuples []stream.Tuple) []byte {
	page := make([]pageTuple, len(tuples))
	for i, tp := range tuples {
		page[i] = pageTuple{tp.ID, tp.T, tp.X, tp.Y, tp.Value}
	}
	b, err := json.Marshal(page)
	if err != nil {
		// Result tuples are finite; failing here is a bug in the engine.
		panic(err)
	}
	return b
}

// sameStores compares two replays' resident query outputs byte for byte in
// the results-page rendering.
func sameStores(a, b []*stream.ResultStore) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d resident queries", len(a), len(b))
	}
	for q := range a {
		if a[q].Total() != b[q].Total() {
			return fmt.Errorf("query %d: %d vs %d tuples", q+1, a[q].Total(), b[q].Total())
		}
		if ra, rb := renderPage(a[q].Tuples()), renderPage(b[q].Tuples()); !bytes.Equal(ra, rb) {
			return fmt.Errorf("query %d: %s", q+1, firstDiff(ra, rb))
		}
	}
	return nil
}

// walReplay times a read-only replay of a WAL directory.
func walReplay(dir string) (time.Duration, int, error) {
	t0 := time.Now()
	l, err := wal.Open(wal.Config{Dir: filepath.Join(dir, "wal"), ReadOnly: true})
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	n := 0
	if _, err := l.Replay(func(*wal.Record) error { n++; return nil }); err != nil {
		return 0, 0, err
	}
	return time.Since(t0), n, nil
}
