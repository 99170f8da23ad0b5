package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
	"unsafe"

	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/world"
)

// perLayerMetrics lists every per-layer metric a traced run reports, with
// its unit. Layers a workload does not exercise report 0 with 0 samples.
var perLayerMetrics = []struct{ name, unit string }{
	{"loadgen.late_p99_ms", "ms"},
	{"http.push_self_us", "us"},
	{"wire.decode_ns_per_tuple", "ns"},
	{"wire.bytes_per_tuple", "B"},
	{"server.admit_ns", "ns"},
	{"ingest.push_ns_per_tuple", "ns"},
	{"ingest.pending_max", "count"},
	{"ingest.drain_us_per_epoch", "us"},
	{"server.step_ms_p50", "ms"},
	{"server.step_ms_p99", "ms"},
	{"server.step_open_frac", "fraction"},
	{"topology.ingest_ms_per_epoch", "ms"},
	{"topology.pipelines", "count"},
	{"topology.operators", "count"},
	{"topology.shared_attach_frac", "fraction"},
	{"pmat.keep_frac", "fraction"},
	{"pmat.draws_per_tuple", "count"},
	{"planner.submit_us_p50", "us"},
	{"planner.submit_us_p99", "us"},
	{"planner.delete_us_p50", "us"},
	{"planner.cache_hit_frac", "fraction"},
	{"stream.read_ns_per_tuple", "ns"},
	{"stream.retention_drops", "count"},
	{"stream.resident_mb", "MB"},
	{"export.encode_ns_per_tuple", "ns"},
	{"export.bytes_per_tuple", "B"},
	{"wal.commit_us_p50", "us"},
	{"wal.commit_us_p99", "us"},
	{"wal.fsyncs_per_push", "count"},
	{"wal.bytes_per_tuple", "B"},
	{"wal.replay_ms", "ms"},
	{"server.recover_ms", "ms"},
	{"server.replayed_records", "count"},
	{"trace.overhead_frac", "fraction"},
	{"request.self_ms", "ms"},
	{"wire.self_ms", "ms"},
	{"server.self_ms", "ms"},
	{"ingest.self_ms", "ms"},
	{"planner.self_ms", "ms"},
	{"stream.self_ms", "ms"},
	{"export.self_ms", "ms"},
	{"wal.self_ms", "ms"},
	{"topology.self_ms", "ms"},
}

// walPushes is how many pushes the durable replay (D) logs: enough for
// thousands of group commits and a multi-megabyte WAL to recover, few
// enough that one fsync per push stays a small part of the run.
const walPushes = 2000

// perLayer replays the run's requests in-process four times: through the
// engine untraced (A, the overhead baseline) and traced (B, the
// engine-level spans); assembled from the epoch's public parts, traced
// (C, the split of Engine.Step), used only when its output is
// byte-identical to A's; and through a durable engine over the first
// walPushes pushes (D, the WAL and recovery).
func perLayer(env runEnv, p *plan, h *httpRun, res *result) error {
	procs := env.procs
	a, err := replay(p, replayOpts{churn: true, procs: procs})
	if err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}
	trB := newTracer()
	b, err := replay(p, replayOpts{churn: true, tr: trB, procs: procs})
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	if err := sameStores(a.stores, b.stores); err != nil {
		return fmt.Errorf("tracing changed the output: %w", err)
	}
	if err := checkSelf(trB.spans); err != nil {
		return err
	}
	spans := byName(trB.spans)
	per := func(total float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	// pct reports the highest percentile up to pc that keeps ≥ 10 samples
	// beyond it, noting which one it is.
	pct := func(spans spanDists, metric, name string, pc, scale float64) {
		d := spans[name]
		if d == nil || len(d.samples) == 0 {
			res.add(metric, 0, unitOf(metric), 0, "not exercised")
			return
		}
		use := pc
		if hp, ok := highestPercentile(len(d.samples)); !ok {
			use = 50
		} else if hp < pc {
			use = hp
		}
		d.sort()
		v, _ := percentile(d.samples, use)
		res.add(metric, v/scale, unitOf(metric), len(d.samples), fmt.Sprintf("p%g", use))
	}

	e := b.engine
	fab := b.fab
	// HTTP self time: round trip minus the in-process decode+admit+push of
	// the same batch (untraced replay).
	var self []float64
	warm := time.Duration(float64(p.ops[len(p.ops)-1].due) * warmupFrac)
	for _, rd := range h.rounds {
		for j, t := range rd.ops {
			o := p.ops[j]
			if o.push < 0 || o.push >= p.pushes || o.due < warm {
				continue
			}
			if in, ok := a.inproc[o.push]; ok {
				self = append(self, us(t.rtt()-in))
			}
		}
	}
	res.add("http.push_self_us", median(self), "us", len(self), "median")
	res.add("wire.decode_ns_per_tuple", per(spans.sum("wire.decode"), b.tuples), "ns", spans.count("wire.decode"), "")
	res.add("wire.bytes_per_tuple", per(float64(b.frameBytes), b.tuples), "B", b.pushes, "")
	res.add("server.admit_ns", per(spans.sum("server.admit"), spans.count("server.admit")), "ns", spans.count("server.admit"), "mean")
	st, roots := selfTimes(trB.spans)
	res.add("ingest.push_ns_per_tuple", per(float64(st["ingest"]), b.tuples), "ns", spans.count("ingest.push"), "self time, WAL fsyncs excluded")
	res.add("ingest.pending_max", float64(b.pendingMax), "count", b.pushes, "")
	pct(spans, "server.step_ms_p50", "server.step", 50, 1e6)
	pct(spans, "server.step_ms_p99", "server.step", 99, 1e6)
	res.add("server.step_open_frac", per(float64(b.open), b.stepAttempts), "fraction", b.stepAttempts, "ErrEpochOpen / Step calls")
	ops := 0
	for _, n := range fab.OperatorCounts() {
		ops += n
	}
	res.add("topology.pipelines", float64(fab.NumPipelines()), "count", 1, "at end of replay")
	res.add("topology.operators", float64(ops), "count", 1, "at end of replay")
	submits := spans.count("planner.submit")
	res.add("topology.shared_attach_frac", per(float64(e.SharedStats().Attaches), submits), "fraction", submits, "attaches / submits")
	flow := fab.TotalFlow()
	res.add("pmat.keep_frac", per(float64(flow.TuplesOut), int(flow.TuplesIn)), "fraction", int(flow.TuplesIn), "live operators")
	res.add("pmat.draws_per_tuple", per(float64(flow.RandomDraws), int(flow.TuplesIn)), "count", int(flow.TuplesIn), "live operators")
	pct(spans, "planner.submit_us_p50", "planner.submit", 50, 1e3)
	pct(spans, "planner.submit_us_p99", "planner.submit", 99, 1e3)
	pct(spans, "planner.delete_us_p50", "planner.delete", 50, 1e3)
	hits, misses := e.PlanCacheStats()
	res.add("planner.cache_hit_frac", per(float64(hits), int(hits+misses)), "fraction", int(hits+misses), "")
	res.add("stream.read_ns_per_tuple", per(spans.sum("stream.read"), b.readTuples), "ns", b.readTuples, "")
	res.add("stream.retention_drops", float64(e.RetentionDrops()), "count", 1, "")
	stores := len(e.Queries())
	res.add("stream.resident_mb", float64(stores)*float64(stream.DefaultRetention)*float64(unsafe.Sizeof(stream.Tuple{}))/(1<<20), "MB", stores, "retention × tuple size × stores")
	res.add("export.encode_ns_per_tuple", per(spans.sum("export.encode"), b.readTuples), "ns", b.readTuples, "")
	res.add("export.bytes_per_tuple", per(float64(b.exportBytes), b.readTuples), "B", b.readTuples, "")
	res.add("trace.overhead_frac", (b.elapsed.Seconds()-a.elapsed.Seconds())/a.elapsed.Seconds(), "fraction", 2, "traced vs untraced replay wall time")
	for _, l := range []string{"request", "wire", "server", "ingest", "planner", "stream", "export"} {
		res.add(l+".self_ms", ms(st[l]), "ms", 1, fmt.Sprintf("engine-level replay; roots %.1f ms", ms(roots)))
	}
	shutdown(b)

	// D: a durable engine (fsync=batch, segment fsyncs spanned through
	// DurabilityConfig.WrapFile) logs the first walPushes pushes; then
	// server.New recovers its directory, and the recovered history must
	// equal the logged one.
	dir := filepath.Join(env.work, "wal-replay")
	trD := newTracer()
	dr, err := replay(p, replayOpts{tr: trD, durDir: dir, procs: procs, maxPushes: walPushes})
	if err != nil {
		return fmt.Errorf("durable replay: %w", err)
	}
	if err := checkSelf(trD.spans); err != nil {
		return err
	}
	ds := byName(trD.spans)
	selfD, rootsD := selfTimes(trD.spans)
	pct(ds, "wal.commit_us_p50", "ingest.push", 50, 1e3)
	pct(ds, "wal.commit_us_p99", "ingest.push", 99, 1e3)
	res.add("wal.fsyncs_per_push", per(float64(dr.syncs), dr.pushes), "count", dr.pushes, "WrapFile Sync calls / pushes, durable replay")
	res.add("wal.bytes_per_tuple", per(float64(dr.engine.Durability().WALBytes), dr.tuples), "B", dr.tuples, "durable replay")
	res.add("wal.self_ms", ms(selfD["wal"]), "ms", 1, fmt.Sprintf("durable replay; roots %.1f ms", ms(rootsD)))
	walDir := dr.engine.DurabilityDir()
	shutdown(dr)
	d, n, err := walReplay(walDir)
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	res.add("wal.replay_ms", ms(d), "ms", n, "read-only wal.Log.Replay")
	cfg, err := engineConfig(p.seed, procs, dir)
	if err != nil {
		return err
	}
	fields, err := world.Fields()
	if err != nil {
		return err
	}
	t0 := time.Now()
	re, err := server.New(cfg, fields)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	res.add("server.recover_ms", ms(time.Since(t0)), "ms", 1, "server.New over the durable replay's dir")
	res.add("server.replayed_records", float64(re.Durability().ReplayedRecords), "count", 1, "")
	recovered := make([]*stream.ResultStore, len(dr.stores))
	for q := range recovered {
		if recovered[q], err = re.ResultStore(fmt.Sprintf("Q%d", q+1)); err != nil {
			return err
		}
	}
	if err := sameStores(dr.stores, recovered); err != nil {
		return fmt.Errorf("recovered history differs from the logged one: %w", err)
	}
	if err := re.Shutdown(); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}

	// C: the epoch assembled from its parts.
	trC := newTracer()
	// One epoch worker: cells then run on the replay's goroutine, so the
	// result-store writes they make can be spanned.
	c, err := replay(p, replayOpts{churn: true, tr: trC, split: true, procs: 1})
	if err != nil {
		return fmt.Errorf("split replay: %w", err)
	}
	if err := checkSelf(trC.spans); err != nil {
		return err
	}
	if err := sameStores(a.stores, c.stores); err != nil {
		fmt.Fprintf(os.Stderr, "craqrbench: split replay differs from the engine (%v); reporting engine-level spans only\n", err)
		for _, n := range []string{"ingest.drain_us_per_epoch", "topology.ingest_ms_per_epoch", "topology.self_ms"} {
			res.add(n, 0, unitOf(n), 0, "split untrusted: output differs from the engine")
		}
	} else {
		cs := byName(trC.spans)
		selfC, rootsC := selfTimes(trC.spans)
		res.add("ingest.drain_us_per_epoch", per(cs.sum("ingest.drain"), c.epochs)/1e3, "us", c.epochs, "QueueSource.Acquire, split replay")
		res.add("topology.ingest_ms_per_epoch", per(cs.sum("topology.ingest"), c.epochs)/1e6, "ms", c.epochs, "Fabricator.Ingest incl. result writes, split replay")
		res.add("topology.self_ms", ms(selfC["topology"]), "ms", 1, fmt.Sprintf("split replay; roots %.1f ms", ms(rootsC)))
	}
	if err := writeSpans(filepath.Join(filepath.Dir(env.work), p.w.Name+"-spans.tsv"), trB.spans); err != nil {
		return err
	}
	return nil
}

// checkSelf verifies that per-layer self times add up to the root spans.
func checkSelf(spans []span) error {
	self, roots := selfTimes(spans)
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != roots {
		return fmt.Errorf("self times sum to %v, root spans to %v", sum, roots)
	}
	return nil
}

func shutdown(rs ...*replayResult) {
	for _, r := range rs {
		if r.engine != nil {
			_ = r.engine.Shutdown() // replay engines: their state is not reused
		}
	}
}

func unitOf(name string) string {
	for _, m := range perLayerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}
