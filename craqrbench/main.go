// Command craqrbench is the CrAQR service benchmark. One process drives a
// craqrd built from the same tree over HTTP with an open-loop generator,
// checks every resident query's acquired stream against an in-process
// reference engine, and — with --trace 1 — replays the same seeded
// requests in-process through each layer's public functions to report
// per-layer costs. See README.md for the workloads and metrics.
//
//	bash craqrbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// lateBoundMs is the generator validity gate: a run whose own send
// lateness (loadgen.late_p99_ms) exceeds it measured the generator, not
// craqrd, and is rejected as invalid.
const lateBoundMs = 10

// warmupFrac of each round's fixed-rate phase is excluded from latency and
// freshness samples (connections, caches and the heap settle).
const warmupFrac = 0.1

// metric is one reported figure.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string
}

// result is one run's outcome.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
	list      []metric                  // printed as the table
	problems  []string                  // why the run is incorrect or invalid
	env       map[string]string         // machine and build facts
}

func (r *result) add(name string, value float64, unit string, samples int, note string) {
	r.list = append(r.list, metric{name: name, value: value, unit: unit, samples: samples, note: note})
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("craqrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "ingest", "workload: ingest | acquire")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "total length of the rounds' fixed-rate phases in seconds")
	trace := fs.Int("trace", 0, "1 = also replay in-process with spans and report per-layer metrics")
	craqrd := fs.String("craqrd", ".bench_build/bin/craqrd", "craqrd binary built from this tree")
	work := fs.String("work", ".bench_build/work", "scratch directory for data dirs, logs and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "craqrbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if _, err := os.Stat(*craqrd); err != nil {
		fmt.Fprintf(stderr, "craqrbench: craqrd binary: %v (build it with craqrbench/run.sh)\n", err)
		return 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.Name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "craqrbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)

	// craqrd gets every CPU (its ack path and epoch loop need one each);
	// the generator's one P drives both of its connections, so each side
	// fits nproc. The in-process replays run after craqrd has exited and
	// use nproc epoch workers, as craqrd does.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(1)
	env := runEnv{craqrd: *craqrd, work: dir, procs: procs}

	res := &result{Metrics: map[string]map[string]any{}, env: collectEnv(dir, procs)}
	err := bench(context.Background(), env, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, res)
	return finish(stdout, stderr, res, err, *trace == 1)
}

// finish records err as the run's problem, prints the report and maps the
// outcome to the exit code: 0 only for a correct, valid run.
func finish(stdout, stderr io.Writer, res *result, err error, traced bool) int {
	if err != nil {
		res.problem("%v", err)
	}
	res.Correct = len(res.problems) == 0
	report(stdout, res, traced)
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "craqrbench: %s\n", p)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs one workload: the untraced HTTP run with its correctness
// check, then (traced) the in-process per-layer replays. Each of the HTTP
// run's rounds gets an equal share of phase.
func bench(ctx context.Context, env runEnv, w Workload, seed uint64, phase time.Duration, traced bool, res *result) error {
	phase /= rounds
	p := newPlan(w, seed, phase)
	sat := max(phase/4, 2*time.Second)
	// Every round must match this reference. No craqrd runs yet: the
	// generator may use every CPU.
	runtime.GOMAXPROCS(env.procs)
	ref, err := replay(p, replayOpts{procs: env.procs})
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	runtime.GOMAXPROCS(1)
	h, err := runHTTP(ctx, env, p, sat, ref.stores)
	if h != nil {
		res.Attempted, res.Failed = h.attempted, h.failed
	}
	if err != nil {
		return err
	}
	for _, rd := range h.rounds {
		if rd.sub.err != nil {
			return fmt.Errorf("subscriber: %w", rd.sub.err)
		}
		if rd.sub.foreign > 0 {
			return fmt.Errorf("subscriber received %d tuples that match no pushed tuple", rd.sub.foreign)
		}
		res.Attempted += len(rd.sub.arrivals)
	}
	if err := endToEnd(p, h, phase, res); err != nil || !traced {
		return err
	}
	runtime.GOMAXPROCS(env.procs)
	return perLayer(env, p, h, res)
}

// endToEnd derives the end-to-end metrics from the HTTP run's rounds.
func endToEnd(p *plan, h *httpRun, phase time.Duration, res *result) error {
	warm := time.Duration(float64(phase) * warmupFrac)
	push := &dist{name: "push latency"}
	late := &dist{name: "generator lateness"}
	fresh := &dist{name: "freshness"}
	var setup, satRates, rss []float64
	var cpuTicks int64
	accepted := 0
	steal := 0.0
	for _, rd := range h.rounds {
		pushes := make(map[int]timing)
		for j, t := range rd.ops {
			o := p.ops[j]
			if o.due < warm {
				continue
			}
			late.add(ms(t.late()))
			if o.push >= 0 && o.push < p.pushes {
				pushes[o.push] = t
				push.add(ms(t.latency()))
			}
		}
		fresh.samples = append(fresh.samples, freshness(rd.sub.arrivals, pushes, p.w.PushesPerEpoch)...)
		setup = append(setup, rd.setup)
		satRates = append(satRates, rd.satRates...)
		rss = append(rss, rd.rssMB)
		cpuTicks += rd.cpuTicks
		accepted += rd.accepted
		steal = max(steal, rd.steal)
	}
	var errs []error
	get := func(d *dist, pc float64) float64 {
		v, err := d.p(pc)
		if err != nil {
			errs = append(errs, err)
		}
		return v
	}
	res.add("setup_s", median(setup), "s", len(setup), "median of rounds")
	tail := func(d *dist) (float64, string) {
		v, blocks, err := blockP99(d.samples)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", d.name, err))
			return v, ""
		}
		return v, fmt.Sprintf("median p99 of %d blocks, %.3g–%.3g", len(blocks), slices.Min(blocks), slices.Max(blocks))
	}
	// Blocks follow sample order, so the p99s come before the sorting p50s.
	pushP99, pushNote := tail(push)
	freshP99, freshNote := tail(fresh)
	res.add("push_p50_ms", get(push, 50), "ms", len(push.samples), "")
	res.add("push_p99_ms", pushP99, "ms", len(push.samples), pushNote)
	res.add("fresh_p50_ms", get(fresh, 50), "ms", len(fresh.samples), "")
	res.add("fresh_p99_ms", freshP99, "ms", len(fresh.samples), freshNote)
	res.add("peak_tuples_per_s", median(satRates), "tuples/s", len(satRates), "median of saturation windows")
	cpu := float64(cpuTicks) * float64(clockTick) / float64(max(1, accepted))
	res.add("cpu_ns_per_tuple", cpu, "ns", accepted, "craqrd utime+stime over accepted tuples")
	res.add("rss_peak_mb", median(rss), "MB", len(rss), "craqrd VmHWM, median of rounds")
	failedFrac := float64(res.Failed) / float64(max(1, res.Attempted))
	res.add("failed_frac", failedFrac, "fraction", res.Attempted, "also the result's failed/attempted")
	res.add("host.steal_frac", steal, "fraction", len(h.rounds), "worst kept round; host gate")
	res.add("host.discarded_rounds", float64(h.discarded), "count", h.discarded+len(h.rounds), "host gate")
	lateP99 := get(late, 99)
	res.add("loadgen.late_p99_ms", lateP99, "ms", len(late.samples), "validity gate")
	if lateP99 > lateBoundMs {
		errs = append(errs, fmt.Errorf("invalid run: generator lateness p99 %.3f ms exceeds %d ms", lateP99, lateBoundMs))
	}
	return errors.Join(errs...)
}

// report prints the metric table and environment to stdout, then the
// result object as the last line. The object carries the end-to-end
// metrics, or the per-layer ones on a traced run.
func report(w io.Writer, res *result, traced bool) {
	names := endToEndNames
	if traced {
		names = nil
		for _, m := range perLayerMetrics {
			names = append(names, m.name)
		}
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	fmt.Fprintf(w, "%-34s %14s  %-9s %8s  %s\n", "metric", "value", "unit", "samples", "note")
	for _, m := range res.list {
		fmt.Fprintf(w, "%-34s %14.6g  %-9s %8d  %s\n", m.name, m.value, m.unit, m.samples, m.note)
		if want[m.name] {
			res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	envJSON, _ := json.Marshal(map[string]any{"env": res.env}) // strings only
	fmt.Fprintln(w, string(envJSON))
	out, _ := json.Marshal(res) // numbers and strings only
	fmt.Fprintln(w, string(out))
}

// endToEndNames are the metrics a --trace 0 run puts in its result
// object, the ones BENCHMARK.json bounds. The p99s and failed_frac are
// measured and printed but not bounded (see README.md).
var endToEndNames = []string{
	"setup_s", "push_p50_ms", "fresh_p50_ms",
	"peak_tuples_per_s", "cpu_ns_per_tuple", "rss_peak_mb",
}
