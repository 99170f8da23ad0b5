package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/server"
	"repro/internal/world"
)

// tiny is a small workload for in-process checks.
var tiny = Workload{Name: "tiny", BatchTuples: 16, PushesPerEpoch: 2, Rate: 1000, Queries: 3}

// fakeCraqrd serves a manager built the way craqrd builds one.
func fakeCraqrd(t *testing.T) *httptest.Server {
	t.Helper()
	tmpl := world.Template(0)
	tmpl.Fabricator.Workers = 1
	tmpl.Source = server.SourceConfig{Mode: server.SourceSimulated, Late: ingest.LateDrop}
	m, err := server.NewManager(server.ManagerConfig{NewEngine: server.NewEngineFactory(tmpl, world.Fields)})
	if err != nil {
		t.Fatal(err)
	}
	h, err := server.NewManagerHTTPServer(m, server.DefaultSessionName)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return srv
}

// pushPlan sends every push of p to the bench session and waits for the
// last epoch to close.
func pushPlan(t *testing.T, base string, p *plan) []string {
	t.Helper()
	ctx := context.Background()
	c := newClient(1)
	defer c.CloseIdleConnections()
	spec := sessionSpec{Name: "bench", Seed: int64(p.seed), Source: "external", Simulated: true, LatePolicy: "drop"}
	ids, err := createSession(ctx, c, base, spec, p.queries)
	if err != nil {
		t.Fatal(err)
	}
	pu := newPusher(c, base, "bench")
	for i := 0; i <= p.pushes; i++ {
		tuples, wm := p.batch(i, nil)
		if _, err := pu.push(ctx, frame(nil, tuples, wm)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := waitQuiet(ctx, c, base, "bench", int(p.endWM)); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestReferenceMatchesServer(t *testing.T) {
	srv := fakeCraqrd(t)
	p := newPlan(tiny, 5, 40*time.Millisecond)
	ids := pushPlan(t, srv.URL, p)
	ref, err := replay(p, replayOpts{procs: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	for q, id := range ids {
		if ref.stores[q].Total() == 0 {
			t.Fatalf("query %s acquired nothing; the check would be vacuous", id)
		}
		if err := compareQuery(context.Background(), c, srv.URL, "bench", id, ref.stores[q]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReferenceMismatchExitsNonzero feeds the check a reference built
// from another seed: the comparison must fail and the command's exit path
// must turn that into a nonzero code and correct=false.
func TestReferenceMismatchExitsNonzero(t *testing.T) {
	srv := fakeCraqrd(t)
	p := newPlan(tiny, 5, 40*time.Millisecond)
	ids := pushPlan(t, srv.URL, p)
	other, err := replay(newPlan(tiny, 6, 40*time.Millisecond), replayOpts{procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	cerr := compareQuery(context.Background(), c, srv.URL, "bench", ids[0], other.stores[0])
	if cerr == nil {
		t.Fatal("a reference from another seed matched the server")
	}
	var out, errOut bytes.Buffer
	res := &result{Attempted: 1, Metrics: map[string]map[string]any{}}
	if code := finish(&out, &errOut, res, cerr, false); code == 0 {
		t.Fatal("mismatch exited 0")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct bool `json:"correct"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct {
		t.Errorf("last line %q: want a result with correct=false (%v)", lines[len(lines)-1], err)
	}
}

// TestSplitReplayMatchesEngine pins the component split: the epoch
// assembled from QueueSource/Fabricator/ResultStore must produce the
// engine's bytes, with and without churn.
func TestSplitReplayMatchesEngine(t *testing.T) {
	w := tiny
	w.ChurnEvery, w.ChurnLive = 5*time.Millisecond, 2
	p := newPlan(w, 9, 60*time.Millisecond)
	ref, err := replay(p, replayOpts{procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []replayOpts{
		{churn: true, procs: 1},
		{churn: true, procs: 1, split: true, tr: newTracer()},
	} {
		got, err := replay(p, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameStores(ref.stores, got.stores); err != nil {
			t.Errorf("split=%v: %v", o.split, err)
		}
		if o.tr != nil {
			if err := checkSelf(o.tr.spans); err != nil {
				t.Error(err)
			}
		}
	}
}
