package main

import (
	"testing"
	"time"
)

func TestSelfTimeWithNestedChildren(t *testing.T) {
	// request [0,100] ⊃ wire [10,40] ⊃ wal [15,25]; request ⊃ server [50,90];
	// a second root ingest [200,230].
	spans := []span{
		{name: "request.push", layer: "request", start: 0, end: 100, parent: -1},
		{name: "wire.decode", layer: "wire", start: 10, end: 40, parent: 0},
		{name: "wal.sync", layer: "wal", start: 15, end: 25, parent: 1},
		{name: "server.step", layer: "server", start: 50, end: 90, parent: 0},
		{name: "ingest.push", layer: "ingest", start: 200, end: 230, parent: -1},
	}
	self, roots := selfTimes(spans)
	want := map[string]time.Duration{"request": 30, "wire": 20, "wal": 10, "server": 40, "ingest": 30}
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], w)
		}
	}
	if roots != 130 {
		t.Errorf("roots = %v, want 130", roots)
	}
	if err := checkSelf(spans); err != nil {
		t.Error(err)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	tr.setReq(7)
	root := tr.begin("request", "request.push")
	child := tr.begin("wire", "wire.decode")
	grand := tr.begin("wal", "wal.sync")
	tr.end(grand)
	tr.end(child)
	sib := tr.begin("server", "server.step")
	tr.end(sib)
	tr.end(root)
	wantParent := []int{-1, root, child, root}
	for i, s := range tr.spans {
		if s.parent != wantParent[i] || s.req != 7 {
			t.Errorf("span %d (%s): parent %d req %d, want parent %d req 7", i, s.name, s.parent, s.req, wantParent[i])
		}
		if s.end < s.start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	if err := checkSelf(tr.spans); err != nil {
		t.Error(err)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.setReq(1)
	tr.end(tr.begin("wire", "wire.decode"))
}
