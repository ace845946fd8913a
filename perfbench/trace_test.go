package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSelfTimeArithmetic drives a synthetic span tree on a fake clock:
//
//	op        [0, 100)
//	  engine  [10, 40)
//	    trainer [15, 25)
//	  route   [50, 90)   aggregated only
//	  engine  [92, 97)
func TestSelfTimeArithmetic(t *testing.T) {
	var clock int64
	tr := newTracerClock(func() int64 { return clock })
	at := func(ns int64) { clock = ns }

	at(0)
	tr.begin(layerOp)
	at(10)
	tr.begin(layerEngine)
	at(15)
	tr.begin(layerTrainer)
	at(25)
	tr.end()
	at(40)
	tr.end()
	at(50)
	tr.begin(layerRoute)
	at(90)
	tr.end()
	at(92)
	tr.begin(layerEngine)
	at(97)
	tr.end()
	at(100)
	tr.end()

	want := map[string]layerStat{
		layerOp:      {Count: 1, TotalNS: 100, SelfNS: 100 - 30 - 40 - 5},
		layerEngine:  {Count: 2, TotalNS: 35, SelfNS: 20 + 5},
		layerTrainer: {Count: 1, TotalNS: 10, SelfNS: 10},
		layerRoute:   {Count: 1, TotalNS: 40, SelfNS: 40},
	}
	for layer, w := range want {
		if got := tr.stat(layer); got != w {
			t.Errorf("%s: got %+v, want %+v", layer, got, w)
		}
	}
	if got := tr.selfSinceNS(nil, layerOp); got != 75 {
		t.Errorf("self time inside op = %d, want 75", got)
	}

	// The aggregated route span is not kept; the kept spans link to
	// their nearest kept ancestor.
	if len(tr.spans) != 4 {
		t.Fatalf("kept %d spans, want 4: %+v", len(tr.spans), tr.spans)
	}
	wantSpans := []span{
		{Layer: layerOp, Parent: -1, Start: 0, End: 100, SelfNS: 25},
		{Layer: layerEngine, Parent: 0, Start: 10, End: 40, SelfNS: 20},
		{Layer: layerTrainer, Parent: 1, Start: 15, End: 25, SelfNS: 10},
		{Layer: layerEngine, Parent: 0, Start: 92, End: 97, SelfNS: 5},
	}
	for i, w := range wantSpans {
		if tr.spans[i] != w {
			t.Errorf("span %d: got %+v, want %+v", i, tr.spans[i], w)
		}
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Layers map[string]layerStat `json:"layers"`
		Spans  []span               `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 4 || doc.Layers[layerRoute].SelfNS != 40 {
		t.Errorf("written trace does not round-trip: %s", b)
	}
}

func TestTracerRejectsOpenSpans(t *testing.T) {
	tr := newTracerClock(func() int64 { return 0 })
	tr.begin(layerOp)
	if err := tr.write(filepath.Join(t.TempDir(), "t.json")); err == nil {
		t.Fatal("writing a trace with an open span succeeded")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.begin(layerOp)
	tr.end()
	if got := tr.stat(layerOp); got != (layerStat{}) {
		t.Fatalf("nil tracer recorded %+v", got)
	}
}
