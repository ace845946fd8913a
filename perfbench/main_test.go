package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the daemon workload's
// server process, which the workload starts as its own executable.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--serve-child" {
		if err := serveChildMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists the binary prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the binary %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "paper,fleet,serve,daemon"; got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	for _, w := range names {
		if _, ok := workloads[w]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no runner", w)
		}
	}
}

func TestScheduleIsSeededWithFixedCountSpanAndMix(t *testing.T) {
	span := 15 * time.Second
	deck := 0
	for _, e := range catalog {
		deck += e.weight
	}
	n := 25 * deck
	a := schedule(7, n, span, catalog)
	b := schedule(7, n, span, catalog)
	c := schedule(8, n, span, catalog)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("the same seed gave two schedules")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("two seeds gave one schedule")
	}
	for _, s := range [][]arrival{a, c} {
		counts := make([]int, len(catalog))
		for i, x := range s {
			if x.due < 0 || x.due > span || (i > 0 && x.due < s[i-1].due) {
				t.Fatalf("arrival %d due at %v: outside [0, %v] or out of order", i, x.due, span)
			}
			counts[x.env]++
		}
		// n is 25 whole decks: every seed sends exactly the same mix.
		for env, n := range counts {
			if want := 25 * catalog[env].weight; n != want {
				t.Errorf("envelope %s sent %d times, want %d", catalog[env].name, n, want)
			}
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := tailPercentile(xs); got != 990 {
		t.Errorf("tail of 1000 = %v, want p99 = 990", got)
	}
	if got := tailPercentile(xs[:100]); got != 990 {
		// xs[:100] holds 1000..901; ten lie above 990.
		t.Errorf("tail of 100 = %v, want 990", got)
	}
	if got := tailPercentile(xs[:50]); got != 995 {
		// xs[:50] holds 1000..951: fewer than 100 samples give p90.
		t.Errorf("tail of 50 = %v, want p90 = 995", got)
	}
	if got := tailPercentile([]float64{3, 1, 2}); got != 3 {
		t.Errorf("tail of 3 = %v, want the maximum", got)
	}
}

// TestRunRejectsUnknownWorkload checks that a run that cannot measure
// exits non-zero without printing a result.
func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatalf("unknown workload exited 0: %s", out.String())
	}
	if out.Len() != 0 {
		t.Fatalf("unknown workload printed a result: %s", out.String())
	}
}
