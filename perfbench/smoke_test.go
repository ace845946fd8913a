package main

import (
	"path/filepath"
	"testing"
)

// smallOptions runs a workload on tiny inputs, traced, so one test
// covers set-up, both passes, the traced-versus-untraced digest check
// and the per-layer metrics.
func smallOptions(t *testing.T, workload string) options {
	return options{
		workload: workload,
		seed:     5,
		seconds:  1,
		trace:    true,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
		small:    true,
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	// nonzero names per-layer metrics each workload must report, and
	// zero ones its layers never enter.
	cases := []struct {
		workload      string
		nonzero, zero []string
	}{
		{"paper",
			[]string{"engine.misses", "engine.miss_ms_per_profile", "profiler.us_per_iteration", "gpusim.kernels_per_iteration",
				"gpusim.ns_per_kernel", "trainer.iterations", "trainer.self_ms", "core.select_us", "core.seqpoints",
				"core.project_us", "core.projection_error_pct", "runtime.gc_cycles", "trace.layer_self_pct"},
			[]string{"engine.hits", "serving.route_calls", "serving.decide_calls", "loadgen.requests"}},
		{"fleet",
			[]string{"engine.misses", "engine.hits", "engine.hit_us_per_profile", "serving.route_calls", "serving.route_ns_per_call",
				"serving.route_share_pct", "serving.decide_calls", "serving.batches", "serving.mean_batch", "serving.self_ms",
				"serving.ns_per_request", "serving.summary_ms", "workload.gen_ms", "trace.layer_self_pct"},
			[]string{"trainer.iterations", "profiler.us_per_iteration", "loadgen.requests"}},
		{"serve",
			[]string{"engine.misses", "engine.hits", "serving.decide_calls", "serving.decide_ns_per_call", "serving.batches",
				"serving.self_ms", "serving.summary_ms", "workload.gen_ms"},
			[]string{"serving.route_calls", "serving.route_ns_per_call", "trainer.iterations"}},
		{"daemon",
			[]string{"engine.calls", "engine.hits", "engine.hit_ratio", "server.serve.handler_ms", "server.fleet.handler_ms",
				"server.plan.handler_ms", "loadgen.requests", "loadgen.achieved_rps", "runtime.gc_cycles", "trace.layer_self_pct"},
			[]string{"server.rejected", "server.engine_misses", "engine.misses", "loadgen.error_pct", "serving.route_calls"}},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			r, err := workloads[c.workload](smallOptions(t, c.workload))
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.notes)
			}
			r.wallClock()
			for _, name := range []string{"wallclock.wall_s", "wallclock.p50_ms", "wallclock.tail_ms"} {
				if !(r.layers[name] > 0) {
					t.Errorf("%s = %v, want > 0", name, r.layers[name])
				}
			}
			e2e := r.endToEndValues()
			for _, m := range endToEnd {
				if m.name != "peak_rss_mb" && !(e2e[m.name] > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", m.name, e2e[m.name])
				}
			}
			for _, name := range c.nonzero {
				if !(r.layers[name] > 0) {
					t.Errorf("%s = %v, want > 0", name, r.layers[name])
				}
			}
			for _, name := range c.zero {
				if r.layers[name] != 0 {
					t.Errorf("%s = %v, want 0", name, r.layers[name])
				}
			}
			known := make(map[string]bool)
			for _, m := range perLayer {
				known[m.name] = true
			}
			for name := range r.layers {
				if !known[name] {
					t.Errorf("workload reports %s, which BENCHMARK.json does not list", name)
				}
			}
		})
	}
}

// TestWrappersOnlyDelegate runs the same unit untraced and through the
// tracing wrappers of ProfileSource, FleetRouter and BatchPolicy; the
// outputs must be byte-identical.
func TestWrappersOnlyDelegate(t *testing.T) {
	for _, shape := range []simShape{fleetShape, serveShape} {
		w := newSimWorkload(shape, options{seed: 9, small: true})
		if err := w.setup(nil, nil); err != nil {
			t.Fatal(err)
		}
		plain, err := w.unit(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr, counts := newTracer(), &engineCounts{}
		if err := w.setup(tr, counts); err != nil {
			t.Fatal(err)
		}
		traced, err := w.unit(tr, counts)
		if err != nil {
			t.Fatal(err)
		}
		if plain != traced {
			t.Errorf("%s: traced digest %s, untraced %s", shape.name, traced, plain)
		}
		if tr.stat(layerDecide).Count == 0 || counts.hits == 0 {
			t.Errorf("%s: the wrappers recorded nothing", shape.name)
		}
	}

	w := &paperWorkload{seed: 2, small: true}
	if err := w.setup(nil, nil); err != nil {
		t.Fatal(err)
	}
	plain, err := w.unit(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, counts := newTracer(), &engineCounts{}
	traced, err := w.unit(tr, counts)
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Errorf("paper: traced digest %s, untraced %s", traced, plain)
	}
	if counts.misses == 0 {
		t.Error("paper: the profile-source wrapper recorded nothing")
	}
}

// TestPaperOrderDoesNotMatter: the seed only permutes the order the
// configurations are visited in, which must not move any output.
func TestPaperOrderDoesNotMatter(t *testing.T) {
	var digests []string
	for _, seed := range []int64{1, 2} {
		w := &paperWorkload{seed: seed, small: true}
		if err := w.setup(nil, nil); err != nil {
			t.Fatal(err)
		}
		d, err := w.unit(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	if digests[0] != digests[1] {
		t.Fatalf("config order changed the paper outputs: %s vs %s", digests[0], digests[1])
	}
}
