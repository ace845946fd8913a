package main

import (
	"fmt"
	"math"
	"time"
)

// A run sets a unit workload up at least setupReps times and until the
// set-ups have taken setupMinCPUS CPU seconds in all; setup_s is the
// median. The paper's set-up takes milliseconds, so the floor gives its
// median a few dozen samples.
const (
	setupReps    = 5
	setupMinCPUS = 0.25
)

// unitWorkload is a workload measured as a fixed number of identical
// units of work: one paper pipeline, one fleet simulation, one serving
// simulation.
type unitWorkload interface {
	// nominalUnitS is one unit's host time on a 2-core Xeon. A run does
	// --seconds / nominalUnitS units (at least one), so the measured
	// work depends on the run length alone, never on how fast the
	// machine or the code is.
	nominalUnitS() float64
	// setup builds the inputs and warms whatever the workload measures
	// warm. tr and counts are nil outside the traced pass.
	setup(tr *tracer, counts *engineCounts) error
	// unit runs one unit of work, checks its outputs and returns their
	// digest.
	unit(tr *tracer, counts *engineCounts) (digest string, err error)
	// reference runs the workload on its fixed reference input and
	// compares the outputs with the recorded digest.
	reference() error
	// layers adds the workload's per-layer metrics, derived from a
	// traced pass of n units, to m.
	layers(tr *tracer, counts *engineCounts, n int, m map[string]float64)
}

func unitsFor(seconds, nominal float64) int {
	return int(math.Max(1, math.Round(seconds/nominal)))
}

// runUnits measures a unit workload: set-up repetitions, an untraced
// pass of units that gives the end-to-end metrics, and with o.trace a
// traced pass of the same units that gives the per-layer metrics.
func runUnits(o options, w unitWorkload) (*report, error) {
	r := newReport()
	for total := 0.0; len(r.setupCPUS) < setupReps || total < setupMinCPUS; {
		start := cpuSeconds()
		if err := w.setup(nil, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setupCPUS = append(r.setupCPUS, cpuSeconds()-start)
		total += r.setupCPUS[len(r.setupCPUS)-1]
	}
	n := unitsFor(o.seconds, w.nominalUnitS())

	// pass runs the n units and checks that they agree: every unit
	// repeats the same input, so its outputs must repeat too.
	pass := func(tr *tracer, counts *engineCounts) (delta, string) {
		var want string
		start := takeUsage()
		for i := 0; i < n; i++ {
			u0 := time.Now()
			digest, err := w.unit(tr, counts)
			if tr == nil {
				r.unitS = append(r.unitS, time.Since(u0).Seconds())
			}
			r.attempted++
			if err == nil && want != "" && digest != want {
				err = fmt.Errorf("unit %d output digest %s differs from unit 0's %s", i, digest, want)
			}
			if err != nil {
				r.fail(err)
				continue
			}
			want = digest
		}
		return takeUsage().since(start), want
	}

	untraced, digest := pass(nil, nil)
	r.wallS, r.cpuS, r.allocMB = untraced.wallS, untraced.cpuS, untraced.allocMB
	r.note("measured %d units: %.3f s wall, %.3f s cpu, %.1f MB allocated, %d GC cycles",
		n, untraced.wallS, untraced.cpuS, untraced.allocMB, untraced.gcs)

	if o.trace {
		tr := newTracer()
		counts := &engineCounts{}
		tr.begin(layerSetup)
		err := w.setup(tr, counts)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		setupStats := tr.snapshot()
		traced, tracedDigest := pass(tr, counts)
		// The wrappers only delegate, so tracing must not change a
		// single output byte.
		r.attempted++
		if tracedDigest != digest {
			r.fail(fmt.Errorf("traced output digest %s differs from untraced %s", tracedDigest, digest))
		}
		w.layers(tr, counts, n, r.layers)
		overheadPct := (traced.wallS/untraced.wallS - 1) * 100
		selfPct := 0.0
		if opNS := tr.stat(layerOp).TotalNS; opNS > 0 {
			selfPct = float64(tr.selfSinceNS(setupStats, layerOp, layerSetup)) / float64(opNS) * 100
		}
		r.layers["runtime.gc_cycles"] = float64(untraced.gcs)
		r.layers["runtime.gc_pause_ms"] = untraced.gcPauseMS
		r.layers["trace.overhead_pct"] = overheadPct
		r.layers["trace.layer_self_pct"] = selfPct
		r.note("traced pass: %.3f s wall against %.3f s untraced (tracing overhead %+.1f%%); %.3f s CPU against %.3f s (%+.1f%%)",
			traced.wallS, untraced.wallS, overheadPct, traced.cpuS, untraced.cpuS, (traced.cpuS/untraced.cpuS-1)*100)
		r.note("layer self times sum to %.1f%% of the traced units' wall time; the rest is benchmark glue", selfPct)
		if err := tr.write(o.traceOut); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		r.note("spans written to %s", o.traceOut)
	}

	r.attempted++
	if err := w.reference(); err != nil {
		r.fail(fmt.Errorf("reference check: %w", err))
	}
	return r, nil
}
