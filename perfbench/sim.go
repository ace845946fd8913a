package main

import (
	"fmt"

	"seqpoint"
)

// simShape is one of the two simulator workloads. Both serve GNMT on
// config #1 from a warm engine, with request lengths drawn from the
// serving benchmarks' synthetic corpus.
type simShape struct {
	name     string
	requests int
	// rate is the offered load in requests per second of simulated
	// time. The capacities it is set against were measured with burst
	// traces on the engine-priced profile source (README.md).
	rate  float64
	fleet bool
	unitS float64 // nominal host time of one simulation
}

var (
	// fleetShape: 1M Poisson arrivals to 128 replicas behind least-
	// outstanding routing with dynamic(16, 2ms) batching, at 79% of the
	// fleet's 26,598 req/s capacity.
	fleetShape = simShape{name: "fleet", requests: 1_000_000, rate: 21_000, fleet: true, unitS: 4.0}
	// serveShape: 200k Poisson arrivals to one server with length-aware
	// batching of 16, at 84% of its 359 req/s capacity.
	serveShape = simShape{name: "serve", requests: 200_000, rate: 300, unitS: 0.16}
)

const (
	servingBatch   = 16
	fleetReplicas  = 128
	fleetTimeoutUS = 2_000
	// referenceSeed generates the reference traces whose summaries are
	// recorded in digests.json; a reference trace holds at most
	// referenceRequests requests, which keeps the check cheap.
	referenceSeed     = 20200408
	referenceRequests = 200_000
	// smallRequests is the trace length of the benchmark's own tests.
	smallRequests = 2_000
)

// servingCorpus is the serving benchmarks' synthetic length pool: 48
// distinct lengths in [4, 51].
func servingCorpus() (*seqpoint.Corpus, []int, error) {
	lengths := make([]int, 192)
	for i := range lengths {
		lengths[i] = 4 + (i*13)%48
	}
	c, err := seqpoint.Synthetic("bench", lengths, 1000)
	if err != nil {
		return nil, nil, err
	}
	uniq := make([]int, 48)
	for i := range uniq {
		uniq[i] = 4 + i
	}
	return c, uniq, nil
}

type simWorkload struct {
	shape    simShape
	seed     int64
	small    bool
	requests int

	model  seqpoint.Model
	corpus *seqpoint.Corpus
	eng    *seqpoint.Engine
	src    seqpoint.ProfileSource
	trace  seqpoint.ServingTrace

	// batches, meanBatch and throughputRPS describe the last simulation.
	batches       int
	meanBatch     float64
	throughputRPS float64
}

func newSimWorkload(shape simShape, o options) *simWorkload {
	w := &simWorkload{shape: shape, seed: o.seed, small: o.small, requests: shape.requests}
	if o.small {
		w.requests = smallRequests
	}
	return w
}

func (w *simWorkload) nominalUnitS() float64 { return w.shape.unitS }

// setup builds a fresh engine, prices every batch size the policy can
// form at every length of the corpus, and generates the seeded trace.
func (w *simWorkload) setup(tr *tracer, counts *engineCounts) error {
	corpus, sls, err := servingCorpus()
	if err != nil {
		return err
	}
	w.model, w.corpus = seqpoint.NewGNMT(), corpus
	w.eng = seqpoint.NewEngine()
	w.src = w.eng
	if tr != nil {
		w.src = tracedSource{eng: w.eng, tr: tr, counts: counts}
	}
	for b := 1; b <= servingBatch; b++ {
		if _, err := w.src.EvalProfiles(seqpoint.VegaFE(), seqpoint.SingleGPU(), w.model, b, sls); err != nil {
			return fmt.Errorf("warm batch %d: %w", b, err)
		}
	}
	tr.begin(layerWorkload)
	w.trace, err = seqpoint.PoissonTrace(w.corpus, w.requests, w.shape.rate, w.seed)
	tr.end()
	return err
}

func (w *simWorkload) unit(tr *tracer, _ *engineCounts) (string, error) {
	tr.begin(layerOp)
	defer tr.end()
	return w.simulate(w.trace, w.src, tr)
}

// simulate runs one simulation of trace, checks that every request was
// served, and returns the digest of the summary.
func (w *simWorkload) simulate(trace seqpoint.ServingTrace, src seqpoint.ProfileSource, tr *tracer) (string, error) {
	n := len(trace.Requests)
	if !w.shape.fleet {
		policy, err := seqpoint.NewLengthAware(servingBatch)
		if err != nil {
			return "", err
		}
		if tr != nil {
			policy = tracedPolicy{policy, tr}
		}
		tr.begin(layerServing)
		res, err := seqpoint.SimulateServing(seqpoint.ServingSpec{
			Model: w.model, Trace: trace, Policy: policy, Profiles: src,
		}, seqpoint.VegaFE())
		tr.end()
		if err != nil {
			return "", err
		}
		tr.begin(layerSummary)
		sum := res.Summary()
		tr.end()
		if sum.Requests != n {
			return "", fmt.Errorf("served %d of %d requests", sum.Requests, n)
		}
		w.batches, w.meanBatch, w.throughputRPS = sum.Batches, sum.MeanBatch, sum.ThroughputRPS
		return jsonDigest(sum)
	}

	policy, err := seqpoint.NewDynamicBatch(servingBatch, fleetTimeoutUS)
	if err != nil {
		return "", err
	}
	router := seqpoint.NewLeastOutstanding()
	if tr != nil {
		policy, router = tracedPolicy{policy, tr}, tracedRouter{router, tr}
	}
	tr.begin(layerServing)
	res, err := seqpoint.SimulateFleet(seqpoint.FleetSpec{
		Model: w.model, Trace: trace, Policy: policy, Router: router,
		Replicas: fleetReplicas, Profiles: src,
	}, seqpoint.VegaFE())
	tr.end()
	if err != nil {
		return "", err
	}
	tr.begin(layerSummary)
	sum := res.Summary()
	tr.end()
	if sum.Served != n || sum.Rejected != 0 {
		return "", fmt.Errorf("served %d and rejected %d of %d requests", sum.Served, sum.Rejected, n)
	}
	w.batches, w.meanBatch, w.throughputRPS = sum.Batches, sum.MeanBatch, sum.ThroughputRPS
	return jsonDigest(sum)
}

// referenceDigest simulates the reference-seed trace on the warm
// engine, untraced.
func (w *simWorkload) referenceDigest() (string, error) {
	if w.eng == nil {
		if err := w.setup(nil, nil); err != nil {
			return "", err
		}
	}
	n := min(w.requests, referenceRequests)
	trace, err := seqpoint.PoissonTrace(w.corpus, n, w.shape.rate, referenceSeed)
	if err != nil {
		return "", err
	}
	return w.simulate(trace, w.eng, nil)
}

func (w *simWorkload) reference() error {
	if w.small {
		return nil
	}
	got, err := w.referenceDigest()
	if err != nil {
		return err
	}
	want := recordedDigests.Serve
	if w.shape.fleet {
		want = recordedDigests.Fleet
	}
	return checkDigest(w.shape.name+" reference summary", got, want)
}

func (w *simWorkload) layers(tr *tracer, counts *engineCounts, n int, m map[string]float64) {
	engineLayers(counts, m)
	serving, route, decide := tr.stat(layerServing), tr.stat(layerRoute), tr.stat(layerDecide)
	requests := float64(n * w.requests)
	m["serving.route_calls"] = float64(route.Count)
	m["serving.route_ns_per_call"] = ratio(float64(route.TotalNS), float64(route.Count))
	m["serving.route_share_pct"] = ratio(float64(route.TotalNS), float64(serving.TotalNS)) * 100
	m["serving.decide_calls"] = float64(decide.Count)
	m["serving.decide_ns_per_call"] = ratio(float64(decide.TotalNS), float64(decide.Count))
	m["serving.batches"] = float64(n * w.batches)
	m["serving.mean_batch"] = w.meanBatch
	m["serving.self_ms"] = float64(serving.SelfNS) / 1e6
	m["serving.ns_per_request"] = ratio(float64(serving.TotalNS), requests)
	m["serving.summary_ms"] = float64(tr.stat(layerSummary).TotalNS) / 1e6
	m["workload.gen_ms"] = float64(tr.stat(layerWorkload).TotalNS) / 1e6
}
