package main

import "seqpoint"

// Layer names of the spans the benchmark records. Each names the repo
// module whose public functions the span encloses.
const (
	layerOp       = "bench.op" // one unit of measured work; its self time is benchmark glue
	layerSetup    = "bench.setup"
	layerEngine   = "engine"
	layerTrainer  = "trainer"
	layerProfiler = "profiler"
	layerSelect   = "core.select"
	layerProject  = "core.project"
	layerServing  = "serving"
	layerRoute    = "serving.route"
	layerDecide   = "serving.decide"
	layerSummary  = "serving.summary"
	layerWorkload = "workload"
)

// keepSpan reports whether a layer's spans are kept individually; the
// per-request routing and batching spans are only aggregated, since a
// fleet run enters them millions of times.
func keepSpan(layer string) bool { return layer != layerRoute && layer != layerDecide }

// engineCounts accumulates what the profile cache did for the calls
// made through a tracedSource.
type engineCounts struct {
	lookups      int64 // profile lookups: hits + misses + dedups
	hits         int64
	misses       int64
	dedups       int64
	busyNS       int64 // time inside ProfileSource calls
	missNS       int64 // time inside calls that computed at least one profile
	hitNS        int64 // time inside calls served entirely from the cache
	hitCallHits  int64 // lookups served by those all-hit calls
	missProfiles int64 // profiles computed by the miss calls
}

// tracedSource is a ProfileSource that only delegates to an engine. It
// records an engine span around each call and charges the call the
// engine's counter movement; the calls come from one goroutine, so the
// movement is the call's own.
type tracedSource struct {
	eng    *seqpoint.Engine
	tr     *tracer
	counts *engineCounts
}

func (s tracedSource) TrainProfiles(hw seqpoint.Config, cl seqpoint.ClusterConfig, m seqpoint.Model, batch int, seqLens []int) (map[int]seqpoint.IterationProfile, error) {
	return s.record(func() (map[int]seqpoint.IterationProfile, error) {
		return s.eng.TrainProfiles(hw, cl, m, batch, seqLens)
	})
}

func (s tracedSource) EvalProfiles(hw seqpoint.Config, cl seqpoint.ClusterConfig, m seqpoint.Model, batch int, seqLens []int) (map[int]seqpoint.IterationProfile, error) {
	return s.record(func() (map[int]seqpoint.IterationProfile, error) {
		return s.eng.EvalProfiles(hw, cl, m, batch, seqLens)
	})
}

func (s tracedSource) record(call func() (map[int]seqpoint.IterationProfile, error)) (map[int]seqpoint.IterationProfile, error) {
	before := s.eng.Stats()
	s.tr.begin(layerEngine)
	start := s.tr.now()
	out, err := call()
	dur := s.tr.now() - start
	s.tr.end()
	after := s.eng.Stats()

	c := s.counts
	hits, misses, dedups := after.Hits-before.Hits, after.Misses-before.Misses, after.Dedups-before.Dedups
	c.lookups += hits + misses + dedups
	c.hits += hits
	c.misses += misses
	c.dedups += dedups
	c.busyNS += dur
	if misses > 0 {
		c.missNS += dur
		c.missProfiles += misses
	} else {
		c.hitNS += dur
		c.hitCallHits += hits
	}
	return out, err
}

// tracedRouter is a FleetRouter that only delegates, recording a
// serving.route span per routing decision.
type tracedRouter struct {
	seqpoint.FleetRouter
	tr *tracer
}

func (r tracedRouter) Route(req seqpoint.ServingRequest, replicas []seqpoint.FleetReplicaView) int {
	r.tr.begin(layerRoute)
	id := r.FleetRouter.Route(req, replicas)
	r.tr.end()
	return id
}

// tracedPolicy is a BatchPolicy that only delegates, recording a
// serving.decide span per batching decision.
type tracedPolicy struct {
	seqpoint.BatchPolicy
	tr *tracer
}

func (p tracedPolicy) Decide(queue []seqpoint.ServingRequest, nowUS, nextArrivalUS float64) seqpoint.BatchDecision {
	p.tr.begin(layerDecide)
	d := p.BatchPolicy.Decide(queue, nowUS, nextArrivalUS)
	p.tr.end()
	return d
}
