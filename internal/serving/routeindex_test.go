package serving

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"seqpoint/internal/dataset"
	"seqpoint/internal/gpusim"
	"seqpoint/internal/models"
)

// sliceRouter delegates to a bundled router. The fleet cannot see
// through the wrapper, so it serves the inner router on the slice path.
type sliceRouter struct{ Router }

// TestRouteIndexMatchesScan pins the tournament tree against the
// argmin routers' linear scan under random re-keying, eligibility
// flips and heavy key ties, at sizes on and off powers of two.
func TestRouteIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 7, 16, 100} {
		replicas := make([]fleetReplica, n)
		views := make([]ReplicaView, n)
		x := newRouteIndex(NewJSQ(), n)
		for step := 0; step < 2000; step++ {
			id := rng.Intn(n)
			r := &replicas[id]
			r.id = id
			r.queue = make([]Request, rng.Intn(5))
			views[id] = ReplicaView{ID: id, Live: true, HasRoom: rng.Intn(4) > 0, Queued: len(r.queue)}
			x.set(r, views[id].eligible())
			want := NewJSQ().Route(Request{}, views)
			if want < 0 {
				continue // no eligible replica: the fleet never picks
			}
			if got := x.pick(); got != want {
				t.Fatalf("n=%d step %d: index picked %d, scan picked %d", n, step, got, want)
			}
		}
	}
	for name, r := range map[string]Router{
		"rr": NewRoundRobin(), "po2": NewPowerOfTwo(1), "wrapped": sliceRouter{NewLeastOutstanding()},
	} {
		if newRouteIndex(r, 4) != nil {
			t.Errorf("%s router got a route index; only the bare argmin routers may", name)
		}
	}
}

// indexedScenario is one fleet shape the indexed and slice paths must
// agree on; check asserts the scenario exercised what it names.
type indexedScenario struct {
	name  string
	spec  func(t *testing.T) FleetSpec
	check func(t *testing.T, res *FleetResult)
}

func indexedTrace(t *testing.T, requests int, rate float64, seed int64) Trace {
	t.Helper()
	lengths := make([]int, 96)
	for i := range lengths {
		lengths[i] = 2 + (i*17)%40
	}
	corpus, err := dataset.Synthetic("idx", lengths, 1000)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := PoissonTrace(corpus, requests, rate, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func indexedScenarios() []indexedScenario {
	dyn := func(t *testing.T, max int, timeout float64) Policy {
		p, err := NewDynamicBatch(max, timeout)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	kv := func(preempt string) *KVConfig {
		return &KVConfig{CapacityBytes: 200_000, DecodeSteps: 6, BytesPerToken: 1000, Preempt: preempt}
	}
	return []indexedScenario{
		{
			name: "queue_cap",
			spec: func(t *testing.T) FleetSpec {
				return FleetSpec{Trace: indexedTrace(t, 500, 9000, 3), Policy: dyn(t, 4, 800), Replicas: 4, QueueCap: 3}
			},
			check: func(t *testing.T, res *FleetResult) {
				if len(res.Rejections) == 0 {
					t.Fatal("no rejections: the queue cap was never reached")
				}
			},
		},
		{
			name: "autoscale",
			spec: func(t *testing.T) FleetSpec {
				return FleetSpec{
					Trace: indexedTrace(t, 600, 3000, 4), Policy: dyn(t, 4, 600), Replicas: 1, QueueCap: 12,
					Autoscale: &AutoscaleConfig{Min: 1, Max: 6, UpDepth: 2, DownDepth: 0.5, CooldownUS: 400},
				}
			},
			check: func(t *testing.T, res *FleetResult) {
				if res.ScaleUps == 0 || res.ScaleDowns == 0 {
					t.Fatalf("scale ups %d, downs %d: the scaler never acted both ways", res.ScaleUps, res.ScaleDowns)
				}
			},
		},
		{
			name: "hetero",
			spec: func(t *testing.T) FleetSpec {
				return FleetSpec{
					Trace: indexedTrace(t, 500, 4000, 5), Policy: dyn(t, 6, 1000), Replicas: 4,
					Clusters: []gpusim.ClusterConfig{
						gpusim.DefaultCluster(1), gpusim.DefaultCluster(4),
						gpusim.DefaultCluster(2), gpusim.DefaultCluster(1),
					},
					Profiles: clusterStub{},
				}
			},
			check: func(t *testing.T, res *FleetResult) {
				if res.ReplicaStats[1].Served <= res.ReplicaStats[0].Served {
					t.Fatal("the 4-GPU replica served no more than the 1-GPU one")
				}
			},
		},
		{
			name: "kv_evict",
			spec: func(t *testing.T) FleetSpec {
				return FleetSpec{Trace: indexedTrace(t, 500, 5000, 6), Policy: dyn(t, 8, 800), Replicas: 3, QueueCap: 10, KV: kv(PreemptEvict)}
			},
			check: func(t *testing.T, res *FleetResult) {
				if res.KV.Preemptions == 0 {
					t.Fatal("no evictions")
				}
			},
		},
		{
			name: "kv_block",
			spec: func(t *testing.T) FleetSpec {
				return FleetSpec{Trace: indexedTrace(t, 500, 5000, 7), Policy: dyn(t, 8, 800), Replicas: 3, KV: kv(PreemptBlock)}
			},
			check: func(t *testing.T, res *FleetResult) {
				if res.KV.Preemptions == 0 {
					t.Fatal("no blocked waves")
				}
			},
		},
		{
			name: "disagg",
			spec: func(t *testing.T) FleetSpec {
				return FleetSpec{
					Trace: indexedTrace(t, 400, 4000, 8), Policy: dyn(t, 4, 500), Replicas: 5, QueueCap: 8,
					KV: kv(PreemptEvict), Disagg: &DisaggConfig{PrefillReplicas: 2, DecodeReplicas: 3},
				}
			},
			check: func(t *testing.T, res *FleetResult) {
				if res.Disagg == "" {
					t.Fatal("not a disaggregated run")
				}
			},
		},
	}
}

// TestIndexedRoutingMatchesSlicePath runs each bundled argmin router
// bare (served from the route index) and wrapped in a delegating
// router (served on the slice path) over every fleet shape that
// changes replica eligibility or load: bounded queues with rejections,
// autoscaling, heterogeneous clusters, KV evict and block preemption,
// and disaggregated pools. Both paths must produce the same bytes.
func TestIndexedRoutingMatchesSlicePath(t *testing.T) {
	routers := map[string]func() Router{
		RoutingLeastOutstanding: NewLeastOutstanding,
		RoutingJSQ:              NewJSQ,
		RoutingKV:               NewKVRouter,
	}
	for _, sc := range indexedScenarios() {
		spec := sc.spec(t)
		spec.Model = models.NewGNMT()
		if spec.Profiles == nil {
			spec.Profiles = &stubSource{}
		}
		names := []string{RoutingLeastOutstanding, RoutingJSQ}
		if spec.KV != nil {
			names = append(names, RoutingKV) // kv routing needs the KV model
		}
		for _, name := range names {
			sc, newRouter := sc, routers[name]
			t.Run(sc.name+"/"+name, func(t *testing.T) {
				run := func(r Router) *FleetResult {
					s := spec
					s.Router = r
					res, err := SimulateFleet(s, gpusim.VegaFE())
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				bare, wrapped := run(newRouter()), run(sliceRouter{newRouter()})
				sc.check(t, bare)
				assertSameFleetRun(t, bare, wrapped)
			})
		}
	}
}

// assertSameFleetRun fails unless two runs agree on the serialized
// summary, every per-request metric and every rejection.
func assertSameFleetRun(t *testing.T, want, got *FleetResult) {
	t.Helper()
	wantB, err := want.Summary().Serialize()
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := got.Summary().Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantB, gotB) {
		t.Fatalf("summaries differ:\n%s\nvs\n%s", wantB, gotB)
	}
	if !reflect.DeepEqual(want.Requests, got.Requests) {
		t.Fatal("per-request metrics differ")
	}
	if !reflect.DeepEqual(want.Rejections, got.Rejections) {
		t.Fatal("rejections differ")
	}
}

// forgingRouter writes into the slice it is handed: it marks a full
// replica as having room and picks it, a contract violation a check
// reading the slice would wave through.
type forgingRouter struct{}

func (forgingRouter) Name() string { return "forger" }

func (forgingRouter) Route(req Request, replicas []ReplicaView) int {
	for i := range replicas {
		if replicas[i].Live && !replicas[i].HasRoom {
			replicas[i].HasRoom = true
			return replicas[i].ID
		}
	}
	return NewJSQ().Route(req, replicas)
}

// scribblingRouter picks with JSQ, then overwrites every view so later
// calls see only what the fleet has re-synced since.
type scribblingRouter struct{}

func (scribblingRouter) Name() string { return "scribbler" }

func (scribblingRouter) Route(req Request, replicas []ReplicaView) int {
	id := NewJSQ().Route(req, replicas)
	for i := range replicas {
		replicas[i] = ReplicaView{ID: -7, Queued: math.MaxInt32, KVBytes: -1}
	}
	return id
}

// TestRouterSliceMutationCannotSkewFleet holds the Router contract's
// other side: the slice is the router's read-only input, and the fleet
// never trusts it. A router that forges a full replica's room fails
// with ErrBadRoute instead of overfilling the queue; one that scribbles
// over the views either completes with conserved bookkeeping or fails
// with ErrBadRoute — never a corrupted count.
func TestRouterSliceMutationCannotSkewFleet(t *testing.T) {
	run := func(r Router) (*FleetResult, error) {
		dyn, _ := NewDynamicBatch(4, 800)
		return SimulateFleet(FleetSpec{
			Model: models.NewGNMT(), Trace: indexedTrace(t, 400, 9000, 9),
			Policy: dyn, Router: r, Replicas: 4, QueueCap: 3, Profiles: &stubSource{},
		}, gpusim.VegaFE())
	}
	if _, err := run(forgingRouter{}); !errors.Is(err, ErrBadRoute) {
		t.Fatalf("forged room: error = %v, want ErrBadRoute", err)
	}

	res, err := run(scribblingRouter{})
	if err != nil {
		if !errors.Is(err, ErrBadRoute) {
			t.Fatalf("scribbled views: error = %v, want nil or ErrBadRoute", err)
		}
		return
	}
	if got := len(res.Requests) + len(res.Rejections); got != 400 {
		t.Fatalf("served %d + rejected %d != 400 arrivals", len(res.Requests), len(res.Rejections))
	}
	served := 0
	for _, rs := range res.ReplicaStats {
		served += rs.Served
	}
	if served != len(res.Requests) {
		t.Fatalf("replica served sum %d != fleet served %d", served, len(res.Requests))
	}
	for _, rej := range res.Rejections {
		if rej.Reason != RejectReasonQueueFull {
			t.Fatalf("rejection reason %q", rej.Reason)
		}
	}
}
