package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seqpoint/internal/serving"
)

func TestFleetHandlerTable(t *testing.T) {
	s := testServer(Options{})
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantInBody string
	}{
		{
			name:       "fleet ok with defaults",
			body:       `{"model":"gnmt","rate":400,"batch":4,"requests":48,"seqlens":[4,7,9,12,15,21]}`,
			wantStatus: http.StatusOK,
			wantInBody: `"routing": "rr"`,
		},
		{
			name:       "jsq routing ok",
			body:       `{"model":"gnmt","rate":400,"batch":4,"requests":48,"replicas":3,"routing":"jsq","seqlens":[4,7,9,12]}`,
			wantStatus: http.StatusOK,
			wantInBody: `"replicas": 3`,
		},
		{
			name:       "po2 routing echoes its seed",
			body:       `{"model":"gnmt","rate":400,"batch":4,"requests":32,"routing":"po2","seed":9,"seqlens":[4,7,9]}`,
			wantStatus: http.StatusOK,
			wantInBody: `"routing": "po2(seed=9)"`,
		},
		{
			name:       "bounded queue reports drops",
			body:       `{"model":"gnmt","rate":100000,"batch":2,"requests":64,"replicas":2,"queue_cap":1,"seqlens":[40,70,90]}`,
			wantStatus: http.StatusOK,
			wantInBody: `"drop_rate_pct"`,
		},
		{
			name:       "autoscale ok",
			body:       `{"model":"gnmt","rate":2000,"batch":4,"requests":64,"replicas":1,"autoscale":{"max":4},"seqlens":[4,7,9,12]}`,
			wantStatus: http.StatusOK,
			wantInBody: `"peak_replicas"`,
		},
		{
			// Regression: an explicit down_depth of 0 means "never
			// scale down" (the simulator allows it) and must not be
			// swallowed by the default; same for cooldown_us 0.
			name:       "explicit zero autoscale fields honored",
			body:       `{"model":"gnmt","rate":3000,"batch":4,"requests":64,"replicas":1,"autoscale":{"max":3,"up_depth":2,"down_depth":0,"cooldown_us":0},"seqlens":[4,7,9,12]}`,
			wantStatus: http.StatusOK,
			wantInBody: `"scale_downs": 0`,
		},
		{
			name:       "unknown routing",
			body:       `{"model":"gnmt","rate":100,"routing":"random"}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "unknown routing",
		},
		{
			name:       "negative replicas",
			body:       `{"model":"gnmt","rate":100,"replicas":-2}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "replicas must be positive",
		},
		{
			name:       "replica limit",
			body:       `{"model":"gnmt","rate":100,"replicas":1000}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "replica limit",
		},
		{
			name:       "negative queue cap",
			body:       `{"model":"gnmt","rate":100,"queue_cap":-1}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "queue_cap",
		},
		{
			name:       "autoscale bounds exclude replicas",
			body:       `{"model":"gnmt","rate":100,"replicas":8,"autoscale":{"min":1,"max":4}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "outside autoscale bounds",
		},
		{
			name:       "autoscale depth order",
			body:       `{"model":"gnmt","rate":100,"replicas":2,"autoscale":{"max":4,"up_depth":1,"down_depth":3}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "down-depth",
		},
		{
			name:       "autoscale max over limit",
			body:       `{"model":"gnmt","rate":100,"autoscale":{"max":500}}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "replica limit",
		},
		{
			name:       "serve-level validation still applies",
			body:       `{"model":"gnmt","rate":-1,"replicas":2}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "rate must be in",
		},
		{
			name:       "unknown model",
			body:       `{"model":"bert","rate":100,"replicas":2}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "unknown model",
		},
		{
			name:       "unknown field rejected",
			body:       `{"model":"gnmt","rate":100,"router":"jsq"}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: "unknown field",
		},
		{
			// The replica-advancement knob was removed with the parallel
			// round loop; strict decoding names the retired field.
			name:       "retired parallelism field rejected",
			body:       `{"model":"gnmt","rate":100,"parallelism":2}`,
			wantStatus: http.StatusBadRequest,
			wantInBody: `unknown field \"parallelism\"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postJSON(t, s, "/v1/fleet", tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body %s", w.Code, tc.wantStatus, w.Body.String())
			}
			if !strings.Contains(w.Body.String(), tc.wantInBody) {
				t.Errorf("body %s missing %q", w.Body.String(), tc.wantInBody)
			}
		})
	}
}

func TestFleetGetMethodNotAllowed(t *testing.T) {
	s := testServer(Options{})
	req := httptest.NewRequest(http.MethodGet, "/v1/fleet", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/fleet = %d, want 405", w.Code)
	}
}

// TestFleetDeterministicAcrossRequests: the same fleet request —
// including po2's seeded routing — must produce byte-identical bodies
// on repeat.
func TestFleetDeterministicAcrossRequests(t *testing.T) {
	s := testServer(Options{})
	body := `{"model":"gnmt","rate":600,"batch":4,"requests":48,"replicas":3,"routing":"po2","queue_cap":8,"seqlens":[4,7,9,12,15,21]}`
	first := postJSON(t, s, "/v1/fleet", body)
	if first.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", first.Code, first.Body.String())
	}
	second := postJSON(t, s, "/v1/fleet", body)
	if first.Body.String() != second.Body.String() {
		t.Errorf("repeat fleet request differs:\n%s\nvs\n%s", first.Body.String(), second.Body.String())
	}
}

// TestFleetClientRoundTrip drives /v1/fleet through the typed client
// and checks the roll-up's fleet-level invariants.
func TestFleetClientRoundTrip(t *testing.T) {
	ts := httptest.NewServer(testServer(Options{}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	resp, err := c.Fleet(context.Background(), FleetRequest{
		WorkloadSpec: WorkloadSpec{
			Model:    "gnmt",
			Rate:     500,
			Batch:    4,
			Requests: 64,
			SeqLens:  []int{4, 7, 9, 12, 15},
		},
		Replicas: 3,
		Routing:  serving.RoutingJSQ,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Routing != serving.RoutingJSQ {
		t.Errorf("routing = %q, want jsq", resp.Routing)
	}
	sum := resp.Summary
	if sum.Replicas != 3 || len(sum.PerReplica) != 3 {
		t.Errorf("replicas = %d with %d per-replica rows, want 3/3", sum.Replicas, len(sum.PerReplica))
	}
	if sum.Served+sum.Rejected != 64 {
		t.Errorf("served %d + rejected %d != 64 requests", sum.Served, sum.Rejected)
	}
	var perReplica int
	for _, rs := range sum.PerReplica {
		perReplica += rs.Served
	}
	if perReplica != sum.Served {
		t.Errorf("per-replica served sums to %d, fleet served %d", perReplica, sum.Served)
	}
	if sum.ThroughputRPS <= 0 || sum.P99LatencyUS <= 0 {
		t.Errorf("degenerate roll-up: throughput %v, p99 %v", sum.ThroughputRPS, sum.P99LatencyUS)
	}

	// An invalid fleet field surfaces the server's message through the
	// typed error.
	_, err = c.Fleet(context.Background(), FleetRequest{
		WorkloadSpec: WorkloadSpec{Model: "gnmt", Rate: 100},
		Routing:      "random",
	})
	if err == nil || !strings.Contains(err.Error(), "unknown routing") {
		t.Errorf("error = %v, want the server's unknown-routing message", err)
	}
}
