package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"seqpoint"
)

// The daemon workload drives the HTTP service in a server process of
// its own (this binary, started with --serve-child) from an open-loop
// generator: seeded Poisson due times at a fixed offered rate, each
// request a seeded pick from a fixed catalog of /v1/serve, /v1/fleet
// and /v1/plan envelopes, sent over at most two keep-alive connections.
const (
	// daemonRate is the offered load in requests per second, 10% of the
	// 259 req/s closed-loop capacity over two connections on a 2-core
	// Xeon. Higher rates made the latency figures unsteady from run to
	// run (README.md).
	daemonRate = 25.0
	// daemonTimeout bounds one request; a request that outlives it
	// counts as failed.
	daemonTimeout = 10 * time.Second
	// daemonSetupReps is how many times a run starts and warms a server;
	// setup_s is the median.
	daemonSetupReps = 3
	usagePath       = "/bench/usage"
)

// envelope is one request of the catalog; weight is its share of the
// mix.
type envelope struct {
	name, path, body string
	weight           int
}

// catalog is the daemon workload's request mix: every request body the
// repository documents for /v1/serve, /v1/fleet and /v1/plan, copied
// verbatim, each sent equally often. The "fixture" bodies are the
// committed request fixtures of the HTTP API tests
// (internal/server/testdata/*_request.json); the "readme" bodies are the
// curl examples of README.md's serving, fleet, KV-cache and workload
// sections (its /v1/plan example is the plan fixture). There is no
// record of real traffic, so the weights are not measured: the mix
// follows the documentation, not a known user.
var catalog = []envelope{
	{"serve-fixture", "/v1/serve", `{"model":"gnmt","rate":300,"batch":8,"requests":32,"seed":7,"seqlens":[4,7,9,12]}`, 1},
	{"fleet-fixture", "/v1/fleet", `{"model":"gnmt","rate":300,"batch":8,"requests":32,"seed":7,"seqlens":[4,7,9,12],"replicas":2,"routing":"jsq","queue_cap":16}`, 1},
	{"plan-fixture", "/v1/plan", `{"model":"gnmt","rate":300,"batch":8,"requests":32,"seed":7,"seqlens":[4,7,9,12],"slo":{"latency_p99_us":400000,"min_throughput_rps":50},"max_replicas":4,"routings":["rr","jsq"]}`, 1},
	{"serve-readme", "/v1/serve", `{"model":"gnmt","rate":120,"batch":16,"policy":"dynamic","timeout_us":50000,"requests":512}`, 1},
	{"fleet-readme-autoscale", "/v1/fleet", `{"model":"gnmt","rate":400,"batch":16,"requests":512,"replicas":3,"routing":"jsq","queue_cap":128,"autoscale":{"min":1,"max":4,"up_depth":16,"cooldown_us":50000}}`, 1},
	{"fleet-readme-disagg", "/v1/fleet", `{"model":"gnmt","rate":400,"batch":16,"requests":512,"replicas":3,"kv_capacity_gb":0.5,"decode_steps":32,"disagg":{"prefill":1,"decode":2}}`, 1},
	{"fleet-readme-tenants", "/v1/fleet", `{"model":"gnmt","rate":120,"replicas":3,"policy":"wfq","pattern":"diurnal","tenants":[{"class":"chat","count":3,"weight":8,"zipf_s":1.1},{"class":"bulk","count":1,"burst":128}]}`, 1},
}

// arrival is one scheduled request: when it is due, relative to the
// start of the open loop, and which catalog envelope it sends.
type arrival struct {
	due time.Duration
	env int
}

// schedule draws n arrivals of a Poisson process conditioned on n
// arrivals in span (the first n of n+1 exponential gaps, scaled to
// span), and deals the envelopes to them from a shuffled deck holding
// each in proportion to its weight. Both come from seed. Fixing the
// count, the span and the mix keeps every seed's schedule the same
// amount of work; the seed moves only the order and the gaps.
func schedule(seed int64, n int, span time.Duration, envs []envelope) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var deck []int
	for i, e := range envs {
		for j := 0; j < e.weight; j++ {
			deck = append(deck, i)
		}
	}
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	out := make([]arrival, n)
	t := 0.0
	for i := range out {
		t += gaps[i]
		out[i] = arrival{due: time.Duration(t / total * float64(span)), env: deck[i%len(deck)]}
	}
	rng.Shuffle(n, func(i, j int) { out[i].env, out[j].env = out[j].env, out[i].env })
	return out
}

// outcome is what happened to one scheduled request. All times are
// offsets from the start of the open loop.
type outcome struct {
	dispatched time.Duration // the generator handed it to a connection
	sent       time.Duration // a connection started sending it
	done       time.Duration // its response was read in full
	status     int
	err        error
}

// openLoop sends every arrival at its due time, whatever happened to
// the earlier ones, over conns keep-alive connections. A due request
// waits for a free connection; that wait counts in its latency.
func openLoop(base string, envs []envelope, arrivals []arrival, conns int, check func(env int, body []byte) error) []outcome {
	out := make([]outcome, len(arrivals))
	// Sized to the number of sends, so the generator never blocks and
	// its lateness is its own timer's alone.
	jobs := make(chan int, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		client := &http.Client{
			Timeout:   daemonTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for i := range jobs {
				o := &out[i]
				e := envs[arrivals[i].env]
				o.sent = time.Since(start)
				resp, err := client.Post(base+e.path, "application/json", strings.NewReader(e.body))
				if err != nil {
					o.err, o.done = err, time.Since(start)
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				o.done, o.status = time.Since(start), resp.StatusCode
				switch {
				case err != nil:
					o.err = err
				case resp.StatusCode/100 != 2:
					o.err = fmt.Errorf("%s: HTTP %d: %s", e.name, resp.StatusCode, bytes.TrimSpace(body))
				default:
					o.err = check(arrivals[i].env, body)
				}
			}
		}()
	}
	for i, a := range arrivals {
		if d := time.Until(start.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		out[i].dispatched = time.Since(start)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// daemonProc is a running server process.
type daemonProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	base  string
}

// startDaemon starts the server process and waits until it listens.
func startDaemon() (*daemonProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--serve-child")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, stdin: stdin}
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("server did not report its address: %w", err)
	}
	d.base = "http://" + strings.TrimSpace(addr)
	return d, nil
}

// stop closes the server's stdin, which makes it shut down, and waits
// for it to exit.
func (d *daemonProc) stop() error {
	d.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		return <-done
	}
}

func (d *daemonProc) getJSON(path string, v any) error {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// procUsage is the server process's own resource counters.
type procUsage struct {
	CPUS      float64 `json:"cpu_s"`
	Alloc     uint64  `json:"alloc_bytes"`
	GCs       uint32  `json:"gc_cycles"`
	PauseNS   uint64  `json:"gc_pause_ns"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// serverCounters are the server's own observability counters.
type serverCounters struct {
	stats seqpoint.ServiceStats
	// handlerS and handled are the /metrics latency-histogram sum and
	// count per endpoint path.
	handlerS map[string]float64
	handled  map[string]float64
	rejected float64
}

func (d *daemonProc) counters() (serverCounters, error) {
	c := serverCounters{handlerS: make(map[string]float64), handled: make(map[string]float64)}
	if err := d.getJSON("/v1/stats", &c.stats); err != nil {
		return c, err
	}
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "seqpoint_request_duration_seconds_sum{"):
			c.handlerS[metricEndpoint(name)] = v
		case strings.HasPrefix(name, "seqpoint_request_duration_seconds_count{"):
			c.handled[metricEndpoint(name)] = v
		case name == "seqpoint_rejected_total":
			c.rejected = v
		}
	}
	return c, sc.Err()
}

// metricEndpoint extracts the endpoint label of a series name.
func metricEndpoint(series string) string {
	_, rest, _ := strings.Cut(series, `endpoint="`)
	path, _, _ := strings.Cut(rest, `"`)
	return path
}

// serveChildMain is the server process: the seqpoint HTTP service on
// a loopback port over a private engine, plus usagePath, which reports
// the process's own resource counters. It prints its address, serves
// until its stdin closes, then shuts down.
func serveChildMain(stdin io.Reader, stdout io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	svc := seqpoint.NewServer(seqpoint.ServerOptions{Engine: seqpoint.NewEngine()})
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != usagePath {
			svc.ServeHTTP(w, r)
			return
		}
		u := takeUsage()
		rss, err := peakRSSMB()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(procUsage{CPUS: u.cpuS, Alloc: u.alloc, GCs: u.gcs, PauseNS: u.pauseNS, PeakRSSMB: rss})
	})}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	if _, err := fmt.Fprintln(stdout, ln.Addr().String()); err != nil {
		hs.Close()
		return err
	}
	io.Copy(io.Discard, stdin)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-served; err != http.ErrServerClosed {
		return err
	}
	return nil
}

// daemonDigests sends every catalog envelope once to a fresh server
// and digests each response body.
func daemonDigests() (map[string]string, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	defer d.stop()
	out := make(map[string]string, len(catalog))
	for _, e := range catalog {
		body, err := post(d.base, e)
		if err != nil {
			return nil, err
		}
		out[e.name] = bytesDigest(body)
	}
	return out, nil
}

func post(base string, e envelope) ([]byte, error) {
	resp, err := http.Post(base+e.path, "application/json", strings.NewReader(e.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", e.name, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func runDaemon(o options) (*report, error) {
	r := newReport()
	check := func(env int, body []byte) error {
		if o.small {
			return nil
		}
		e := catalog[env]
		return checkDigest(e.name+" response", bytesDigest(body), recordedDigests.Daemon[e.name])
	}

	// Set-up starts the server and warms its cache with one request of
	// every envelope, whose responses are checked too. Its CPU time is
	// this process's plus the new server process's whole life so far.
	var d *daemonProc
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < daemonSetupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, fmt.Errorf("stop server: %w", err)
			}
			d = nil
		}
		start := cpuSeconds()
		var err error
		if d, err = startDaemon(); err != nil {
			return nil, err
		}
		for env, e := range catalog {
			body, err := post(d.base, e)
			if err == nil {
				err = check(env, body)
			}
			if i == daemonSetupReps-1 {
				r.attempted++
				if err != nil {
					r.fail(err)
				}
			} else if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		var u procUsage
		if err := d.getJSON(usagePath, &u); err != nil {
			return nil, err
		}
		r.setupCPUS = append(r.setupCPUS, cpuSeconds()-start+u.CPUS)
	}

	conns := runtime.NumCPU()
	if conns > 2 {
		conns = 2
	}
	span := time.Duration(o.seconds * float64(time.Second))
	n := int(math.Max(1, math.Round(daemonRate*o.seconds)))
	if o.small {
		n = int(math.Min(float64(n), 40))
	}
	arrivals := schedule(o.seed, n, span, catalog)

	// The open loop runs once. With tracing, the server's counters are
	// scraped around it, outside the timed requests, and every
	// request's timeline is kept.
	var before, after serverCounters
	var usage0, usage procUsage
	var err error
	if o.trace {
		if before, err = d.counters(); err != nil {
			return nil, err
		}
	}
	if err := d.getJSON(usagePath, &usage0); err != nil {
		return nil, err
	}
	outs := openLoop(d.base, catalog, arrivals, conns, check)
	if err := d.getJSON(usagePath, &usage); err != nil {
		return nil, err
	}
	if o.trace {
		if after, err = d.counters(); err != nil {
			return nil, err
		}
	}
	var last time.Duration
	ok := 0
	for i, out := range outs {
		r.unitS = append(r.unitS, (out.done - arrivals[i].due).Seconds())
		if out.done > last {
			last = out.done
		}
		r.attempted++
		if out.err != nil {
			r.fail(out.err)
			continue
		}
		ok++
	}
	r.wallS = (last - arrivals[0].due).Seconds()
	r.layers["loadgen.achieved_rps"] = float64(ok) / r.wallS
	r.cpuS = usage.CPUS - usage0.CPUS
	r.allocMB = float64(usage.Alloc-usage0.Alloc) / 1e6
	r.peakRSSMB = usage.PeakRSSMB
	r.note("open loop: %d requests at %.0f/s over %d connections, %d ok", n, daemonRate, conns, ok)

	if !o.trace {
		return r, nil
	}
	m := r.layers
	handlerS, handled := 0.0, 0.0
	for _, ep := range []string{"serve", "fleet", "plan"} {
		path := "/v1/" + ep
		ds, dn := after.handlerS[path]-before.handlerS[path], after.handled[path]-before.handled[path]
		m["server."+ep+".handler_ms"] = ratio(ds*1e3, dn)
		handlerS += ds
		handled += dn
	}
	eb, ea := before.stats.Engine, after.stats.Engine
	lookups := float64((ea.Hits - eb.Hits) + (ea.Misses - eb.Misses) + (ea.Dedups - eb.Dedups))
	m["engine.calls"] = lookups
	m["engine.hits"] = float64(ea.Hits - eb.Hits)
	m["engine.misses"] = float64(ea.Misses - eb.Misses)
	m["engine.dedups"] = float64(ea.Dedups - eb.Dedups)
	m["engine.hit_ratio"] = ratio(float64(ea.Hits-eb.Hits), lookups)
	m["server.engine_misses"] = float64(ea.Misses - eb.Misses)
	m["server.rejected"] = after.rejected - before.rejected

	waits, lags := make([]float64, len(outs)), make([]float64, len(outs))
	for i, out := range outs {
		waits[i] = (out.sent - arrivals[i].due).Seconds()
		lags[i] = (out.dispatched - arrivals[i].due).Seconds()
	}
	m["loadgen.requests"] = float64(len(outs))
	m["loadgen.wait_ms"] = mean(waits) * 1e3
	m["loadgen.lag_ms"] = mean(lags) * 1e3
	m["loadgen.error_pct"] = float64(len(outs)-ok) / float64(len(outs)) * 100
	m["runtime.gc_cycles"] = float64(usage.GCs - usage0.GCs)
	m["runtime.gc_pause_ms"] = float64(usage.PauseNS-usage0.PauseNS) / 1e6
	// The daemon's layer figures come from the server's own /metrics
	// and /v1/stats deltas, not from spans, so there is no tracing
	// overhead: trace.overhead_pct stays 0.
	//
	// A request's latency splits into its wait for a connection, the
	// server's handler time, and the remainder (HTTP and loopback).
	selfPct := (mean(waits) + ratio(handlerS, handled)) / mean(r.unitS) * 100
	m["trace.layer_self_pct"] = selfPct
	r.note("max generator lag %.2f ms", percentile(lags, 100)*1e3)
	r.note("connection wait plus handler time is %.1f%% of the mean request latency; the rest is HTTP and loopback", selfPct)

	type record struct {
		Envelope   string `json:"envelope"`
		DueNS      int64  `json:"due_ns"`
		Dispatched int64  `json:"dispatched_ns"`
		SentNS     int64  `json:"sent_ns"`
		DoneNS     int64  `json:"done_ns"`
		Status     int    `json:"status"`
	}
	recs := make([]record, len(outs))
	for i, out := range outs {
		recs[i] = record{catalog[arrivals[i].env].name, int64(arrivals[i].due), int64(out.dispatched), int64(out.sent), int64(out.done), out.status}
	}
	if err := writeJSON(o.traceOut, map[string]any{"requests": recs}); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	r.note("request timelines written to %s", o.traceOut)
	return r, nil
}
