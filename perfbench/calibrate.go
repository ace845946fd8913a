package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"seqpoint"
)

// calibrate measures the capacities the workloads' offered rates are
// set against and prints them. The rates themselves are constants of
// the benchmark: a run never calibrates, so every run offers the same
// load on every machine and commit.
func calibrate(w io.Writer) error {
	for _, sh := range []simShape{fleetShape, serveShape} {
		sw := newSimWorkload(sh, options{})
		if err := sw.setup(nil, nil); err != nil {
			return err
		}
		// A burst trace keeps every queue full, so throughput is the
		// capacity of the shape's batching and routing.
		burst, err := seqpoint.BurstTrace(sw.corpus, sh.requests/5, referenceSeed)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := sw.simulate(burst, sw.eng, nil); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: capacity %.0f req/s (burst of %d, %.2f s host); offered %.0f req/s = %.0f%%\n",
			sh.name, sw.throughputRPS, len(burst.Requests), time.Since(start).Seconds(), sh.rate, sh.rate/sw.throughputRPS*100)
	}

	d, err := startDaemon()
	if err != nil {
		return err
	}
	defer d.stop()
	for _, e := range catalog {
		var lat []float64
		for i := 0; i < 6; i++ {
			start := time.Now()
			if _, err := post(d.base, e); err != nil {
				return err
			}
			if i > 0 { // the first request warms the cache
				lat = append(lat, time.Since(start).Seconds())
			}
		}
		fmt.Fprintf(w, "daemon %s: warm median %.2f ms\n", e.name, median(lat)*1e3)
	}
	// Closed loop: every connection sends its next request as soon as
	// the previous one returns, so the achieved rate is the capacity.
	conns := runtime.NumCPU()
	if conns > 2 {
		conns = 2
	}
	arrivals := schedule(referenceSeed, 600, time.Second, catalog)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := 0
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(arrivals) {
					return
				}
				if _, err := post(d.base, catalog[arrivals[i].env]); err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	capacity := float64(len(arrivals)) / time.Since(start).Seconds()
	fmt.Fprintf(w, "daemon: closed-loop capacity %.1f req/s over %d connections; offered %.0f req/s = %.0f%%\n",
		capacity, conns, daemonRate, daemonRate/capacity*100)
	return nil
}
