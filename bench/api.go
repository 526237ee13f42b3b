package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powercap/internal/solver"
	"powercap/internal/stats"
)

const (
	apiEpochs  = 3
	apiClients = 2
	apiPace    = time.Millisecond
	// postEvery makes every hundredth request of the mix a budget write.
	postEvery = 100
)

// The read mix, in order: the cap view three times, health, metrics.
var apiMix = [...]struct {
	path string
	kind int
}{{"/v1/caps", 0}, {"/v1/caps", 0}, {"/v1/caps", 0}, {"/v1/health", 1}, {"/metrics", 2}}

// apiShared is what the clients of one epoch coordinate through.
type apiShared struct {
	stop     atomic.Bool
	requests atomic.Int64 // every request of either client, for postEvery
	posts    atomic.Int64 // budget writes issued so far
	bodies   [2][]byte    // the POST body per level: [0] LO, [1] HI
}

// postTarget says where budget write m goes and which level it carries
// (0 = LO, 1 = HI): writes sweep the nodes in order, and each full sweep
// moves the whole cluster to the other level, starting from HI.
func postTarget(m int64, n int) (node, level int) {
	return int(m % int64(n)), int(m / int64(n) % 2)
}

// apiClient is one closed-loop HTTP client with a keep-alive connection to
// every node. It times each request's full round trip, body included.
type apiClient struct {
	conns     []*httpConn
	getNs     []float64 // every GET's latency, for the exact median
	hist      [3]stats.LatencyHist
	bodyBytes [3]int
	done      int
	failed    int
	errs      []string
}

func newAPIClient(c *cluster) (*apiClient, error) {
	cl := &apiClient{getNs: make([]float64, 0, 1<<20)}
	for _, nd := range c.nodes {
		h, err := dialHTTP(nd.api.Addr())
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.conns = append(cl.conns, h)
	}
	return cl, nil
}

func (cl *apiClient) close() {
	for _, h := range cl.conns {
		h.close()
	}
}

func (cl *apiClient) fail(format string, args ...any) {
	cl.failed++
	if len(cl.errs) < 5 {
		cl.errs = append(cl.errs, fmt.Sprintf(format, args...))
	}
}

func (cl *apiClient) run(sh *apiShared) {
	n := len(cl.conns)
	for k := 0; !sh.stop.Load(); k++ {
		if sh.requests.Add(1)%postEvery == 0 {
			node, level := postTarget(sh.posts.Add(1)-1, n)
			status, _, err := cl.conns[node].post("/v1/budget", sh.bodies[level])
			if err != nil || status != 202 {
				cl.fail("POST /v1/budget to node %d: status %d, %v", node, status, err)
			}
			cl.done++
			continue
		}
		req := apiMix[k%len(apiMix)]
		node := k % n
		start := nanotime()
		status, body, err := cl.conns[node].get(req.path)
		ns := nanotime() - start
		cl.done++
		if err != nil || status != 200 || len(body) == 0 {
			cl.fail("GET %s from node %d: status %d, %d bytes, %v", req.path, node, status, len(body), err)
			continue
		}
		// Parsing every body would make the client the bottleneck; one in
		// a thousand keeps the encoders honest.
		if req.kind < 2 && cl.done%1000 == 0 && !json.Valid(body) {
			cl.fail("GET %s from node %d: body is not JSON", req.path, node)
		}
		cl.bodyBytes[req.kind] = len(body)
		cl.hist[req.kind].RecordNs(ns)
		if len(cl.getNs) < cap(cl.getNs) {
			cl.getNs = append(cl.getNs, float64(ns))
		}
	}
}

func runAPI12Mixed(o runOpts, r *report) {
	const name = "api12-mixed"
	const n = 12
	trc := newTracerIf(o.traced, false)
	levels := [2]float64{budgetLoPerNode * n, budgetHiPerNode * n}
	const lo, hi = 0, 1
	spec := clusterSpec{name: name, n: n, listen: true, pace: apiPace, budgetW: levels[hi]}

	var run agentRun
	var rps, getNs []float64
	var hist [3]stats.LatencyHist
	var bodyBytes [3]int
	httpErrors := 0
	for epoch := 0; epoch < apiEpochs; epoch++ {
		before := runtime.NumGoroutine()
		start := time.Now()
		us, err := ringUtilities(n, catalogOrder(), epochRNG(o.seed, epoch))
		if !r.op(err == nil, "%s: inputs: %v", name, err) {
			return
		}
		var want [2]float64
		for k, b := range levels {
			opt, err := solver.Optimal(us, b)
			if !r.op(err == nil, "%s: oracle: %v", name, err) {
				return
			}
			want[k] = 0.99 * opt.Utility
		}
		c, err := startCluster(spec, us, trc)
		if !r.op(err == nil, "%s: set-up: %v", name, err) {
			return
		}
		sh := &apiShared{bodies: [2][]byte{budgetBody(levels[lo]), budgetBody(levels[hi])}}
		var clients []*apiClient
		for k := 0; k < apiClients && err == nil; k++ {
			var cl *apiClient
			if cl, err = newAPIClient(c); err == nil {
				clients = append(clients, cl)
			}
		}
		if err == nil {
			err = c.waitSteady(levels[hi], want[hi], 10*time.Second)
		}
		r.op(err == nil, "%s: set-up: %v", name, err)
		setupS := time.Since(start).Seconds()

		w := c.beginWindow()
		var wg sync.WaitGroup
		for _, cl := range clients {
			wg.Add(1)
			go func(cl *apiClient) {
				defer wg.Done()
				cl.run(sh)
			}(cl)
		}
		holdWindow(c, w.startNs+int64(o.seconds/apiEpochs*1e9))
		sh.stop.Store(true)
		wg.Wait()
		c.endWindow(w)

		// Finish the sweep the clients were in, so that every node has been
		// written the same last value, let the cluster settle under it and
		// run the output checks against it.
		final := hi
		if m := sh.posts.Load(); m > 0 {
			_, final = postTarget(m-1, n)
			if m%n != 0 {
				op, err := newOperator(c, r, new(stepSamples), levels[final])
				r.op(err == nil, "%s: after the window: %v", name, err)
				for ; err == nil && m%n != 0; m++ {
					op.write(int(m%n), levels[final])
				}
				if err == nil {
					op.close()
				}
			}
		}
		err = c.waitSteady(levels[final], want[final], 10*time.Second)
		r.op(err == nil, "%s: after the window: %v", name, err)
		c.stop(w.rate())
		c.checkFinal(r, levels[final])
		run.addEpoch(c, w, setupS, 0.99*c.utilOver(want[final]))
		done := 0
		for _, cl := range clients {
			cl.close()
			done += cl.done
			r.merge(cl.done, cl.failed, cl.errs)
			httpErrors += cl.failed
			getNs = append(getNs, cl.getNs...)
			for k := range hist {
				hist[k].Merge(&cl.hist[k])
				if cl.bodyBytes[k] > 0 {
					bodyBytes[k] = cl.bodyBytes[k]
				}
			}
		}
		c.close()
		checkTornDown(r, name, c.listeners, before)
		rps = append(rps, float64(done)/w.seconds())
	}
	if trc != nil {
		run.agg.report(r, nil)
		r.set("ctlplane.get_caps_us_p50", histUs(&hist[0], 0.50))
		r.set("ctlplane.get_caps_us_p99", histUs(&hist[0], 0.99))
		r.set("ctlplane.get_health_us_p50", histUs(&hist[1], 0.50))
		r.set("ctlplane.get_metrics_us_p50", histUs(&hist[2], 0.50))
		r.set("ctlplane.get_metrics_us_p99", histUs(&hist[2], 0.99))
		r.note("ctlplane.get_caps_us_p50", "n=%d", hist[0].Count())
		r.set("ctlplane.body_bytes_caps", float64(bodyBytes[0]))
		r.set("ctlplane.body_bytes_metrics", float64(bodyBytes[2]))
		r.set("ctlplane.http_errors", float64(httpErrors))
		microCtlplane(r)
		finishTrace(trc, o, r, name)
		return
	}
	run.report(r)
	r.note("rounds_per_s", "paced at %v a round: the perturbation gauge", apiPace)
	// The request is the HTTP request: latency over every GET, rate over
	// everything the clients sent.
	get := summarize(getNs, 90)
	r.setTiming(get, 1e-6, "op_ms_p50", "op_ms_p90")
	r.setTiming(get, 1e-3, "api_get_p50_us", "")
	r.set("ops_per_s", median(rps))
	r.set("api_rps", median(rps))
	r.note("ops_per_s", "%d closed-loop clients, GETs and POSTs", apiClients)
}
