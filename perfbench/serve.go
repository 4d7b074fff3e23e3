package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"agcm/internal/gateway"
	"agcm/internal/server"
	"agcm/internal/workload"
)

const (
	// serveRate is the open-loop arrival rate in requests per second.
	serveRate = 100
	// clients is both the closed-loop client count and the generator's
	// connection limit: one per CPU of the reference host (nproc = 2).
	clients = 2
	// openShare of a phase's time is open loop, the rest closed loop.
	openShare = 0.75
	// closedRate sizes the closed loop's fixed amount of work: about the
	// requests the reference host serves in its share of the run.
	closedRate = 20000
	// setupBuilds is how many clusters the set-up time is the median of;
	// setupWarm untimed builds come first, because the first builds in a
	// fresh process are slower and vary more than the rest.
	setupBuilds = 80
	setupWarm   = 5
	// maxLagMS is the generator lateness (p99) beyond which a run is
	// invalid: its requests no longer arrive on the schedule.
	maxLagMS     = 20.0
	backendCount = 2
)

// serveSpec is the serve-cluster traffic: interactive and batch classes
// whose Zipf key pools are sized so that about a quarter of requests miss
// the cache in a run.
func serveSpec(seed int64, requests int) workload.Spec {
	return workload.Spec{
		Name:     "serve-cluster",
		Seed:     seed,
		Requests: requests,
		Arrival:  workload.Arrival{Process: "poisson", RatePerSec: serveRate},
		Classes: []workload.Class{{
			Name: "interactive", Weight: 3, Priority: "high", Steps: 1,
			Pool:     workload.Pool{Distinct: 1800, Zipf: 1.1},
			Template: workload.Template{Nlon: 36, Nlat: 24, Nlayers: 3, MeshPy: 1, MeshPx: 1},
		}, {
			Name: "batch", Weight: 1, Priority: "normal", Steps: 3,
			Pool:     workload.Pool{Distinct: 720, Zipf: 1.1},
			Template: workload.Template{Nlon: 72, Nlat: 46, Nlayers: 9, MeshPy: 2, MeshPx: 2},
		}},
	}
}

// cluster is an in-process gateway over backendCount agcmd backends, each
// with the disk tier in a fresh directory.
type cluster struct {
	dir      string
	backends []*server.Server
	servers  []*http.Server
	serving  sync.WaitGroup
	gw       *gateway.Gateway
	gwRT     *http.Transport
	url      string
}

// hooks are the traced run's wrappers; nil fields leave the shipped
// defaults in place.
type hooks struct {
	backendHandler func(i int, h http.Handler) http.Handler
	runner         func(i int) server.Runner
	transport      func(rt http.RoundTripper) http.RoundTripper
	gatewayHandler func(h http.Handler) http.Handler
}

func (c *cluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	c.servers = append(c.servers, srv)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// startCluster builds the cluster and returns once the gateway and every
// backend answer /readyz.
func startCluster(workdir string, hk hooks) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	tmp := filepath.Join(workdir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	if c.dir, err = os.MkdirTemp(tmp, "cluster-"); err != nil {
		return nil, err
	}
	var urls []string
	for i := 0; i < backendCount; i++ {
		opt := server.Options{CacheDir: filepath.Join(c.dir, fmt.Sprintf("disk%d", i))}
		if hk.runner != nil {
			opt.Runner = hk.runner(i)
		}
		b, err := server.New(opt)
		if err != nil {
			return nil, err
		}
		c.backends = append(c.backends, b)
		h := b.Handler()
		if hk.backendHandler != nil {
			h = hk.backendHandler(i, h)
		}
		u, err := c.listen(h)
		if err != nil {
			return nil, err
		}
		urls = append(urls, u)
	}
	// The gateway's own default transport, made here so the traced run
	// can wrap it and close can release its connections.
	c.gwRT = &http.Transport{MaxIdleConnsPerHost: 32}
	gopt := gateway.Options{Backends: urls}
	if hk.transport != nil {
		gopt.Transport = hk.transport(c.gwRT)
	} else {
		gopt.Transport = c.gwRT
	}
	if c.gw, err = gateway.New(gopt); err != nil {
		return nil, err
	}
	h := c.gw.Handler()
	if hk.gatewayHandler != nil {
		h = hk.gatewayHandler(h)
	}
	if c.url, err = c.listen(h); err != nil {
		return nil, err
	}
	for _, u := range append(urls, c.url) {
		if err := waitReady(u); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 10s: %v", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the listeners, the gateway and the backends, waits for
// their goroutines, and removes the disk tiers.
func (c *cluster) close() {
	for _, s := range c.servers {
		s.Close()
	}
	c.serving.Wait()
	if c.gw != nil {
		c.gw.Close()
	}
	if c.gwRT != nil {
		c.gwRT.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, b := range c.backends {
		b.Drain(ctx)
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// verifier checks that every 200 body for a job key is byte-identical
// across the run, parses, and carries the key.
type verifier struct {
	mu     sync.Mutex
	bodies map[string][32]byte
	errs   []string
}

func newVerifier() *verifier { return &verifier{bodies: map[string][32]byte{}} }

func (v *verifier) check(key string, body []byte) bool {
	sum := sha256.Sum256(body)
	v.mu.Lock()
	defer v.mu.Unlock()
	if prev, ok := v.bodies[key]; ok {
		if prev != sum {
			v.errs = append(v.errs, "body for key "+key[:12]+" changed within the run")
			return false
		}
		return true
	}
	var parsed struct {
		Key    string `json:"key"`
		Report struct {
			Ranks int `json:"ranks"`
		} `json:"report"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil || parsed.Key != key || parsed.Report.Ranks < 1 {
		v.errs = append(v.errs, fmt.Sprintf("body for key %s does not parse or carries another key (%v)", key[:12], err))
		return false
	}
	v.bodies[key] = sum
	return true
}

// job is one scheduled request with the key its body must carry.
type job struct {
	req workload.Request
	key string
}

// schedule generates the run's open-loop requests, arriving at serveRate.
func schedule(seed int64, open int) ([]job, error) {
	sched, err := workload.Generate(serveSpec(seed, open))
	if err != nil {
		return nil, err
	}
	classes := map[string]workload.Class{}
	for _, c := range sched.Spec.Classes {
		classes[c.Name] = c
	}
	keys := map[string]string{}
	jobs := make([]job, len(sched.Requests))
	for i, r := range sched.Requests {
		k, ok := keys[r.Key()]
		if !ok {
			cfg, err := classes[r.Class].Config(r.PoolIndex)
			if err != nil {
				return nil, err
			}
			if k, err = server.JobKeyFor(cfg, r.Steps); err != nil {
				return nil, err
			}
			keys[r.Key()] = k
		}
		jobs[i] = job{r, k}
	}
	return jobs, nil
}

// idHeader carries the benchmark's request id through the traced run.
const idHeader = "X-Perfbench-Id"

// response is the client's record of one request.
type response struct {
	class   string
	status  int
	cache   string
	latency time.Duration // open loop only: from when the request was due
	ok      bool          // 200 with a verified body
}

type loadClient struct {
	url    string
	http   *http.Client
	verify *verifier
	traced bool
}

func newLoadClient(url string, v *verifier, traced bool) *loadClient {
	rt := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &loadClient{url: url, http: &http.Client{Transport: rt, Timeout: time.Minute}, verify: v, traced: traced}
}

func (c *loadClient) close() { c.http.Transport.(*http.Transport).CloseIdleConnections() }

func (c *loadClient) do(j job, id int) response {
	out := response{class: j.req.Class}
	req, err := http.NewRequest(http.MethodPost, c.url+"/v1/run", bytes.NewReader([]byte(j.req.Body)))
	if err != nil {
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if c.traced {
		req.Header.Set(idHeader, strconv.Itoa(id))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.status, out.cache = resp.StatusCode, resp.Header.Get("X-Agcmd-Cache")
	out.ok = err == nil && resp.StatusCode == http.StatusOK && c.verify.check(j.key, body)
	return out
}

// openLoop sends each job when it is due, whatever is still in flight, and
// times it from when it was due.  It returns the responses and how late
// the generator handed each request over.
func openLoop(c *loadClient, jobs []job) ([]response, []float64) {
	resps := make([]response, len(jobs))
	lagMS := make([]float64, len(jobs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, j := range jobs {
		due := start.Add(time.Duration(j.req.AtUS) * time.Microsecond)
		time.Sleep(time.Until(due))
		lagMS[i] = float64(time.Since(due)) / float64(time.Millisecond)
		wg.Add(1)
		go func(i int, j job, due time.Time) {
			defer wg.Done()
			resps[i] = c.do(j, i)
			resps[i].latency = time.Since(due)
		}(i, j, due)
	}
	wg.Wait()
	return resps, lagMS
}

// closedLoop has clients back-to-back clients send n requests, cycling
// through jobs, and returns the responses and the phase's wall time.
// Replaying the open loop's requests, whose keys are all cached by then,
// makes the phase a fixed amount of work on the hit path.
func closedLoop(c *loadClient, jobs []job, n, firstID int) ([]response, time.Duration) {
	var next atomic.Int64
	per := make([][]response, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				per[k] = append(per[k], c.do(jobs[i%len(jobs)], firstID+i))
			}
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []response
	for _, p := range per {
		all = append(all, p...)
	}
	return all, wall
}

// phase is one open-then-closed pass over a fresh cluster.
type phase struct {
	open, closed []response
	lagMS        []float64
	closedWall   time.Duration
	rt           runtimeDelta
}

func runPhase(o options, jobs []job, closedN int, v *verifier, hk hooks, traced bool) (*phase, error) {
	c, err := startCluster(o.workdir, hk)
	if err != nil {
		return nil, err
	}
	defer c.close()
	cl := newLoadClient(c.url, v, traced)
	defer cl.close()
	p := &phase{}
	rt := startRuntime()
	p.open, p.lagMS = openLoop(cl, jobs)
	p.closed, p.closedWall = closedLoop(cl, jobs, closedN, len(jobs))
	p.rt = rt.stop()
	return p, nil
}

// phaseCounts splits a phase of d into its open-loop requests (openShare
// of d at serveRate) and its closed-loop requests (the rest of d at
// closedRate).
func phaseCounts(d time.Duration) (open, closed int) {
	return int(openShare * d.Seconds() * serveRate), int((1 - openShare) * d.Seconds() * closedRate)
}

// tally counts responses by cache disposition and outcome.
type tally struct {
	ok, failed                          int
	hit, miss, coalesced, diskHit, shed int
}

func tallyOf(rs []response) tally {
	var t tally
	for _, r := range rs {
		if r.ok {
			t.ok++
		} else {
			t.failed++
		}
		switch {
		case r.status == http.StatusTooManyRequests:
			t.shed++
		case r.cache == "hit":
			t.hit++
		case r.cache == "miss":
			t.miss++
		case r.cache == "coalesced":
			t.coalesced++
		case r.cache == "disk-hit":
			t.diskHit++
		}
	}
	return t
}

// hitRatio is the share of responses carrying a cache disposition that
// did not wait for a run of their own: memory hits, disk hits and
// coalesced waits, against those plus misses.
func (t tally) hitRatio() float64 {
	served := t.hit + t.diskHit + t.coalesced
	if served+t.miss == 0 {
		return 0
	}
	return float64(served) / float64(served+t.miss)
}

func latenciesMS(rs []response, class string) []float64 {
	var out []float64
	for _, r := range rs {
		if class == "" || r.class == class {
			out = append(out, float64(r.latency)/float64(time.Millisecond))
		}
	}
	return out
}

// warmBody asks for a config outside both key pools, so set-up never
// warms a key the schedule asks for.
const warmBody = `{"config":{"nlon":36,"nlat":24,"nlayers":3,"machine":"paragon","mesh_py":1,"mesh_px":1,"filter":"fft","init_wind":10},"steps":1}`

// timeSetup builds n clusters, each until ready and until it has answered
// one request end to end (a miss: run, encode, cache and disk put), closes
// them, and appends the times in seconds to secs.  A nil secs builds
// without keeping the times.
func timeSetup(o options, n int, secs *[]float64) error {
	for i := 0; i < n; i++ {
		t := time.Now()
		c, err := startCluster(o.workdir, hooks{})
		if err != nil {
			return err
		}
		err = warmUp(c.url)
		if secs != nil {
			*secs = append(*secs, time.Since(t).Seconds())
		}
		c.close()
		if err != nil {
			return err
		}
	}
	return nil
}

func warmUp(url string) error {
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader([]byte(warmBody)))
	if err != nil {
		return fmt.Errorf("set-up request: %w", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("set-up request: %w", err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Agcmd-Cache") != "miss" {
		return fmt.Errorf("set-up request: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Agcmd-Cache"))
	}
	return nil
}

func runServe(o options) (*outcome, error) {
	out := newOutcome()
	// Untraced runs time half the set-up builds before the phases and half
	// after, so the median spans the run rather than one moment.
	var setup []float64
	if !o.trace {
		if err := timeSetup(o, setupWarm, nil); err != nil {
			return nil, err
		}
		if err := timeSetup(o, setupBuilds/2, &setup); err != nil {
			return nil, err
		}
	}
	d := o.duration()
	if o.trace {
		d /= 2
	}
	openN, closedN := phaseCounts(d)
	jobs, err := schedule(o.seed, openN)
	if err != nil {
		return nil, err
	}
	v := newVerifier()
	plain, err := runPhase(o, jobs, closedN, v, hooks{}, false)
	if err != nil {
		return nil, err
	}
	t := tallyOf(plain.open)
	tc := tallyOf(plain.closed)
	out.attempted += len(plain.open) + len(plain.closed)
	out.failed += t.failed + tc.failed
	lag, lagP, _ := tailPercentile(plain.lagMS, 0.99)
	out.note("loadgen.lag_p99_ms", lag, "ms", fmt.Sprintf("p%.4g of %d open-loop sends", 100*lagP, len(plain.lagMS)))
	if lag > maxLagMS {
		// Requests no longer arrived on schedule: the run is invalid,
		// neither fast nor slow, so it reports no result.
		return nil, fmt.Errorf("run invalid: the generator ran %.1f ms late at p99 (limit %.0f ms)", lag, maxLagMS)
	}
	closedRPS := float64(tc.ok) / plain.closedWall.Seconds()
	all := latenciesMS(plain.open, "")
	out.note("requests", float64(len(plain.open)), "", fmt.Sprintf("open loop at %d/s: %d hit, %d miss, %d coalesced, %d disk-hit, %d shed; closed loop (%d clients): %d requests",
		serveRate, t.hit, t.miss, t.coalesced, t.diskHit, t.shed, clients, len(plain.closed)))

	if !o.trace {
		if err := timeSetup(o, setupBuilds-setupBuilds/2, &setup); err != nil {
			return nil, err
		}
		setupS := median(setup)
		out.note("setup_s", setupS, "s", fmt.Sprintf("median of %d builds of gateway + %d backends until ready and one request answered; %s", len(setup), backendCount, spread(setup)))
		p50, err := percentile(all, 0.5)
		if err != nil {
			return nil, err
		}
		p99, err := percentile(all, 0.99)
		if err != nil {
			return nil, err
		}
		out.note("latency_p50_ms", p50, "ms", fmt.Sprintf("open loop, n=%d, timed from when due", len(all)))
		out.note("latency_p99_ms", p99, "ms", fmt.Sprintf("open loop, n=%d", len(all)))
		out.note("closed_rps", closedRPS, "1/s", fmt.Sprintf("%d verified in %.2f s", tc.ok, plain.closedWall.Seconds()))
		out.metric("latency_p50_ms", p50)
		out.metric("latency_tail_ms", p99)
		out.metric("setup_s", setupS)
		out.metric("max_rss_mb", maxRSSMB())
		out.finish(v.errs)
		return out, nil
	}

	// Open-loop ids index jobs; closed-loop ids continue past them,
	// cycling through the same jobs.
	st := newServeTrace(func(id int) string { return jobs[id%len(jobs)].key })
	traced, err := runPhase(o, jobs, closedN, v, st.hooks(), true)
	if err != nil {
		return nil, err
	}
	tt := tallyOf(traced.open)
	ttc := tallyOf(traced.closed)
	out.attempted += len(traced.open) + len(traced.closed)
	out.failed += tt.failed + ttc.failed
	lm := st.layers(out)
	ops := float64(len(plain.open) + len(plain.closed))
	lm["runtime.allocs_per_op"] = float64(plain.rt.mallocs) / ops
	lm["runtime.alloc_bytes_per_op"] = float64(plain.rt.allocBytes) / ops
	lm["runtime.gc_per_op"] = float64(plain.rt.gcs) / ops
	lm["runtime.cpu_util"] = plain.rt.cpuUtil()
	lm["server.hit_ratio"] = t.hitRatio()
	lm["server.coalesced"] = float64(t.coalesced)
	lm["server.disk_hits"] = float64(t.diskHit)
	lm["server.shed"] = float64(t.shed)
	for _, class := range []string{"interactive", "batch"} {
		v, p, _ := tailPercentile(latenciesMS(plain.open, class), 0.99)
		lm["class."+class+".latency_p99_ms"] = v
		out.note("class."+class+".latency_p99_ms", v, "ms", fmt.Sprintf("p%.4g of the untraced open loop", 100*p))
	}
	lm["loadgen.lag_p99_ms"] = lag
	tracedRPS := float64(ttc.ok) / traced.closedWall.Seconds()
	lm["trace.overhead_pct"] = 100 * (closedRPS/tracedRPS - 1)
	for name, v := range lm {
		out.metric(name, v)
	}
	out.note("fidelity", 1, "", "traced bodies are checked byte-equal to the untraced phase's for every shared key")
	if err := st.write(o); err != nil {
		return nil, err
	}
	out.finish(v.errs)
	out.finish(st.errs)
	return out, nil
}
