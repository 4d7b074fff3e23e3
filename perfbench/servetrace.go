package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"agcm/internal/core"
	"agcm/internal/server"
)

// serveTrace records the traced serve-cluster phase's spans.  Spans of one
// request share the benchmark's request id: the load client sends it in
// idHeader, the gateway wrapper moves it into the request context (which
// the gateway passes to its transport), and the transport wrapper puts it
// back on the header each backend sees.  Runner spans carry no id; they
// are matched to their backend handler span by backend and job key.
type serveTrace struct {
	mu       sync.Mutex
	gateway  map[int]interval
	attempts map[int][]interval
	handlers []handlerSpan
	runs     []runSpan
	errs     []string
	// keyOf maps a request id to the job key its body asks for.
	keyOf func(id int) string
}

type handlerSpan struct {
	id, backend int
	cache       string
	iv          interval
}

// runSpan is one Runner call; its span is trace.run.
type runSpan struct {
	backend int
	key     string
	trace   *modelTrace
	report  *core.Report
}

func newServeTrace(keyOf func(int) string) *serveTrace {
	return &serveTrace{gateway: map[int]interval{}, attempts: map[int][]interval{}, keyOf: keyOf}
}

type idKey struct{}

func requestID(r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.Header.Get(idHeader))
	return id, err == nil
}

func (st *serveTrace) hooks() hooks {
	return hooks{
		backendHandler: st.backendHandler,
		runner:         st.runner,
		transport:      func(rt http.RoundTripper) http.RoundTripper { return tracedTransport{rt, st} },
		gatewayHandler: st.gatewayHandler,
	}
}

func (st *serveTrace) gatewayHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := requestID(r)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		s := now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), idKey{}, id)))
		iv := interval{s, now()}
		st.mu.Lock()
		st.gateway[id] = iv
		st.mu.Unlock()
	})
}

// tracedTransport times each proxied attempt from the gateway's
// RoundTrip to its Close of the response body.
type tracedTransport struct {
	inner http.RoundTripper
	st    *serveTrace
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := req.Context().Value(idKey{}).(int)
	if !ok {
		return t.inner.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(idHeader, strconv.Itoa(id))
	s := now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.st.attempt(id, interval{s, now()})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.st.attempt(id, interval{s, now()}) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

func (st *serveTrace) attempt(id int, iv interval) {
	st.mu.Lock()
	st.attempts[id] = append(st.attempts[id], iv)
	st.mu.Unlock()
}

func (st *serveTrace) backendHandler(i int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := requestID(r)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		s := now()
		h.ServeHTTP(w, r)
		iv := interval{s, now()}
		hs := handlerSpan{id: id, backend: i, cache: w.Header().Get("X-Agcmd-Cache"), iv: iv}
		st.mu.Lock()
		st.handlers = append(st.handlers, hs)
		st.mu.Unlock()
	})
}

// runner is the backend's Runner in the traced phase: the traced copy of
// core.RunContext, so the kernel layers are timed on this workload too.
func (st *serveTrace) runner(i int) server.Runner {
	return func(ctx context.Context, cfg core.Config, steps int) (*core.Report, error) {
		key, err := server.JobKeyFor(cfg, steps)
		if err != nil {
			return nil, err
		}
		tr := &modelTrace{}
		rep, err := tracedRun(ctx, cfg, steps, tr)
		st.mu.Lock()
		if err == nil {
			st.runs = append(st.runs, runSpan{backend: i, key: key, trace: tr, report: rep})
		} else {
			st.errs = append(st.errs, "traced runner: "+err.Error())
		}
		st.mu.Unlock()
		return rep, err
	}
}

// layers reduces the spans to the serving and kernel per-layer metrics and
// notes their sample counts on out.
func (st *serveTrace) layers(out *outcome) map[string]float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	lm := map[string]float64{}
	tail := func(name string, xs []float64, p float64, what string) {
		v, used, _ := tailPercentile(xs, p)
		lm[name] = v
		out.note(name, v, "ms", fmt.Sprintf("p%.4g of %d %s", 100*used, len(xs), what))
	}

	var hops []float64
	attempts := 0
	for id, g := range st.gateway {
		hops = append(hops, ms(selfTime(g, st.attempts[id])))
		attempts += len(st.attempts[id])
	}
	tail("gateway.hop_p50_ms", hops, 0.5, "gateway spans minus their attempt spans")
	tail("gateway.hop_p99_ms", hops, 0.99, "gateway spans minus their attempt spans")
	if len(st.gateway) > 0 {
		lm["gateway.attempts_per_request"] = float64(attempts) / float64(len(st.gateway))
	}

	type bk struct {
		backend int
		key     string
	}
	runsBy := map[bk][]runSpan{}
	var traces []*modelTrace
	var msgs, bts, wait float64
	for _, r := range st.runs {
		runsBy[bk{r.backend, r.key}] = append(runsBy[bk{r.backend, r.key}], r)
		traces = append(traces, r.trace)
		msgs += r.report.MessagesPerStep
		bts += r.report.BytesPerStep
		wait += r.report.MaxWaitShare
	}
	var hitMS, admitMS, postMS []float64
	unmatched := 0
	for _, h := range st.handlers {
		switch h.cache {
		case "hit":
			hitMS = append(hitMS, ms(h.iv.end-h.iv.start))
		case "miss":
			found := false
			for _, r := range runsBy[bk{h.backend, st.keyOf(h.id)}] {
				if run := r.trace.run; run.start >= h.iv.start && run.end <= h.iv.end {
					admitMS = append(admitMS, ms(run.start-h.iv.start))
					postMS = append(postMS, ms(h.iv.end-run.end))
					found = true
					break
				}
			}
			if !found {
				unmatched++
			}
		}
	}
	if unmatched > 0 {
		st.errs = append(st.errs, fmt.Sprintf("%d miss handler spans enclose no runner span", unmatched))
	}
	tail("server.hit_p50_ms", hitMS, 0.5, "backend handler spans on hits")
	tail("server.admit_p99_ms", admitMS, 0.99, "handler start to Runner start on misses")
	tail("server.post_run_p50_ms", postMS, 0.5, "Runner end to handler end on misses")

	for k, v := range modelLayers(traces, out) {
		lm[k] = v
	}
	if n := float64(len(st.runs)); n > 0 {
		lm["comm.messages_per_step"] = msgs / n
		lm["comm.bytes_per_step"] = bts / n
		lm["sim.max_wait_share"] = wait / n
	}
	return lm
}

// write puts every span on the trace file: per request the gateway span,
// its attempts and the backend handler spans; per run the Runner span and
// its ranks' kernel spans.
func (st *serveTrace) write(o options) error {
	sw, err := newSpanWriter(o)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for id, g := range st.gateway {
		sw.span(id, "gateway", "", g)
		for _, a := range st.attempts[id] {
			sw.span(id, "gateway.attempt", "gateway", a)
		}
	}
	for _, h := range st.handlers {
		sw.span(h.id, "server.handler", "gateway.attempt", h.iv,
			"backend", strconv.Itoa(h.backend), "cache", h.cache)
	}
	for i, r := range st.runs {
		sw.span(i, "server.runner", "server.handler", r.trace.run, "backend", strconv.Itoa(r.backend), "key", r.key)
		sw.rankSpans(i, "server.runner", r.trace)
	}
	return sw.close()
}
