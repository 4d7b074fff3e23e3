package main

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"

	"agcm/internal/core"
	"agcm/internal/server"
	"agcm/internal/sim"
)

// fakeRunner stands in for core.RunContext: an instant canned report.
func fakeRunner(runs *atomic.Int64) server.Runner {
	return func(ctx context.Context, cfg core.Config, steps int) (*core.Report, error) {
		runs.Add(1)
		return &core.Report{Ranks: cfg.MeshPy * cfg.MeshPx, Steps: steps, Total: cfg.InitWind,
			Raw: &sim.Result{Clocks: []float64{1}}}, nil
	}
}

func TestDispositionTallies(t *testing.T) {
	jobs, err := schedule(7, 40)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	c, err := startCluster(t.TempDir(), hooks{runner: func(int) server.Runner { return fakeRunner(&runs) }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	v := newVerifier()
	cl := newLoadClient(c.url, v, false)
	defer cl.close()

	var rs []response
	distinct := map[string]bool{}
	for i, j := range jobs {
		rs = append(rs, cl.do(j, i))
		distinct[j.key] = true
	}
	tl := tallyOf(rs)
	if tl.failed != 0 || tl.ok != len(jobs) {
		t.Fatalf("tally %+v, verifier errors %v", tl, v.errs)
	}
	// Requests are sequential, so each distinct key misses exactly once
	// and every repeat is a memory hit.
	if tl.miss != len(distinct) || tl.hit != len(jobs)-len(distinct) || tl.coalesced+tl.diskHit+tl.shed != 0 {
		t.Errorf("tally %+v for %d requests over %d keys", tl, len(jobs), len(distinct))
	}
	if int(runs.Load()) != tl.miss {
		t.Errorf("%d runs for %d misses", runs.Load(), tl.miss)
	}
	if want := float64(tl.hit) / float64(len(jobs)); tl.hitRatio() != want {
		t.Errorf("hit ratio %g, want %g", tl.hitRatio(), want)
	}
}

func TestTallyCountsEveryDisposition(t *testing.T) {
	rs := []response{
		{status: 200, cache: "hit", ok: true},
		{status: 200, cache: "disk-hit", ok: true},
		{status: 200, cache: "coalesced", ok: true},
		{status: 200, cache: "miss", ok: true},
		{status: 200, cache: "hit", ok: false}, // body failed verification
		{status: http.StatusTooManyRequests, cache: "miss"},
		{}, // transport error
	}
	tl := tallyOf(rs)
	want := tally{ok: 4, failed: 3, hit: 2, miss: 1, coalesced: 1, diskHit: 1, shed: 1}
	if tl != want {
		t.Errorf("tally = %+v, want %+v", tl, want)
	}
	if tl.hitRatio() != 0.8 {
		t.Errorf("hit ratio = %g, want 4 of the 5 with a disposition", tl.hitRatio())
	}
}

func TestVerifierRejectsChangedOrForeignBodies(t *testing.T) {
	key := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	body := []byte(`{"key":"` + key + `","report":{"ranks":4}}`)
	v := newVerifier()
	if !v.check(key, body) || !v.check(key, body) {
		t.Fatalf("identical bodies rejected: %v", v.errs)
	}
	changed := []byte(`{"key":"` + key + `","report":{"ranks":5}}`)
	if v.check(key, changed) {
		t.Errorf("a changed body passed")
	}
	other := "f" + key[1:]
	if v.check(other, body) {
		t.Errorf("a body carrying another key passed")
	}
	if v.check(other, []byte("not json")) {
		t.Errorf("an unparsable body passed")
	}
}

// TestTracedPhaseCorrelatesSpans runs a short traced phase and checks that
// every request's spans were joined: one attempt per gateway span, and every
// miss's handler span enclosing its Runner span.
func TestTracedPhaseCorrelatesSpans(t *testing.T) {
	jobs, err := schedule(7, 40)
	if err != nil {
		t.Fatal(err)
	}
	st := newServeTrace(func(id int) string { return jobs[id%len(jobs)].key })
	v := newVerifier()
	p, err := runPhase(options{workdir: t.TempDir()}, jobs, 40, v, st.hooks(), true)
	if err != nil {
		t.Fatal(err)
	}
	if tl := tallyOf(append(p.open, p.closed...)); tl.failed != 0 {
		t.Fatalf("tally %+v, verifier errors %v", tl, v.errs)
	}
	lm := st.layers(newOutcome())
	if len(st.errs) != 0 {
		t.Fatalf("span errors: %v", st.errs)
	}
	if got := lm["gateway.attempts_per_request"]; got != 1 {
		t.Errorf("attempts per request = %g, want 1", got)
	}
	if len(st.gateway) != 80 {
		t.Errorf("%d gateway spans for 80 requests", len(st.gateway))
	}
	for _, k := range []string{"gateway.hop_p50_ms", "server.hit_p50_ms", "dynamics.self_ms_per_step", "core.setup_ms"} {
		if lm[k] <= 0 {
			t.Errorf("%s = %g, want > 0", k, lm[k])
		}
	}
}
