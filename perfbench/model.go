package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"agcm/internal/core"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/physics"
)

// measuredSteps is the step count each core.Run call measures; with the
// default two warmup steps a call integrates stepsPerCall steps.
const (
	measuredSteps = 1
	stepsPerCall  = 2 + measuredSteps
)

// The gated call times are statistics over the fastest tenth of the run's
// blocks of blockCalls consecutive calls (fastestBlocks).  On a shared
// 2-CPU host core.Run flips between speeds about 40% apart for seconds at
// a time, CPU time per call moving with wall time, so the median over all
// calls measured which speed a run happened to get.  The slow speed comes
// with running on two CPUs at once: with GOMAXPROCS=1 it is absent, and a
// loop with no cross-CPU traffic does not see it.  A block is about 0.4 s
// of calls.
const (
	blockCalls = 10
	fastShare  = 0.1
)

// modelMinCalls keeps the p90 of the fastest tenth's call times supported
// (minBeyond calls above it) however slow the host.
const modelMinCalls = 10 * 10 * minBeyond

// Set-up is timed in setupGroups groups of setupPerGroup cold processes,
// spread over the run, and taken over the fastest setupFastShare of the
// groups: a cold process is mostly one core.Run call and sees the same
// changes of host speed as the timed calls.
const (
	setupGroups    = 10
	setupPerGroup  = 4
	setupFastShare = 0.3
)

// modelConfig returns the core config of a model workload.  The seed moves
// the initial jet by less than 1 mm/s: the inputs differ between seeds
// while the shape of the work (grid, mesh, filter, message pattern) stays.
func modelConfig(workload string, seed int64) (core.Config, error) {
	var cfg core.Config
	switch workload {
	case "model-fft":
		cfg = core.Config{
			Spec: grid.TwoByTwoPointFive(9), Machine: machine.CrayT3D(),
			MeshPy: 8, MeshPx: 8,
			Filter:        core.FilterFFTBalanced,
			PhysicsScheme: physics.Pairwise, PhysicsRounds: 2,
		}
	case "model-conv":
		cfg = core.Config{
			Spec: grid.TwoByTwoPointFive(9), Machine: machine.Paragon(),
			MeshPy: 8, MeshPx: 30,
			Filter:        core.FilterConvolutionRing,
			PhysicsScheme: physics.None,
		}
	default:
		return cfg, fmt.Errorf("unknown model workload %q", workload)
	}
	cfg.InitWind = 20 + 1e-3*rand.New(rand.NewSource(seed)).Float64()
	return cfg, nil
}

// modelRun is the outcome of a timed loop of core.Run calls.
type modelRun struct {
	callMS []float64
	wall   time.Duration
	steps  int
	failed int
	rt     runtimeDelta
	traces []*modelTrace
}

// checker compares every report of a run with the run's first one, and the
// first with the digest recorded for the default seed.
type checker struct {
	want   string // digest every report must have; "" until the first
	pinned string // recorded digest for this seed, "" if none
	errs   []string
}

func (c *checker) check(rep *core.Report) bool {
	d := reportDigest(rep)
	if c.want == "" {
		c.want = d
		if c.pinned != "" && d != c.pinned {
			c.errs = append(c.errs, fmt.Sprintf("report digest %s differs from the recorded %s", d, c.pinned))
			return false
		}
		return true
	}
	if d != c.want {
		c.errs = append(c.errs, fmt.Sprintf("report digest %s differs from the run's first %s", d, c.want))
		return false
	}
	return true
}

// timeCalls runs core.Run (or the traced copy when traced) back to back
// for at least d and at least minCalls calls, giving up a minute past d.
func timeCalls(cfg core.Config, d time.Duration, minCalls int, traced bool, chk *checker) (*modelRun, error) {
	out := &modelRun{}
	rt := startRuntime()
	start := time.Now()
	for time.Since(start) < d || len(out.callMS) < minCalls {
		if time.Since(start) > d+time.Minute {
			return nil, fmt.Errorf("%d calls in %v, need %d", len(out.callMS), time.Since(start), minCalls)
		}
		t := time.Now()
		var rep *core.Report
		var err error
		if traced {
			tr := &modelTrace{}
			rep, err = tracedRun(context.Background(), cfg, measuredSteps, tr)
			out.traces = append(out.traces, tr)
		} else {
			rep, err = core.Run(cfg, measuredSteps)
		}
		out.callMS = append(out.callMS, float64(time.Since(t))/float64(time.Millisecond))
		out.steps += stepsPerCall
		if err != nil {
			out.failed++
			chk.errs = append(chk.errs, err.Error())
			continue
		}
		if !chk.check(rep) {
			out.failed++
		}
	}
	out.wall = time.Since(start)
	out.rt = rt.stop()
	return out, nil
}

// coldSetup runs n child processes, each of which starts cold, makes one
// core.Run call and exits, and appends their wall times (exec to exit) to
// secs.  Each child's report must match the run's digest.
func coldSetup(o options, chk *checker, out *outcome, n int, secs *[]float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-probe-setup", "-workload", o.workload,
			"-seed", strconv.FormatInt(o.seed, 10), "-workdir", o.workdir)
		cmd.Stderr = os.Stderr
		t := time.Now()
		outb, err := cmd.Output()
		*secs = append(*secs, time.Since(t).Seconds())
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		out.attempted++
		if d := strings.TrimSpace(string(outb)); d != chk.want {
			chk.errs = append(chk.errs, fmt.Sprintf("cold process report digest %s, want %s", d, chk.want))
			out.failed++
		}
	}
	return nil
}

// probeSetup is the child side of coldSetup: one cold core.Run, whose
// report digest goes to standard output.
func probeSetup(o options) error {
	cfg, err := modelConfig(o.workload, o.seed)
	if err != nil {
		return err
	}
	rep, err := core.Run(cfg, measuredSteps)
	if err != nil {
		return err
	}
	fmt.Println(reportDigest(rep))
	return nil
}

func runModel(o options, ref reference) (*outcome, error) {
	cfg, err := modelConfig(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	chk := &checker{}
	if o.seed == ref.DefaultSeed {
		chk.pinned = ref.Digests[o.workload]
	}
	out := newOutcome()
	// The first in-process call pins the digest the cold probes and every
	// timed call must reproduce.
	first, err := core.Run(cfg, measuredSteps)
	out.attempted++
	if err != nil {
		return nil, fmt.Errorf("first run: %w", err)
	}
	if !chk.check(first) {
		out.failed++
	}
	out.note("digest", 0, "", "report "+chk.want)

	if !o.trace {
		// The cold processes run in groups spread over the timed loop,
		// each group before one segment of it, so that set-up too can be
		// taken over the run's fastest stretches.
		var setup []float64
		run := &modelRun{}
		for g := 0; g < setupGroups; g++ {
			if err := coldSetup(o, chk, out, setupPerGroup, &setup); err != nil {
				return nil, err
			}
			seg, err := timeCalls(cfg, o.duration()/setupGroups, modelMinCalls/setupGroups, false, chk)
			if err != nil {
				return nil, err
			}
			run.callMS = append(run.callMS, seg.callMS...)
			run.wall += seg.wall
			run.steps += seg.steps
			run.failed += seg.failed
		}
		out.attempted += len(run.callMS)
		out.failed += run.failed
		allP50, err := percentile(run.callMS, 0.5)
		if err != nil {
			return nil, err
		}
		allP90, err := percentile(run.callMS, 0.9)
		if err != nil {
			return nil, err
		}
		fast := fastestBlocks(run.callMS, blockCalls, fastShare)
		p50, err := percentile(fast, 0.5)
		if err != nil {
			return nil, err
		}
		p90, err := percentile(fast, 0.9)
		if err != nil {
			return nil, err
		}
		setupS := median(fastestBlocks(setup, setupPerGroup, setupFastShare))
		sps := float64(run.steps) / run.wall.Seconds()
		out.note("setup_s", setupS, "s", fmt.Sprintf("median cold process, exec to exit, each making one core.Run call, over the fastest %d%% of %d groups of %d; all: %s",
			int(100*setupFastShare), setupGroups, setupPerGroup, spread(setup)))
		out.note("steps_per_s", sps, "1/s", fmt.Sprintf("%d steps (warmup included) in %d core.Run calls over %.2f s, GOMAXPROCS=%d",
			run.steps, len(run.callMS), run.wall.Seconds(), runtime.GOMAXPROCS(0)))
		out.note("run_p50_ms", allP50, "ms", fmt.Sprintf("n=%d calls", len(run.callMS)))
		out.note("run_p90_ms", allP90, "ms", fmt.Sprintf("n=%d calls", len(run.callMS)))
		out.note("latency_p50_ms", p50, "ms", fmt.Sprintf("median call of the fastest %d%% of %d-call blocks, n=%d calls", int(100*fastShare), blockCalls, len(fast)))
		out.note("latency_tail_ms", p90, "ms", fmt.Sprintf("p90 call of the same blocks, n=%d calls", len(fast)))
		out.metric("latency_p50_ms", p50)
		out.metric("latency_tail_ms", p90)
		out.metric("setup_s", setupS)
		out.metric("max_rss_mb", maxRSSMB())
		out.finish(chk.errs)
		return out, nil
	}

	// Traced run: half the time untraced (runtime counters, the baseline
	// for the tracing overhead), half through the traced copy.
	plain, err := timeCalls(cfg, o.duration()/2, 1, false, chk)
	if err != nil {
		return nil, err
	}
	traced, err := timeCalls(cfg, o.duration()/2, 1, true, chk)
	if err != nil {
		return nil, err
	}
	out.attempted += len(plain.callMS) + len(traced.callMS)
	out.failed += plain.failed + traced.failed
	plainSPS := float64(plain.steps) / plain.wall.Seconds()
	tracedSPS := float64(traced.steps) / traced.wall.Seconds()
	lm := modelLayers(traced.traces, out)
	calls := float64(len(plain.callMS))
	lm["comm.messages_per_step"] = first.MessagesPerStep
	lm["comm.bytes_per_step"] = first.BytesPerStep
	lm["sim.max_wait_share"] = first.MaxWaitShare
	lm["runtime.allocs_per_op"] = float64(plain.rt.mallocs) / calls
	lm["runtime.alloc_bytes_per_op"] = float64(plain.rt.allocBytes) / calls
	lm["runtime.gc_per_op"] = float64(plain.rt.gcs) / calls
	lm["runtime.cpu_util"] = plain.rt.cpuUtil()
	lm["trace.overhead_pct"] = 100 * (plainSPS/tracedSPS - 1)
	for name, v := range lm {
		out.metric(name, v)
	}
	out.note("traced", float64(len(traced.traces)), "calls",
		"per-rank wall spans include time a rank waits for other ranks and for a CPU: "+
			strconv.Itoa(first.Ranks)+" rank goroutines share GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	if traced.failed == 0 {
		out.note("fidelity", 1, "", "every traced report is bit-equal to core.Run's")
	} else {
		chk.errs = append(chk.errs, "fidelity: the traced copy's report differs from core.Run's")
	}
	if err := writeModelSpans(o, traced.traces); err != nil {
		return nil, err
	}
	out.finish(chk.errs)
	return out, nil
}

// modelLayers reduces traced runs to the per-layer metrics and notes the
// run tails' sample counts on out.  Per-step figures are mean per-rank wall
// milliseconds per step; the set-up and run figures are medians and tails
// over runs.
func modelLayers(traces []*modelTrace, out *outcome) map[string]float64 {
	var dynSelf, flt, dyn, phys int64
	rankSteps := 0
	var setupMS, runMS []float64
	for _, tr := range traces {
		var setups []interval
		for _, spans := range tr.ranks {
			var filters []interval
			for _, s := range spans {
				switch s.kind {
				case spanSetup:
					setups = append(setups, s.iv)
				case spanFilter:
					filters = append(filters, s.iv)
					flt += s.iv.end - s.iv.start
				case spanPhysics:
					phys += s.iv.end - s.iv.start
				}
			}
			for _, s := range spans {
				if s.kind == spanDynamics {
					dyn += s.iv.end - s.iv.start
					dynSelf += selfTime(s.iv, filters)
				}
			}
			rankSteps += tr.steps
		}
		setupMS = append(setupMS, ms(coverage(setups, tr.run.start, tr.run.end)))
		runMS = append(runMS, ms(tr.run.end-tr.run.start))
	}
	lm := map[string]float64{}
	if rankSteps == 0 {
		return lm
	}
	per := func(ns int64) float64 { return ms(ns) / float64(rankSteps) }
	lm["core.setup_ms"] = median(setupMS)
	for _, q := range []struct {
		name string
		p    float64
	}{{"core.run_p50_ms", 0.5}, {"core.run_p99_ms", 0.99}} {
		v, used, _ := tailPercentile(runMS, q.p)
		lm[q.name] = v
		out.note(q.name, v, "ms", fmt.Sprintf("p%.4g of %d traced runs", 100*used, len(runMS)))
	}
	lm["dynamics.self_ms_per_step"] = per(dynSelf)
	lm["filter.ms_per_step"] = per(flt)
	if dyn > 0 {
		lm["filter.share"] = float64(flt) / float64(dyn)
	}
	lm["physics.ms_per_step"] = per(phys)
	return lm
}
