package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"agcm/internal/comm"
	"agcm/internal/core"
	"agcm/internal/dynamics"
	"agcm/internal/filter"
	"agcm/internal/grid"
	"agcm/internal/physics"
	"agcm/internal/sim"
)

// epoch is the origin of every span timestamp.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

type spanKind uint8

const (
	spanSetup    spanKind = iota // per-rank construction and InitSolidBody
	spanDynamics                 // dynamics.Dynamics.Step, filter included
	spanFilter                   // filter.Parallel.Apply, nested in spanDynamics
	spanPhysics                  // physics.Runner.Step
)

type span struct {
	kind spanKind
	iv   interval
}

// modelTrace holds the spans of one traced model run.  Each rank goroutine
// appends only to its own slice, so recording takes no lock.
type modelTrace struct {
	run   interval
	steps int // steps each rank integrated, warmup included
	ranks [][]span
}

// timedFilter is the timing decorator the traced run hands to
// dynamics.New in place of the bare filter.
type timedFilter struct {
	inner filter.Parallel
	spans *[]span
}

func (t timedFilter) Name() string { return t.inner.Name() }

func (t timedFilter) Apply(vars []filter.Variable) {
	s := now()
	t.inner.Apply(vars)
	*t.spans = append(*t.spans, span{spanFilter, interval{s, now()}})
}

// tracedRun is the benchmark's own copy of core.RunContext's per-rank body
// and report reduction, built only from public constructors, with spans
// around the calls into each layer.  It supports the configs the
// benchmark's workloads use (no faults, topology, degraded rank, restart
// or checkpoints) and must reproduce core.Run's report bit for bit; the
// callers check that it does.
func tracedRun(ctx context.Context, cfg core.Config, measured int, tr *modelTrace) (*core.Report, error) {
	if cfg.Fault != nil || cfg.Topology != "" || cfg.Placement != "" || cfg.DegradeFactor != 0 ||
		cfg.InitialState != nil || cfg.CaptureState || cfg.CheckpointEvery != 0 || cfg.EventLog {
		return nil, fmt.Errorf("traced run: config uses a feature the copy does not mirror")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Dt == 0 {
		cfg.Dt = 0.8 * dynamics.CFLTimeStep(cfg.Spec, filter.Strong.CritLat())
	}
	if cfg.InitWind == 0 {
		cfg.InitWind = 20
	}
	switch {
	case cfg.WarmupSteps == 0:
		cfg.WarmupSteps = 2
	case cfg.WarmupSteps < 0:
		cfg.WarmupSteps = 0
	}
	if cfg.PhysicsRounds == 0 {
		cfg.PhysicsRounds = 2
	}
	d, err := grid.NewDecomp(cfg.Spec, cfg.MeshPy, cfg.MeshPx)
	if err != nil {
		return nil, err
	}
	ranks := cfg.MeshPy * cfg.MeshPx
	stepsPerDay := int(math.Ceil(86400 / cfg.Dt))
	categories := []string{"filter", "dynamics-fd", "dynamics-comm", "physics"}

	type snapshot struct {
		clock    float64
		accounts map[string]float64
		messages int64
		bytes    int64
		wait     float64
	}
	warm := make([]snapshot, ranks)
	maxAbsH := make([]float64, ranks)
	tr.ranks = make([][]span, ranks)
	tr.steps = cfg.WarmupSteps + measured

	tr.run.start = now()
	res, err := sim.New(ranks, cfg.Machine).RunContext(ctx, func(p *sim.Proc) error {
		s0 := now()
		world := comm.World(p)
		cart := comm.NewCart2D(world, cfg.MeshPy, cfg.MeshPx)
		local := grid.NewLocal(d, cart.MyRow, cart.MyCol)
		state := dynamics.NewState(local)
		dynamics.InitSolidBody(state, cfg.InitWind, 4)

		var flt filter.Parallel
		switch cfg.Filter {
		case core.FilterConvolutionRing:
			flt = filter.NewConvolution(cart, cfg.Spec, local, filter.Ring)
		case core.FilterConvolutionTree:
			flt = filter.NewConvolution(cart, cfg.Spec, local, filter.Tree)
		case core.FilterFFT:
			flt = filter.NewFFT(cart, cfg.Spec, local, false)
		case core.FilterFFTBalanced:
			flt = filter.NewFFT(cart, cfg.Spec, local, true)
		case core.FilterNone:
		case core.FilterPolarDiffusion:
			flt = filter.NewPolarDiffusion(cart, cfg.Spec, local)
		case core.FilterFFTRowwise:
			flt = filter.NewRowwiseFFT(cart, cfg.Spec, local)
		default:
			return fmt.Errorf("traced run: unknown filter variant %d", cfg.Filter)
		}
		spans := make([]span, 0, 1+3*tr.steps)
		if flt != nil {
			flt = timedFilter{inner: flt, spans: &spans}
		}
		dyn := dynamics.New(cart, cfg.Spec, local, cfg.Dt, flt)
		if cfg.VerticalDiffusion > 0 {
			dyn.SetVerticalDiffusion(cfg.VerticalDiffusion)
		}
		phys := physics.NewRunner(world, cart, local,
			physics.NewModel(cfg.Spec, stepsPerDay), cfg.PhysicsScheme, cfg.PhysicsRounds)
		spans = append(spans, span{spanSetup, interval{s0, now()}})

		step := func() {
			s := now()
			dyn.Step(state)
			spans = append(spans, span{spanDynamics, interval{s, now()}})
			p.Timed("physics", func() {
				s := now()
				phys.Step(state.T, state.Q, state.Steps-1)
				spans = append(spans, span{spanPhysics, interval{s, now()}})
			})
		}
		for n := 0; n < cfg.WarmupSteps; n++ {
			step()
		}
		snap := snapshot{
			clock:    p.Clock(),
			accounts: make(map[string]float64),
			messages: p.MessagesSent(),
			bytes:    p.BytesSent(),
			wait:     p.WaitSeconds(),
		}
		for _, cat := range categories {
			snap.accounts[cat] = p.Accounted(cat)
		}
		warm[world.Rank()] = snap
		for n := 0; n < measured; n++ {
			step()
		}
		maxAbsH[world.Rank()] = state.H.MaxAbs()
		tr.ranks[world.Rank()] = spans
		return nil
	})
	tr.run.end = now()
	if err != nil {
		return nil, err
	}

	scale := float64(stepsPerDay) / float64(measured)
	perRank := func(cat string) []float64 {
		out := make([]float64, ranks)
		acct := res.Accounts[cat]
		for r := 0; r < ranks && r < len(acct); r++ {
			out[r] = (acct[r] - warm[r].accounts[cat]) * scale
		}
		return out
	}
	maxOf := func(v []float64) float64 {
		m := 0.0
		for _, x := range v {
			m = math.Max(m, x)
		}
		return m
	}
	filterLoads := perRank("filter")
	fd := perRank("dynamics-fd")
	cm := perRank("dynamics-comm")
	physLoads := perRank("physics")
	dynLoads := make([]float64, ranks)
	totalLoads := make([]float64, ranks)
	var msgs, bts float64
	maxWaitShare := 0.0
	for r := 0; r < ranks; r++ {
		dynLoads[r] = filterLoads[r] + fd[r] + cm[r]
		totalLoads[r] = (res.Clocks[r] - warm[r].clock) * scale
		msgs += float64(res.MessagesSent[r] - warm[r].messages)
		bts += float64(res.BytesSent[r] - warm[r].bytes)
		if span := res.Clocks[r] - warm[r].clock; span > 0 {
			maxWaitShare = math.Max(maxWaitShare, (res.WaitSeconds[r]-warm[r].wait)/span)
		}
	}
	return &core.Report{
		Config:          cfg,
		Raw:             res,
		Ranks:           ranks,
		Steps:           measured,
		StepsPerDay:     stepsPerDay,
		MessagesPerStep: msgs / float64(measured),
		BytesPerStep:    bts / float64(measured),
		MaxWaitShare:    maxWaitShare,
		FilterTime:      maxOf(filterLoads),
		FDTime:          maxOf(fd),
		CommTime:        maxOf(cm),
		Dynamics:        maxOf(dynLoads),
		PhysicsTime:     maxOf(physLoads),
		Total:           maxOf(totalLoads),
		PhysicsLoads:    physLoads,
		FilterLoads:     filterLoads,
		MaxAbsH:         maxOf(maxAbsH),
	}, nil
}
