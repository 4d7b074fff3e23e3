package main

import (
	"context"
	"math"
	"testing"

	"agcm/internal/core"
	"agcm/internal/grid"
	"agcm/internal/machine"
	"agcm/internal/physics"
	"agcm/internal/sim"
)

func sampleReport() *core.Report {
	return &core.Report{
		Ranks: 4, Steps: 1, Total: 87.9279138146372,
		MessagesPerStep: 7618, BytesPerStep: 7346280, MaxAbsH: 1.25,
		Raw: &sim.Result{Clocks: []float64{0.5, 0.25, 0.125, 1}},
	}
}

func TestDigestCheckRejectsOneFlippedBit(t *testing.T) {
	flips := map[string]func(r *core.Report){
		"Total":           func(r *core.Report) { r.Total = flip(r.Total) },
		"MessagesPerStep": func(r *core.Report) { r.MessagesPerStep = flip(r.MessagesPerStep) },
		"BytesPerStep":    func(r *core.Report) { r.BytesPerStep = flip(r.BytesPerStep) },
		"MaxAbsH":         func(r *core.Report) { r.MaxAbsH = flip(r.MaxAbsH) },
		"rank clock":      func(r *core.Report) { r.Raw.Clocks[2] = flip(r.Raw.Clocks[2]) },
	}
	for name, mutate := range flips {
		chk := &checker{}
		if !chk.check(sampleReport()) || !chk.check(sampleReport()) {
			t.Fatalf("%s: identical reports rejected: %v", name, chk.errs)
		}
		bad := sampleReport()
		mutate(bad)
		if chk.check(bad) {
			t.Errorf("%s: a report with one bit changed passed the check", name)
		}
		pinned := &checker{pinned: reportDigest(sampleReport())}
		if pinned.check(bad) {
			t.Errorf("%s: a report with one bit changed matched the recorded digest", name)
		}
	}
}

func flip(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }

// TestTracedRunMatchesCoreRun is the traced run's fidelity check on small
// configs that exercise each filter family and physics balancing.
func TestTracedRunMatchesCoreRun(t *testing.T) {
	spec := grid.Spec{Nlon: 36, Nlat: 24, Nlayers: 3}
	for _, cfg := range []core.Config{
		{Spec: spec, Machine: machine.CrayT3D(), MeshPy: 2, MeshPx: 2,
			Filter: core.FilterFFTBalanced, PhysicsScheme: physics.Pairwise, PhysicsRounds: 2},
		{Spec: spec, Machine: machine.Paragon(), MeshPy: 2, MeshPx: 3,
			Filter: core.FilterConvolutionRing, InitWind: 20.0005},
		{Spec: spec, Machine: machine.Paragon(), MeshPy: 1, MeshPx: 1},
	} {
		want, err := core.Run(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		tr := &modelTrace{}
		got, err := tracedRun(context.Background(), cfg, 2, tr)
		if err != nil {
			t.Fatal(err)
		}
		if reportDigest(got) != reportDigest(want) {
			t.Errorf("%v: traced report differs from core.Run's", cfg.Filter)
		}
		if got.FilterTime != want.FilterTime || got.PhysicsTime != want.PhysicsTime ||
			got.MaxWaitShare != want.MaxWaitShare || got.Dynamics != want.Dynamics {
			t.Errorf("%v: traced component times differ from core.Run's", cfg.Filter)
		}
		if len(tr.ranks) != cfg.MeshPy*cfg.MeshPx || tr.steps != 4 {
			t.Fatalf("trace has %d ranks and %d steps", len(tr.ranks), tr.steps)
		}
		lm := modelLayers([]*modelTrace{tr}, newOutcome())
		for _, k := range []string{"dynamics.self_ms_per_step", "physics.ms_per_step", "core.setup_ms"} {
			if lm[k] <= 0 {
				t.Errorf("%v: %s = %g, want > 0", cfg.Filter, k, lm[k])
			}
		}
		if share := lm["filter.share"]; share <= 0 || share >= 1 {
			t.Errorf("%v: filter.share = %g, want in (0, 1)", cfg.Filter, share)
		}
	}
}
