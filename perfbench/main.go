// Command perfbench is the repository's benchmark: one seeded run of one
// workload, with every output checked, printing the end-to-end metrics
// (-trace 0) or the per-layer metrics from a traced run (-trace 1) as the
// last line of standard output.
//
//	bash perfbench/run.sh -workload model-fft -seed 1 -seconds 20 -trace 0
//
// Workloads (reference.json records why each was chosen and which
// end-to-end metric each layer metric should move):
//
//   - model-fft: core.Run in process, the paper's adopted configuration
//     (2x2.5x9 grid, 8x8 Cray T3D, load-balanced FFT filter, pairwise
//     physics balancing).  The work is in the kernels.
//   - model-conv: core.Run on an 8x30 Paragon with the original
//     convolution-ring filter and no physics balancing (Figure 1's 240-node
//     row).  The work is in sim transport and the convolution.  It is not
//     in BENCHMARK.json: on a 2-CPU host core.Run flips between two speeds
//     for seconds at a time (reference.json says why), so its runs spread
//     wider than any allowed bound.
//   - serve-cluster: an in-process gateway over two agcmd backends with the
//     disk tier on, driven by a workload.Generate schedule, open loop then
//     closed loop.  The work is in the serving layers.
//
// The same metric names are printed for every workload; what they measure
// on each is listed in metrics.go.  A per-layer metric of a layer the
// workload never enters (the gateway on a model workload) reads 0.
//
// Timed runs use the shipped code with no wrappers.  A traced run spends
// half its time untraced (runtime counters, the baseline for the tracing
// overhead) and half with spans recorded from this package around the
// calls into each layer; the spans are written to
// <workdir>/traces/<workload>-seed<n>.jsonl.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

//go:embed reference.json
var referenceJSON []byte

// reference is the part of reference.json the benchmark acts on; the rest
// documents the workloads and the layer-to-end-to-end mapping.
type reference struct {
	DefaultSeed int64             `json:"default_seed"`
	Digests     map[string]string `json:"digests"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

func (o options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

func main() {
	var o options
	var traceFlag int
	var probe bool
	flag.StringVar(&o.workload, "workload", "", "model-fft, model-conv or serve-cluster")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced run and the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "directory for disk tiers and traces")
	flag.BoolVar(&probe, "probe-setup", false, "internal: one cold core.Run, then exit")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o, probe); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options, probe bool) error {
	if probe {
		return probeSetup(o)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	var out *outcome
	var err error
	switch o.workload {
	case "model-fft", "model-conv":
		out, err = runModel(o, ref)
	case "serve-cluster":
		out, err = runServe(o)
	default:
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return err
	}
	table := endToEnd
	if o.trace {
		table = perLayer
	}
	return out.print(os.Stdout, table)
}

// outcome collects one run's counts, metrics and human-readable notes.
type outcome struct {
	attempted, failed int
	errs              []string
	metrics           map[string]float64
	notes             []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) metric(name string, v float64) { o.metrics[name] = v }

// note records a line for the human-readable part of the output, under the
// names the workload's own documentation uses.
func (o *outcome) note(name string, v float64, unit, detail string) {
	o.notes = append(o.notes, fmt.Sprintf("%-32s %14.6g %-6s %s", name, v, unit, detail))
}

func (o *outcome) finish(errs []string) { o.errs = append(o.errs, errs...) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the notes, then the result object as the last line.
func (o *outcome) print(f *os.File, table []metricDef) error {
	w := bufio.NewWriter(f)
	for _, n := range o.notes {
		fmt.Fprintln(w, "#", n)
	}
	rate := 0.0
	if o.attempted > 0 {
		rate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "# %-32s %14.6g %-6s %d failed or wrong of %d attempted\n", "error_rate", rate, "ratio", o.failed, o.attempted)
	for _, e := range o.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	ms := make(map[string]metricValue, len(table))
	for _, d := range table {
		ms[d.name] = metricValue{o.metrics[d.name], d.unit}
	}
	res, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.failed == 0 && len(o.errs) == 0, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	w.Write(res)
	w.WriteByte('\n')
	return w.Flush()
}

// runtimeStart is a snapshot of the Go runtime's and the process's
// counters; stop turns it into a delta.
type runtimeStart struct {
	mem  runtime.MemStats
	cpu  time.Duration
	wall time.Time
}

type runtimeDelta struct {
	mallocs, allocBytes, gcs uint64
	cpu, wall                time.Duration
}

func startRuntime() runtimeStart {
	var s runtimeStart
	runtime.ReadMemStats(&s.mem)
	s.cpu = processCPU()
	s.wall = time.Now()
	return s
}

func (s runtimeStart) stop() runtimeDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeDelta{
		mallocs:    m.Mallocs - s.mem.Mallocs,
		allocBytes: m.TotalAlloc - s.mem.TotalAlloc,
		gcs:        uint64(m.NumGC - s.mem.NumGC),
		cpu:        processCPU() - s.cpu,
		wall:       time.Since(s.wall),
	}
}

// cpuUtil is process CPU time over wall time times GOMAXPROCS.
func (d runtimeDelta) cpuUtil() float64 {
	return d.cpu.Seconds() / (d.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is this process's peak resident set in MiB (child processes
// excluded).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// spanWriter writes spans as JSON lines to <workdir>/traces.
type spanWriter struct {
	f *os.File
	w *bufio.Writer
}

func newSpanWriter(o options) (*spanWriter, error) {
	dir := filepath.Join(o.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)))
	if err != nil {
		return nil, err
	}
	return &spanWriter{f: f, w: bufio.NewWriter(f)}, nil
}

// span writes one line: the request or run id, the span name, the
// parent's name ("" for a root), and its extent in ns since the start of
// the process.
func (s *spanWriter) span(id int, name, parent string, iv interval, attrs ...string) {
	fmt.Fprintf(s.w, `{"id":%d,"name":%q,"parent":%q,"start_ns":%d,"end_ns":%d`, id, name, parent, iv.start, iv.end)
	for i := 0; i+1 < len(attrs); i += 2 {
		fmt.Fprintf(s.w, ",%q:%q", attrs[i], attrs[i+1])
	}
	s.w.WriteString("}\n")
}

func (s *spanWriter) close() error {
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

var kindNames = [...]string{spanSetup: "core.setup", spanDynamics: "dynamics.Step", spanFilter: "filter.Apply", spanPhysics: "physics.Runner.Step"}

// rankSpans writes a traced run's kernel spans under the run span named
// parent.
func (s *spanWriter) rankSpans(id int, parent string, tr *modelTrace) {
	for r, spans := range tr.ranks {
		rank := strconv.Itoa(r)
		for _, sp := range spans {
			p := parent
			if sp.kind == spanFilter {
				p = kindNames[spanDynamics]
			}
			s.span(id, kindNames[sp.kind], p, sp.iv, "rank", rank)
		}
	}
}

func writeModelSpans(o options, traces []*modelTrace) error {
	sw, err := newSpanWriter(o)
	if err != nil {
		return err
	}
	for i, tr := range traces {
		sw.span(i, "core.run", "", tr.run)
		sw.rankSpans(i, "core.run", tr)
	}
	return sw.close()
}
