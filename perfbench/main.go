// Command perfbench is the FIFL round benchmark. One invocation runs one
// named workload from a single process, checks its outputs and prints every
// metric by name with its unit and sample count; the last line of standard
// output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With -trace 1 the workload runs twice — untraced, then traced — and
// the metrics are the per-layer ones: stage times from the coordinator's
// WithStageTrace hook, counters from the engines' MetricsRegistry
// snapshots, and spans the benchmark records around its own calls into
// each module. The spans are written to <out>/trace-<workload>-<seed>.json
// and every result, tagged with the machine it ran on, to
// <out>/result-<workload>-<seed>-trace<k>.json. -compare a.json b.json
// prints two saved results side by side and flags results from different
// machines.
//
// Build and run it through run.sh from the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one named benchmark configuration. run executes it once; tr
// is nil on an untraced pass. full=false skips the end-of-run phases
// (checkpoint, resume, audit) that only the measured pass needs.
type workload struct {
	name string
	run  func(ctx context.Context, p params, tr *tracer, full bool) (*result, error)
}

var workloads = []workload{
	{"ledger-long", runLedgerLong},
	{"sharded-wide", runShardedWide},
	{"async-wide", runAsyncWide},
	{"loopback-train", runLoopbackTrain},
}

// params are the command-line inputs every workload receives.
type params struct {
	seed    uint64
	seconds int
	outDir  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Int("seconds", 10, "run length; the round count of each workload scales with it")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench-out", "directory for spans and saved results")
	compare := fs.Bool("compare", false, "compare two saved result files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two result files")
			return 2
		}
		if err := compareResults(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	// Collections run only where the benchmark forces them, between timed
	// intervals (see roundSampler); with the pacer off, the runtime also
	// stops returning freed pages to the OS in the background, which would
	// otherwise make allocations inside a timed interval fault them back in.
	debug.SetGCPercent(-1)
	p := params{seed: *seed, seconds: *seconds, outDir: *out}
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	m := currentMachine()
	fmt.Fprintf(stdout, "machine: cpu=%q nproc=%d gomaxprocs=%d go=%s\n", m.CPU, m.NProc, m.GOMAXPROCS, m.GoVersion)

	ctx := context.Background()
	var res *result
	var err error
	if *traced == 0 {
		res, err = w.run(ctx, p, nil, true)
	} else {
		res, err = tracedRun(ctx, w, p, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, c := range res.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(stdout, "check %-32s %s  %s\n", c.name, status, c.detail)
	}
	keep := endToEnd
	if *traced == 1 {
		keep = perLayer
	}
	res.print(stdout)
	saved := savedResult{Workload: w.name, Seed: p.seed, Seconds: p.seconds, Trace: *traced, Machine: m,
		Correct: res.correct(), Metrics: res.metrics}
	path := filepath.Join(p.outDir, fmt.Sprintf("result-%s-%d-trace%d.json", w.name, p.seed, *traced))
	if err := writeJSON(path, saved); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := res.finalLine(keep, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.correct() {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// tracedRun runs the workload untraced and then traced, reports the traced
// pass's per-layer metrics, and adds the tracing overhead: traced minus
// untraced median round latency.
func tracedRun(ctx context.Context, w *workload, p params, stdout io.Writer) (*result, error) {
	plain, err := w.run(ctx, p, nil, false)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	tr := newTracer()
	res, err := w.run(ctx, p, tr, true)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	base := plain.metrics["round_ms_p50"]
	res.add("trace.overhead_ms", res.metrics["round_ms_p50"].Value-base.Value, "ms", base.N)
	tr.addLayerMetrics(res)
	rec := 0.0
	if perRound := res.metrics["chain.records_per_round"].Value; perRound > 0 {
		rec = res.metrics["core.Record.ms"].Value * 1e3 / perRound
	}
	res.add("chain.record_us_per_record", rec, "us", res.metrics["core.Record.ms"].N)
	path := filepath.Join(p.outDir, fmt.Sprintf("trace-%s-%d.json", w.name, p.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
	return res, nil
}

// metricValue is one reported number with its unit and sample count.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
}

// check is one correctness verdict.
type check struct {
	name   string
	ok     bool
	detail string
}

// result is everything one workload pass measured.
type result struct {
	metrics   map[string]metricValue
	order     []string
	checks    []check
	lat       []float64 // measured round latencies, ms
	attempted int       // rounds attempted in the measured loop
	failed    int       // rounds that errored or degraded
}

func newResult() *result { return &result{metrics: map[string]metricValue{}} }

func (r *result) add(name string, v float64, unit string, n int) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit, N: n}
}

func (r *result) expect(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

func (r *result) print(w io.Writer) {
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "metric %-34s %14.6g %-8s n=%d\n", name, m.Value, m.Unit, m.N)
	}
}

// finalLine renders the machine-readable result restricted to defs. A
// per-layer metric of a layer the workload does not exercise reads 0
// (zeroMissing); every end-to-end metric must have been measured.
func (r *result) finalLine(defs []metricDef, zeroMissing bool) (string, error) {
	type unitValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	type line struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]unitValue `json:"metrics"`
	}
	l := line{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]unitValue{}}
	for _, d := range defs {
		n := d.name
		m, ok := r.metrics[n]
		if !ok && !zeroMissing {
			return "", fmt.Errorf("metric %s was not measured", n)
		}
		if ok && m.Unit != d.unit {
			return "", fmt.Errorf("metric %s measured in %s, defined in %s", n, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is not finite", n)
		}
		l.Metrics[n] = unitValue{Value: m.Value, Unit: d.unit}
	}

	b, err := json.Marshal(l)
	return string(b), err
}

// machine tags every saved result so results from different hosts are
// never silently compared.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

func currentMachine() machine {
	return machine{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// cpuModel reads the processor name from the kernel's cpuinfo, or reports
// the architecture where that is unavailable.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// savedResult is the on-disk form of one run.
type savedResult struct {
	Workload string                 `json:"workload"`
	Seed     uint64                 `json:"seed"`
	Seconds  int                    `json:"seconds"`
	Trace    int                    `json:"trace"`
	Machine  machine                `json:"machine"`
	Correct  bool                   `json:"correct"`
	Metrics  map[string]metricValue `json:"metrics"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareResults prints two saved results metric by metric. Results taken
// on different machines are flagged before any number is shown.
func compareResults(w io.Writer, pathA, pathB string) error {
	var a, b savedResult
	for _, x := range []struct {
		path string
		dst  *savedResult
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, x.dst); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	if a.Machine != b.Machine {
		fmt.Fprintf(w, "WARNING: different machines, numbers are not comparable:\n  a: %+v\n  b: %+v\n", a.Machine, b.Machine)
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace {
		fmt.Fprintf(w, "WARNING: different settings: a=%s/%ds/trace%d b=%s/%ds/trace%d\n",
			a.Workload, a.Seconds, a.Trace, b.Workload, b.Seconds, b.Trace)
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma := a.Metrics[n]
		mb, ok := b.Metrics[n]
		if !ok {
			fmt.Fprintf(w, "%-34s %14.6g %-8s (missing in b)\n", n, ma.Value, ma.Unit)
			continue
		}
		ratio := "n/a"
		if ma.Value != 0 {
			ratio = fmt.Sprintf("%.3f", mb.Value/ma.Value)
		}
		fmt.Fprintf(w, "%-34s %14.6g %14.6g %-8s b/a=%s\n", n, ma.Value, mb.Value, ma.Unit, ratio)
	}
	return nil
}

// since is time.Since in milliseconds.
func since(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
