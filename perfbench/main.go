// Command perfbench is cubeftl's repository benchmark. It drives one of
// four workloads through the public API and prints every end-to-end
// metric by name and unit, checks that the workload's outputs are
// correct, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (host wall time,
// allocations, memory, and the model's simulated-time results). With
// --trace 1 the workload runs once untraced and then traced: spans
// around every call the benchmark makes into the stack, a CPU profile
// split by module, the public stats, and per-layer micro-benchmarks give
// the per-layer set. Build and run it from the repository root with
// perfbench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runCtx carries one invocation's settings to a workload.
type runCtx struct {
	workload string
	seed     uint64
	seconds  time.Duration
	short    bool // tiny sizes for the benchmark's own tests
	start    time.Time
	golden   goldenSet
	spansDir string // where --trace 1 writes its spans
	log      io.Writer
}

// spansPath is the spans directory of a command-line run, under the
// build directory run.sh uses.
const spansPath = ".bench_build/spans"

// deadline is when the measured window of this invocation should end.
func (c *runCtx) deadline() time.Time { return c.start.Add(c.seconds) }

// size names the request sizing, part of every golden key.
func (c *runCtx) size() string {
	if c.short {
		return "short"
	}
	return "full"
}

type workloadDef struct {
	name    string
	measure func(*runCtx) (*report, error) // --trace 0
	trace   func(*runCtx) (*report, error) // --trace 1
}

var workloads = []workloadDef{
	{"sim-mixed-gc", measureSim, traceSim},
	{"sim-aged-read", measureSim, traceSim},
	{"srv-loopback", measureSrv, traceSrv},
	{"fleet-replay", measureFleet, traceFleet},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-mixed-gc | sim-aged-read | srv-loopback | fleet-replay")
	seed := fs.Uint64("seed", 1, "input seed (same seed, same inputs)")
	seconds := fs.Float64("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	short := fs.Bool("short", false, "tiny request counts, for a quick smoke run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if findWorkload(*name) == nil || *seed == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seed > 0, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	gs, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if _, err := os.Stat(fixturePath); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	c := &runCtx{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		short:    *short,
		start:    time.Now(),
		golden:   gs,
		spansDir: spansPath,
		log:      stdout,
	}
	return execute(c, *trace == 1, stdout, stderr)
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// execute runs c's workload, prints its report and returns the exit
// status: 1 when the run errs or any check fails.
func execute(c *runCtx, trace bool, stdout, stderr io.Writer) int {
	rep, err := measure(c, trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct() {
		fmt.Fprintf(stderr, "perfbench: %s: %d check(s) failed\n", c.workload, len(rep.failures))
		return 1
	}
	return 0
}

// measure runs c's workload in the mode trace selects and checks that
// the report is complete.
func measure(c *runCtx, trace bool) (*report, error) {
	wl := findWorkload(c.workload)
	if !trace {
		r, err := wl.measure(c)
		if err == nil {
			r.complete(e2eMetrics)
		}
		return r, err
	}
	r, err := wl.trace(c)
	if err == nil {
		r.finishLayers(c.workload)
		r.complete(layerMetrics)
	}
	return r, err
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// metricDef is one declared metric: BENCHMARK.json lists the same names
// and units.
type metricDef struct{ name, unit string }

// e2eMetrics is the --trace 0 metric set. Latencies of the modelled SSD
// are in simulated microseconds (sim_us), not host time.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_ops_per_s", "ops/s"},
	{"wall_p50_us", "us"},
	{"wall_p99_us", "us"},
	{"allocs_per_op", "allocs"},
	{"peak_rss_mib", "MiB"},
	{"model_iops", "IOPS"},
	{"model_read_p50_us", "sim_us"},
	{"model_read_p99_us", "sim_us"},
	{"model_write_p50_us", "sim_us"},
	{"model_write_p99_us", "sim_us"},
	{"model_waf", "ratio"},
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one invocation's outcome: metrics, op counts, and any
// failed correctness check.
type report struct {
	metrics   map[string]metricVal
	attempted int64
	failed    int64
	failures  []string
	log       io.Writer
}

func newReport(log io.Writer) *report {
	return &report{metrics: map[string]metricVal{}, log: log}
}

func (r *report) set(name string, v float64) {
	r.metrics[name] = metricVal{Value: v, Unit: unitOf(name)}
}

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) logf(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

func (r *report) correct() bool { return len(r.failures) == 0 }

// complete fails the report when a declared metric is missing, an
// undeclared one is present, or a value is not a finite number.
func (r *report) complete(want []metricDef) {
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.name] = true
		v, ok := r.metrics[m.name]
		r.check(ok, "metric %s not measured", m.name)
		r.check(!ok || !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0), "metric %s = %v", m.name, v.Value)
	}
	for name := range r.metrics {
		r.check(declared[name], "metric %s not declared", name)
	}
	r.check(r.attempted >= 1, "no operation attempted")
	r.check(r.failed == 0, "fail_frac = %d/%d, want 0", r.failed, r.attempted)
}

func (r *report) print(w io.Writer) error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-34s %16s %s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-34s %16s ratio (%d of %d ops)\n", "fail_frac", strconv.FormatFloat(frac, 'g', 8, 64), r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintln(w, "CHECK FAILED:", f)
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func unitOf(name string) string {
	for _, m := range e2eMetrics {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	return "?"
}
