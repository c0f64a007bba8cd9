package main

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"os"
	"strings"
	"testing"
	"time"
)

// The benchmark runs from the repository root (it reads the MSR fixture
// there), and so do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// shortCtx is a --short invocation of workload with seed 1, writing its
// spans under the test's temp directory.
func shortCtx(t *testing.T, workload string) *runCtx {
	t.Helper()
	gs, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return &runCtx{workload: workload, seed: 1, seconds: time.Second, short: true, start: time.Now(),
		golden: gs, spansDir: t.TempDir(), log: io.Discard}
}

// runShort executes c in the given mode and decodes its last output line.
func runShort(t *testing.T, c *runCtx, trace bool) (int, result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	c.log = &out
	code := execute(c, trace, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code == 0 {
		t.Fatalf("%s --trace %v: last line is not the result: %v\n%s", c.workload, trace, err, out.String())
	}
	return code, res, out.String() + errb.String()
}

// TestShortAllWorkloads runs every workload in both modes at tiny size
// and checks that every metric BENCHMARK.json names is printed with its
// unit, and that the run is correct.
func TestShortAllWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			code, res, out := runShort(t, shortCtx(t, w.Name), trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s --trace %v: exit %d, result %+v\n%s", w.Name, trace, code, res, out)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s --trace %v: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s --trace %v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			if trace {
				var sum float64
				for _, l := range cpuLayers {
					sum += res.Metrics[l+".cpu_share"].Value
				}
				if sum < 0.999 || sum > 1.001 {
					t.Errorf("%s: cpu shares sum to %v, want 1", w.Name, sum)
				}
			}
		}
	}
}

// TestGoldenRecorded makes sure the short runs the tests make are
// checked against recorded values, not just self-consistency.
func TestGoldenRecorded(t *testing.T) {
	gs, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"sim-mixed-gc/seed=1/short/k0", "sim-aged-read/seed=1/short/k0", "fleet-replay/seed=1/short/k0",
		"sim-mixed-gc/seed=1/full/k0", "sim-aged-read/seed=1/full/k0", "fleet-replay/seed=1/full/k0",
	} {
		if len(gs[key]) == 0 {
			t.Errorf("no golden values recorded for %s", key)
		}
	}
}

// TestWrongGoldenFails changes one recorded value and expects the
// command to report an incorrect run and exit non-zero, in both modes.
func TestWrongGoldenFails(t *testing.T) {
	for _, w := range []string{"sim-mixed-gc", "fleet-replay"} {
		for _, trace := range []bool{false, true} {
			c := shortCtx(t, w)
			key := w + "/seed=1/short/k0"
			entry := maps.Clone(c.golden[key])
			entry["trace_hash"] = "0000000000000000"
			c.golden = maps.Clone(c.golden)
			c.golden[key] = entry
			code, res, out := runShort(t, c, trace)
			if code == 0 || res.Correct {
				t.Errorf("%s --trace %v with a wrong golden trace hash: exit %d, correct %v\n%s", w, trace, code, res.Correct, out)
			}
			if !strings.Contains(out, "golden "+key) {
				t.Errorf("%s --trace %v: failure does not name the golden entry\n%s", w, trace, out)
			}
		}
	}
}

// TestMissingLayerMetricFails drops one per-layer metric that
// layers.json reads on the workload from a traced run and expects the
// run to fail, naming the metric.
func TestMissingLayerMetricFails(t *testing.T) {
	c := shortCtx(t, "sim-aged-read")
	r, err := findWorkload(c.workload).trace(c)
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct() {
		t.Fatalf("traced run failed before any metric was dropped: %v", r.failures)
	}
	delete(r.metrics, "ftl.retries_per_read")
	r.finishLayers(c.workload)
	r.complete(layerMetrics)
	if r.correct() || !strings.Contains(strings.Join(r.failures, "\n"), "ftl.retries_per_read not measured") {
		t.Errorf("run missing ftl.retries_per_read: failures %q, want one naming it", r.failures)
	}
}

// TestLayerMapMatchesMetrics checks that layers.json's layer map and
// the --trace 1 metric set name the same metrics, and that every
// workload it names exists.
func TestLayerMapMatchesMetrics(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range layerMetrics {
		declared[m.name] = true
	}
	mapped := map[string]bool{}
	for _, row := range layerMap {
		for _, m := range row.Metrics {
			if !declared[m] {
				t.Errorf("layers.json row %s: metric %s is not in the --trace 1 set", row.Layer, m)
			}
			mapped[m] = true
		}
		for _, w := range row.On {
			if findWorkload(w) == nil {
				t.Errorf("layers.json row %s: no workload %q", row.Layer, w)
			}
		}
	}
	for m := range declared {
		if !mapped[m] {
			t.Errorf("metric %s is in no layers.json row", m)
		}
	}
}

// TestLayerOf pins the CPU attribution rule: innermost cubeftl frame,
// the benchmark's own frames as bench, the root package as facade.
func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cubeftl/internal/nand.(*Chip).ReadPage":         "nand",
		"cubeftl/internal/ftl.(*Controller).write.func1": "ftl",
		"cubeftl/internal/bch.(*Code).Decode":            "other",
		"cubeftl.(*SSD).RunWorkload":                     "facade",
		"main.(*tracedPolicy).SelectWL":                  "bench",
		"runtime.mallocgc":                               "",
		"sort.Sort":                                      "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
