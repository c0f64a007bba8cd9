package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"
)

// layerMetrics is the --trace 1 metric set. Every workload prints all
// of them: layers.json names the workloads each is read on, and a
// metric of a layer the workload does not reach is reported as 0.
var layerMetrics = func() []metricDef {
	var ms []metricDef
	for _, l := range cpuLayers {
		ms = append(ms, metricDef{l + ".cpu_share", "ratio"})
	}
	return append(ms,
		metricDef{"sim.events_per_op", "events"},
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"sim.schedule_step_ns", "ns"},
		metricDef{"sim.schedule_step_allocs", "allocs"},
		metricDef{"nand.read_page_ns", "ns"},
		metricDef{"nand.read_page_allocs", "allocs"},
		metricDef{"nand.program_wl_ns", "ns"},
		metricDef{"nand.program_wl_allocs", "allocs"},
		metricDef{"ecc.decode_ns", "ns"},
		metricDef{"rng.binomial_ns", "ns"},
		metricDef{"core.calls_per_op", "calls"},
		metricDef{"core.busy_ns_per_op", "ns"},
		metricDef{"core.follower_ratio", "ratio"},
		metricDef{"core.safety_reject_ratio", "ratio"},
		metricDef{"core.ort_hit_ratio", "ratio"},
		metricDef{"core.retry_table_hit_ratio", "ratio"},
		metricDef{"ftl.oob_encode_ns", "ns"},
		metricDef{"ftl.oob_encode_allocs", "allocs"},
		metricDef{"ftl.gc_runs_per_kop", "runs"},
		metricDef{"ftl.gc_moves_per_host_page", "pages"},
		metricDef{"ftl.buffer_hit_ratio", "ratio"},
		metricDef{"ftl.retries_per_read", "retries"},
		metricDef{"ftl.uncorrectable", "count"},
		metricDef{"host.rejects_per_op", "ratio"},
		metricDef{"host.arbiter_ns", "ns"},
		metricDef{"workload.next_ns", "ns"},
		metricDef{"workload.parse_ns_per_record", "ns"},
		metricDef{"metrics.hist_add_ns", "ns"},
		metricDef{"metrics.hist_percentile_ns", "ns"},
		metricDef{"server.frame_encode_ns", "ns"},
		metricDef{"server.frame_decode_ns", "ns"},
		metricDef{"server.frame_allocs", "allocs"},
		metricDef{"server.rejects_per_op", "ratio"},
		metricDef{"server.client_retries_per_op", "ratio"},
		metricDef{"cache.hit_ratio", "ratio"},
		metricDef{"cache.dirty_evictions_per_write", "ratio"},
		metricDef{"cache.get_ns", "ns"},
		metricDef{"cache.put_ns", "ns"},
		metricDef{"runtime.gc_cycles_per_kop", "cycles"},
		metricDef{"bench.trace_overhead_ops_per_s", "ops/s"},
	)
}()

// layerRow is one row of layers.json's layer map: metrics of one layer,
// the end-to-end metrics they should move, and the workloads they are
// read on.
type layerRow struct {
	Layer   string   `json:"layer"`
	Metrics []string `json:"metrics"`
	Moves   []string `json:"moves"`
	On      []string `json:"on"`
}

//go:embed layers.json
var layersJSON []byte

// layerMap is layers.json's layer map.
var layerMap = func() []layerRow {
	var f struct {
		Layers []layerRow `json:"layers"`
	}
	if err := json.Unmarshal(layersJSON, &f); err != nil {
		panic(fmt.Sprintf("layers.json: %v", err))
	}
	return f.Layers
}()

// layersOn returns the per-layer metrics layers.json says are read on
// workload.
func layersOn(workload string) map[string]bool {
	want := map[string]bool{}
	for _, row := range layerMap {
		if slices.Contains(row.On, workload) {
			for _, m := range row.Metrics {
				want[m] = true
			}
		}
	}
	return want
}

// finishLayers fails the report for every metric layers.json says is
// read on workload that the run did not measure, and reports the rest
// of the per-layer set, which no part of this workload reaches, as 0.
func (r *report) finishLayers(workload string) {
	want := layersOn(workload)
	var unreachable []string
	for _, m := range layerMetrics {
		if _, ok := r.metrics[m.name]; ok {
			continue
		}
		if want[m.name] {
			r.check(false, "metric %s not measured (layers.json reads it on %s)", m.name, workload)
			continue
		}
		r.set(m.name, 0)
		unreachable = append(unreachable, m.name)
	}
	r.logf("not reachable on this workload (reported as 0): %v", unreachable)
}
