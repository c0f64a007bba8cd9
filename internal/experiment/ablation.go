package experiment

import (
	"fmt"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/stack"
	"cubeftl/internal/workload"
)

// The ablation studies probe the design choices DESIGN.md calls out:
// the WAM threshold, the number of active blocks, the program order,
// the ORT granularity, and the safety check.

// AblationResult is a generic one-knob sweep.
type AblationResult struct {
	Title  string
	Knob   string
	Values []string
	IOPS   []float64
	Extra  map[string][]float64 // additional per-value series
}

// Table renders the sweep.
func (r *AblationResult) Table() *Table {
	t := &Table{Title: r.Title, Cols: []string{r.Knob, "IOPS"}}
	var extraKeys []string
	for k := range r.Extra {
		extraKeys = append(extraKeys, k)
	}
	t.Cols = append(t.Cols, extraKeys...)
	for i, v := range r.Values {
		row := []string{v, fmt.Sprintf("%.0f", r.IOPS[i])}
		for _, k := range extraKeys {
			row = append(row, f2(r.Extra[k][i]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// cubeWith is the cubeFTL evaluation device with a mutated policy
// configuration.
func cubeWith(opts SSDOpts, mutate func(*core.Config)) stack.Spec {
	cfg := core.DefaultConfig()
	mutate(&cfg)
	sp := opts.spec(PolicyCube)
	sp.Cube = &cfg
	return sp
}

// AblationMuThreshold sweeps the WAM's mu_TH on the bursty OLTP
// workload. Low thresholds spend followers too eagerly; 1.0 disables
// follower preference entirely.
func AblationMuThreshold(opts SSDOpts) *AblationResult {
	r := &AblationResult{
		Title: "Ablation: WAM buffer-utilization threshold mu_TH (OLTP)",
		Knob:  "mu_TH",
		Extra: map[string][]float64{"write P90 (ms)": nil},
	}
	for _, th := range []float64{0.5, 0.7, 0.9, 0.95, 1.0} {
		out := RunCustom(cubeWith(opts, func(c *core.Config) { c.MuThreshold = th }),
			workload.OLTP, opts)
		r.Values = append(r.Values, f2(th))
		r.IOPS = append(r.IOPS, out.IOPS())
		r.Extra["write P90 (ms)"] = append(r.Extra["write P90 (ms)"],
			float64(out.Result.WriteLat.Percentile(90))/1e6)
	}
	return r
}

// AblationActiveBlocks sweeps the write points per chip. One active
// block strands the WAM once its leaders run out (the paper's stated
// reason for using two); more blocks cost OPM memory.
func AblationActiveBlocks(opts SSDOpts) *AblationResult {
	r := &AblationResult{
		Title: "Ablation: active blocks per chip (OLTP)",
		Knob:  "active blocks",
		Extra: map[string][]float64{"mean tPROG (us)": nil},
	}
	for _, n := range []int{1, 2, 4} {
		out := RunCustom(cubeWith(opts, func(c *core.Config) { c.ActiveBlocks = n }),
			workload.OLTP, opts)
		r.Values = append(r.Values, d(n))
		r.IOPS = append(r.IOPS, out.IOPS())
		r.Extra["mean tPROG (us)"] = append(r.Extra["mean tPROG (us)"], out.MeanTPROGNs/1e3)
	}
	return r
}

// AblationProgramOrder compares the three static orders under the OPM
// (WAM disabled so only the order varies): MOS should match or beat
// horizontal-first by keeping followers available.
func AblationProgramOrder(opts SSDOpts) *AblationResult {
	r := &AblationResult{
		Title: "Ablation: static program order under OPM, WAM off (Rocks)",
		Knob:  "order",
		Extra: map[string][]float64{"mean tPROG (us)": nil},
	}
	for _, o := range []ftl.Order{ftl.OrderHorizontalFirst, ftl.OrderVerticalFirst, ftl.OrderMixed} {
		out := RunCustom(cubeWith(opts, func(c *core.Config) {
			c.UseWAM = false
			c.Order = o
		}), workload.Rocks, opts)
		r.Values = append(r.Values, o.String())
		r.IOPS = append(r.IOPS, out.IOPS())
		r.Extra["mean tPROG (us)"] = append(r.Extra["mean tPROG (us)"], out.MeanTPROGNs/1e3)
	}
	return r
}

// AblationORTGranularity compares read-offset cache keyings at
// mid-life. An interesting emergent result of the model: coarse
// entries are competitive whenever the ECC offset tolerance spans the
// spread of per-layer drifts (a mid-range shared value decodes
// everything), while the per-h-layer table pays a cold first-read
// ladder per layer on wide footprints. Per-layer tracking pays off on
// re-read-heavy access (the Fig 14 sweep) and once tolerances shrink
// below the inter-layer drift spread.
func AblationORTGranularity(opts SSDOpts) *AblationResult {
	opts.PE, opts.RetentionMonths = 2000, 1
	r := &AblationResult{
		Title: "Ablation: ORT granularity at mid-life (Proxy)",
		Knob:  "granularity",
		Extra: map[string][]float64{"retries/read": nil},
	}
	for _, g := range []struct {
		name string
		g    core.ORTGranularity
	}{{"per-h-layer", core.ORTPerLayer}, {"per-block", core.ORTPerBlock}, {"per-chip", core.ORTPerChip}} {
		out := RunCustom(cubeWith(opts, func(c *core.Config) { c.ORT = g.g }),
			workload.Proxy, opts)
		r.Values = append(r.Values, g.name)
		r.IOPS = append(r.IOPS, out.IOPS())
		perRead := 0.0
		if out.HostReads > 0 {
			perRead = float64(out.ReadRetries) / float64(out.HostReads)
		}
		r.Extra["retries/read"] = append(r.Extra["retries/read"], perRead)
	}
	return r
}

// AblationSafetyCheck injects program disturbances (sudden temperature
// surges) and compares the §4.1.4 safety check on and off: without it,
// disturbed word lines keep degraded data and reads pay for it.
func AblationSafetyCheck(opts SSDOpts) *AblationResult {
	opts.PE, opts.RetentionMonths = 2000, 6
	const disturbProb = 0.02
	r := &AblationResult{
		Title: "Ablation: safety check under 2% program disturbance (Mongo, aged)",
		Knob:  "safety check",
		Extra: map[string][]float64{"retries/read": nil, "reprograms": nil, "uncorrectable": nil},
	}
	for _, on := range []bool{true, false} {
		sp := cubeWith(opts, func(c *core.Config) { c.SafetyCheck = on })
		sp.DisturbProb = disturbProb
		out := RunCustom(sp, workload.Mongo, opts)
		label := "off"
		if on {
			label = "on"
		}
		r.Values = append(r.Values, label)
		r.IOPS = append(r.IOPS, out.IOPS())
		perRead := 0.0
		if out.HostReads > 0 {
			perRead = float64(out.ReadRetries) / float64(out.HostReads)
		}
		r.Extra["retries/read"] = append(r.Extra["retries/read"], perRead)
		r.Extra["reprograms"] = append(r.Extra["reprograms"], float64(out.Reprograms))
		r.Extra["uncorrectable"] = append(r.Extra["uncorrectable"], float64(out.Uncorrectable))
	}
	return r
}
