package experiment

import (
	"fmt"

	"cubeftl/internal/host"
	"cubeftl/internal/sim"
	"cubeftl/internal/stack"
	"cubeftl/internal/workload"
)

// QoSTenantRow is one tenant under one arbitration policy.
type QoSTenantRow struct {
	Arb      string
	Tenant   string
	IOPS     float64
	ReadP50  int64
	ReadP99  int64
	ReadP999 int64
	// WriteP99 is meaningful for the writer tenant only.
	WriteP99 int64
	// GrantShare is the tenant's fraction of arbitration grants.
	GrantShare float64
	// MaxHeadWaitNs is the longest head-of-queue wait (starvation
	// figure of merit).
	MaxHeadWaitNs int64
}

// QoSResult is the multi-queue host-interface extension study:
// per-tenant tail latency under contention, across arbitration
// policies.
type QoSResult struct {
	Rows []QoSTenantRow
	// TraceHashes fingerprint each policy's grant sequence (equal
	// hashes across reruns = deterministic arbitration).
	TraceHashes map[string]uint64
}

// qosGuardNs bounds low-priority head-of-queue waits under "prio".
const qosGuardNs = 2 * sim.Millisecond

// ExtQoS runs the noisy-neighbor scenario through the NVMe-style
// multi-queue host interface: a latency-sensitive point reader
// (YCSB-C, QD4) against a saturating sequential bulk writer (QD32)
// over a narrow shared dispatch window, under round-robin, weighted
// round-robin (8:1 for the reader), and strict priority (reader
// urgent, starvation-guarded). The QoS claim is that WRR/priority
// arbitration isolates the reader's p99 from the writer's queueing
// while keeping the writer's throughput.
func ExtQoS(opts SSDOpts) *QoSResult {
	res := &QoSResult{TraceHashes: map[string]uint64{}}
	for _, cfg := range []struct {
		name string
		arb  host.Arbiter
		// reader queue settings
		weight, prio int
	}{
		{"rr", host.NewRoundRobin(), 1, 0},
		{"wrr 8:1", host.NewWeightedRoundRobin(), 8, 0},
		{"prio+guard", host.NewStrictPriority(qosGuardNs), 1, 5},
	} {
		st, err := stack.Build(stack.Spec{
			Flavor:           string(PolicyPage),
			BlocksPerChip:    opts.BlocksPerChip,
			Seed:             opts.Seed,
			WriteBufferPages: opts.BufferPages,
		})
		if err != nil {
			panic(err) // a hard-coded spec
		}
		ctrl := st.Ctrl
		workload.Prefill(ctrl, int64(ctrl.LogicalPages())*6/10)
		ctrl.ResetStats()

		pages := ctrl.LogicalPages()
		specs := []workload.TenantSpec{
			{
				Gen:      workload.NewStream(workload.YCSBC, pages, opts.Seed+0xABCD),
				Requests: opts.Requests / 2,
				Queue:    host.QueueConfig{Tenant: "reader", Depth: 4, Weight: cfg.weight, Priority: cfg.prio},
			},
			{
				Gen:      workload.NewStream(workload.Bulk, pages, opts.Seed+0xBCDE),
				Requests: opts.Requests,
				Queue:    host.QueueConfig{Tenant: "writer", Depth: 32, Weight: 1, Priority: 0},
			},
		}
		mr, err := workload.RunTenants(ctrl, specs, workload.MultiRunConfig{
			Arbiter:       cfg.arb,
			DispatchWidth: 6,
		})
		if err != nil {
			panic(err) // static configuration: cannot fail
		}
		res.TraceHashes[cfg.name] = mr.TraceHash
		for _, t := range mr.Tenants {
			res.Rows = append(res.Rows, QoSTenantRow{
				Arb:           cfg.name,
				Tenant:        t.Name,
				IOPS:          t.IOPS(),
				ReadP50:       t.ReadLat.Percentile(50),
				ReadP99:       t.ReadLat.Percentile(99),
				ReadP999:      t.ReadLat.Percentile(99.9),
				WriteP99:      t.WriteLat.Percentile(99),
				GrantShare:    float64(t.Grants) / float64(mr.Grants),
				MaxHeadWaitNs: t.MaxHeadWaitNs,
			})
		}
	}
	return res
}

// Table renders the QoS study.
func (r *QoSResult) Table() *Table {
	t := &Table{
		Title: "multi-queue host interface: per-tenant p99 under contention",
		Cols: []string{"arb", "tenant", "IOPS", "read p50 (ms)", "read p99 (ms)",
			"read p99.9 (ms)", "write p99 (ms)", "grant share", "max head wait (ms)"},
	}
	var rrP99, wrrP99 int64
	for _, row := range r.Rows {
		if row.Tenant == "reader" {
			switch row.Arb {
			case "rr":
				rrP99 = row.ReadP99
			case "wrr 8:1":
				wrrP99 = row.ReadP99
			}
		}
		t.Rows = append(t.Rows, []string{
			row.Arb,
			row.Tenant,
			fmt.Sprintf("%.0f", row.IOPS),
			fmt.Sprintf("%.3f", float64(row.ReadP50)/1e6),
			fmt.Sprintf("%.3f", float64(row.ReadP99)/1e6),
			fmt.Sprintf("%.3f", float64(row.ReadP999)/1e6),
			fmt.Sprintf("%.3f", float64(row.WriteP99)/1e6),
			fmt.Sprintf("%.2f", row.GrantShare),
			fmt.Sprintf("%.3f", float64(row.MaxHeadWaitNs)/1e6),
		})
	}
	if rrP99 > 0 && wrrP99 > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"WRR 8:1 cuts the reader's p99 to %.2fx of round-robin under a saturating bulk writer",
			float64(wrrP99)/float64(rrP99)))
	}
	t.Notes = append(t.Notes,
		"latencies are host-visible (SQ wait + device); grant shares show the arbitration split")
	return t
}
