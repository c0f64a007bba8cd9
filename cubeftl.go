// Package cubeftl is a full-system reproduction of "Exploiting Process
// Similarity of 3D Flash Memory for High Performance SSDs" (Shim et al.,
// MICRO-52, 2019).
//
// It provides, from the bottom up:
//
//   - a statistical process model of 3D TLC NAND (inter-layer
//     variability, intra-layer similarity, aging),
//   - a micro-operation-level NAND chip simulator (ISPP program loops,
//     verify accounting, read-retry ladders, erase, wear),
//   - a discrete-event SSD (buses, chips, write buffer, GC),
//   - five FTLs: the PS-unaware pageFTL, vertFTL (Hung et al.) and
//     ispFTL (Pan et al.) baselines, and the paper's PS-aware cubeFTL
//     (OPM + WAM + MOS + safety check) plus its cubeFTL- ablation,
//   - the paper's six evaluation workloads, and
//   - runners that regenerate every data figure of the paper.
//
// This file is the public facade: build a simulated SSD, drive it with
// host I/O or one of the named workloads, and read back measurements.
// Everything here wraps the richer packages under internal/.
package cubeftl

import (
	"errors"
	"fmt"
	"io"
	"time"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/host"
	"cubeftl/internal/lifetime"
	"cubeftl/internal/nand"
	"cubeftl/internal/recovery"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
	"cubeftl/internal/stack"
	"cubeftl/internal/telemetry"
	"cubeftl/internal/vth"
	"cubeftl/internal/workload"
)

// FTL names accepted by Options.FTL.
const (
	FTLPage      = "page"  // PS-unaware page-mapping baseline
	FTLVert      = "vert"  // static V_Final reduction (Hung et al. [13])
	FTLIsp       = "isp"   // wear-keyed ISPP-step scaling (Pan et al. [31])
	FTLCube      = "cube"  // the paper's PS-aware cubeFTL
	FTLCubeMinus = "cube-" // cubeFTL with the WAM disabled (§6.3)
)

// Options configures a simulated SSD. The zero value selects the
// paper's configuration scaled to a small device; call DefaultOptions
// for the full 32 GB evaluation target.
type Options struct {
	FTL string // one of FTLPage, FTLVert, FTLIsp, FTLCube, FTLCubeMinus

	Channels       int // independent data buses; default 2
	DiesPerChannel int // NAND dies behind each channel; default 4
	BlocksPerChip  int // default 64 (paper's chips have 428)
	PlanesPerChip  int // default 1 (the paper's model); 2+ overlaps ops within a die
	Seed           uint64

	// DieAffinity makes the multi-queue host front end prefer fetching
	// commands whose target die is idle (reads to busy dies wait while
	// reads to idle dies dispatch), increasing array-level overlap.
	DieAffinity bool

	WriteBufferPages int // default 192

	// Pre-aging (paper §6.2): wear and pinned retention for all reads.
	PECycles        int
	RetentionMonths float64

	// SuspendOps enables program/erase suspend-resume so reads
	// interleave with long chip operations (§8 extension).
	SuspendOps bool
	// Refresh enables the retention-aware background scrubber: blocks
	// whose retention age or predicted E<->P1 error rate crosses the
	// refresh policy's thresholds are rewritten before the ECC cliff.
	// The patrol is funded by host reads so it yields to tenant traffic.
	Refresh bool
	// WearLevel enables static wear leveling: erased blocks are
	// allocated least-worn first, and after a GC cycle completes, cold
	// data is moved off the die's least-worn block when the erase-count
	// spread exceeds the wear policy's threshold.
	WearLevel bool
	// VerifyData turns on the end-to-end integrity oracle: tagged
	// payloads flow through flush, GC, and read-back verification, and
	// RunStats.DataMismatches reports violations (always zero for a
	// correct FTL). Costs memory; intended for testing.
	VerifyData bool

	// Fault injection (deterministic, seed-derived; see internal/nand).
	// All rates are per-operation probabilities; zero disables the
	// mechanism. The FTL absorbs injected faults by retiring blocks and
	// re-issuing data — see RunStats' fault counters.
	ProgramFailRate float64 // program-status failure per word-line program
	EraseFailRate   float64 // erase failure per block erase (grows a bad block)
	ReadFaultRate   float64 // transient fault per page read (re-issued)
	FactoryBadRate  float64 // fraction of blocks factory-marked bad at boot

	// RetryMode selects the read-retry optimization stack (DESIGN.md
	// §15): "baseline" (no read-offset caches, serialized retries),
	// "ort" (the paper's per-h-layer offset cache — the default, and
	// bit-identical to pre-pipeline traces at the same seed), "ort-pr"
	// (ORT + pipelined sense/decode + the decaying age-aware retry
	// table), or "ort-pr-ar" (ort-pr + adaptive early sense
	// termination). Empty selects "ort".
	RetryMode string

	// Recovery enables the crash-consistency subsystem (DESIGN.md §12):
	// a checkpointed and journaled system area, durable-ack semantics
	// (host write acknowledgments wait for the write's mapping record
	// to be durable), and the PowerCut/Remount cycle.
	Recovery bool
	// CkptInterval is the periodic checkpoint cadence in simulated time
	// (0 selects the 20ms default; negative disables periodic
	// checkpoints). Meaningful only with Recovery.
	CkptInterval time.Duration
}

// RetryModes lists the accepted Options.RetryMode values in increasing
// optimization order.
func RetryModes() []string { return append([]string(nil), core.RetryModeNames...) }

// DefaultOptions returns the paper's full evaluation device (2 buses x
// 4 chips x 428 blocks ~= 31.5 GB) running cubeFTL.
func DefaultOptions() Options {
	return Options{
		FTL:            FTLCube,
		Channels:       2,
		DiesPerChannel: 4,
		BlocksPerChip:  428,
		Seed:           1,
	}
}

// SSD is a simulated 3D-NAND solid-state drive with one of the paper's
// FTLs. It is not safe for concurrent use: the simulation is a single
// deterministic event loop.
type SSD struct {
	eng         *sim.Engine
	dev         *ssd.Device
	ctrl        *ftl.Controller
	cube        *core.CubeFTL // non-nil for cube flavors
	dieAffinity bool
	hub         *telemetry.Hub     // nil until EnableTelemetry
	sampler     *telemetry.Sampler // nil until StartStats

	// Crash-consistency state (Options.Recovery). spec and ckptInterval
	// are retained so Remount can rebuild the volatile half of the
	// device; outstanding counts facade-issued host ops not yet
	// completed (Run's stop condition — the manager's checkpoint timer
	// keeps the event queue non-empty forever, so Run cannot wait for
	// queue drain).
	mgr          *recovery.Manager
	spec         stack.Spec
	ckptInterval time.Duration
	outstanding  int

	// ager applies lifetime fast-forwards (lazily built by Age so
	// devices that never age pay nothing and replay bit-identically).
	ager *lifetime.Ager
}

// New builds a simulated SSD.
func New(opts Options) (*SSD, error) {
	sp := opts.spec()
	st, err := stack.Build(sp)
	if err != nil {
		return nil, err
	}
	s := &SSD{
		eng:          st.Eng,
		dev:          st.Dev,
		ctrl:         st.Ctrl,
		cube:         st.Cube,
		dieAffinity:  opts.DieAffinity,
		spec:         sp,
		ckptInterval: opts.CkptInterval,
	}
	if opts.Recovery {
		s.mgr = recovery.Attach(s.ctrl, recovery.NewSystemArea(), recovery.Options{
			CkptIntervalNs: sim.Time(opts.CkptInterval),
			Ledger:         recovery.NewLedger(),
		})
	}
	return s, nil
}

// spec maps the options onto the stack builder, filling the facade's
// defaults (a 64-block-per-die device running cubeFTL).
func (o Options) spec() stack.Spec {
	blocks := o.BlocksPerChip
	if blocks <= 0 {
		blocks = 64
	}
	return stack.Spec{
		Flavor:         o.FTL,
		Channels:       o.Channels,
		DiesPerChannel: o.DiesPerChannel,
		BlocksPerChip:  blocks,
		PlanesPerChip:  o.PlanesPerChip,
		Seed:           o.Seed,
		SuspendOps:     o.SuspendOps,
		VerifyData:     o.VerifyData,
		Faults: nand.FaultConfig{
			ProgramFailRate: o.ProgramFailRate,
			EraseFailRate:   o.EraseFailRate,
			ReadFaultRate:   o.ReadFaultRate,
			FactoryBadRate:  o.FactoryBadRate,
		},
		PECycles:         o.PECycles,
		RetentionMonths:  o.RetentionMonths,
		RetryMode:        o.RetryMode,
		WriteBufferPages: o.WriteBufferPages,
		Refresh:          o.Refresh,
		WearLevel:        o.WearLevel,
		DurableAcks:      o.Recovery,
	}
}

// Channels returns the device's channel (bus) count.
func (s *SSD) Channels() int { return s.dev.Channels() }

// DiesPerChannel returns the NAND dies behind each channel.
func (s *SSD) DiesPerChannel() int { return s.dev.Config().DiesPerChannel }

// FTLName returns the active FTL's name.
func (s *SSD) FTLName() string { return s.ctrl.Policy().Name() }

// LogicalPages returns the exported capacity in 16 KB pages.
func (s *SSD) LogicalPages() int { return s.ctrl.LogicalPages() }

// CapacityBytes returns the exported logical capacity.
func (s *SSD) CapacityBytes() int64 { return int64(s.ctrl.LogicalPages()) * 16 * 1024 }

// Now returns the current simulated time.
func (s *SSD) Now() time.Duration { return time.Duration(s.eng.Now()) }

// ErrBadLPN reports an out-of-range logical page number. Alias of the
// internal FTL error so errors.Is works across the facade regardless
// of which layer rejected the LPN.
var ErrBadLPN = ftl.ErrBadLPN

// ErrDegraded reports a write rejected because the device has dropped
// to read-only degraded mode (free-block exhaustion from grown bad
// blocks). Reads keep working. Alias of the internal FTL error so
// errors.Is works across the facade.
var ErrDegraded = ftl.ErrDegraded

// Write enqueues a host page write; done (optional) runs in simulated
// time when the write is acknowledged. Call Run to advance the
// simulation. A degraded (read-only) device rejects writes with
// ErrDegraded.
func (s *SSD) Write(lpn int64, done func()) error {
	if lpn < 0 || lpn >= int64(s.ctrl.LogicalPages()) {
		return fmt.Errorf("%w: %d", ErrBadLPN, lpn)
	}
	if done == nil {
		done = func() {}
	}
	inner := done
	s.outstanding++
	err := s.ctrl.Write(ftl.LPN(lpn), func() {
		s.outstanding--
		inner()
	})
	if err != nil {
		s.outstanding--
	}
	return err
}

// Degraded reports whether the whole device has dropped to read-only
// mode (every die degraded).
func (s *SSD) Degraded() bool { return s.ctrl.Degraded() }

// DieDegraded reports whether one die (0 <= die <
// Channels()*DiesPerChannel()) has dropped to read-only. A single dead
// die does not stop the device: writes keep flowing to the survivors.
func (s *SSD) DieDegraded(die int) bool { return s.ctrl.DieDegraded(die) }

// DegradedDieCount returns how many dies have degraded to read-only.
func (s *SSD) DegradedDieCount() int { return s.ctrl.DegradedDieCount() }

// Read enqueues a host page read; done (optional) runs in simulated
// time when data is returned.
func (s *SSD) Read(lpn int64, done func()) error {
	if lpn < 0 || lpn >= int64(s.ctrl.LogicalPages()) {
		return fmt.Errorf("%w: %d", ErrBadLPN, lpn)
	}
	if done == nil {
		done = func() {}
	}
	inner := done
	s.outstanding++
	s.ctrl.Read(ftl.LPN(lpn), func() {
		s.outstanding--
		inner()
	})
	return nil
}

// Run advances the simulation until all queued host I/O has completed.
func (s *SSD) Run() {
	if s.mgr != nil {
		// The recovery manager's checkpoint timer keeps the event queue
		// populated forever, so run by condition, not by queue drain.
		s.eng.RunWhile(func() bool { return s.outstanding > 0 || !s.ctrl.Drained() })
		return
	}
	s.eng.Run()
	s.eng.RunWhile(func() bool { return !s.ctrl.Drained() })
}

// Prefill sequentially writes logical pages [0, n) so subsequent reads
// hit mapped flash and the device reaches steady state. It returns the
// pages actually written: fewer than n if the device degraded to
// read-only (or n exceeded the logical capacity) mid-prefill.
func (s *SSD) Prefill(n int64) int64 {
	return workload.Prefill(s.ctrl, n)
}

// ResetStats clears accumulated measurements (use after Prefill).
func (s *SSD) ResetStats() { s.ctrl.ResetStats() }

// Workloads lists every named workload Run/RunTenants accept: the six
// evaluation streams plus the extended profiles (YCSB-B, YCSB-C, Bulk,
// Mixed).
func Workloads() []string {
	names := make([]string, 0, len(workload.Extended))
	for _, p := range workload.Extended {
		names = append(names, p.Name)
	}
	return names
}

// RunStats summarizes a workload run on the SSD.
type RunStats struct {
	Requests  int64
	Elapsed   time.Duration // simulated
	IOPS      float64
	ReadP50   time.Duration
	ReadP90   time.Duration
	ReadP99   time.Duration
	WriteP50  time.Duration
	WriteP90  time.Duration
	WriteP99  time.Duration
	MeanTPROG time.Duration

	ReadRetries    int64
	GCRuns         int64
	Reprograms     int64
	BufferHits     int64
	DataMismatches int64

	// Fault handling (non-zero only with fault injection enabled).
	ProgramFailures int64
	EraseFailures   int64
	ReadFaults      int64
	RetiredBlocks   int64
	FaultRecoveries int64
	WriteRejects    int64
	DegradedDies    int64
	FencedPrograms  int64

	// TraceHash fingerprints the host dispatch grant sequence: equal
	// hashes across two runs mean bit-identical replay.
	TraceHash uint64
}

// RunWorkload drives one of the named workloads (see Workloads) against
// the SSD for the given number of requests at the given queue depth.
func (s *SSD) RunWorkload(name string, requests, queueDepth int) (RunStats, error) {
	prof, ok := workload.ByName(name)
	if !ok {
		return RunStats{}, fmt.Errorf("cubeftl: unknown workload %q (have %v)", name, Workloads())
	}
	gen := workload.NewStream(prof, s.ctrl.LogicalPages(), s.dev.Config().Seed+0xABCD)
	res := workload.Run(s.ctrl, gen, workload.RunConfig{Requests: requests, QueueDepth: queueDepth})
	st := s.ctrl.Stats()
	return RunStats{
		Requests:       res.Requests,
		Elapsed:        time.Duration(res.ElapsedNs),
		IOPS:           res.IOPS(),
		ReadP50:        time.Duration(res.ReadLat.Percentile(50)),
		ReadP90:        time.Duration(res.ReadLat.Percentile(90)),
		ReadP99:        time.Duration(res.ReadLat.Percentile(99)),
		WriteP50:       time.Duration(res.WriteLat.Percentile(50)),
		WriteP90:       time.Duration(res.WriteLat.Percentile(90)),
		WriteP99:       time.Duration(res.WriteLat.Percentile(99)),
		MeanTPROG:      time.Duration(st.MeanTPROGNs()),
		ReadRetries:    st.ReadRetries,
		GCRuns:         st.GCCount,
		Reprograms:     st.Reprograms,
		BufferHits:     st.BufferHits,
		DataMismatches: st.DataMismatches,

		ProgramFailures: st.ProgramFailures,
		EraseFailures:   st.EraseFailures,
		ReadFaults:      st.ReadFaults,
		RetiredBlocks:   st.RetiredBlocks,
		FaultRecoveries: st.FaultRecoveries,
		WriteRejects:    st.WriteRejects,
		DegradedDies:    st.DegradedDies,
		FencedPrograms:  st.FencedPrograms,
		TraceHash:       res.TraceHash,
	}, nil
}

// Arbitration policy names accepted by RunTenants.
const (
	ArbRR   = "rr"   // round-robin
	ArbWRR  = "wrr"  // weighted round-robin over TenantConfig.Weight
	ArbPrio = "prio" // strict priority with a starvation guard
)

// DefaultStarvationGuard bounds how long a low-priority queue's head
// command can wait under the "prio" arbiter before it is served ahead
// of higher-priority queues.
const DefaultStarvationGuard = 2 * time.Millisecond

// TenantConfig describes one tenant stream of a multi-tenant run: a
// named workload driven closed-loop through its own NVMe-style
// submission/completion queue pair.
type TenantConfig struct {
	Name     string // defaults to Workload
	Workload string // one of Workloads()
	Requests int    // requests to complete (default 10000)
	// QueueDepth bounds the tenant's outstanding commands (admission
	// control; default 16).
	QueueDepth int
	// Weight is the WRR share (>= 1; "wrr" arbiter).
	Weight int
	// Priority is the strict-priority class; higher is more urgent
	// ("prio" arbiter).
	Priority int
	// RateIOPS token-bucket rate limits the tenant; 0 = unlimited.
	RateIOPS float64
}

// TenantRunStats is one tenant's view of a multi-tenant run. Latencies
// are host-visible: submission-queue wait plus device service.
type TenantRunStats struct {
	Name     string
	Requests int64
	Elapsed  time.Duration
	IOPS     float64

	ReadP50, ReadP99, ReadP999    time.Duration
	WriteP50, WriteP99, WriteP999 time.Duration

	// QueueFulls counts submissions bounced by admission control,
	// Throttles rate-limiter stalls, Rejects degraded-device write
	// rejections, Grants arbitration wins.
	QueueFulls  int64
	Throttles   int64
	Rejects     int64
	Grants      int64
	MaxHeadWait time.Duration
}

// MultiTenantStats summarizes a multi-tenant run.
type MultiTenantStats struct {
	Tenants []TenantRunStats
	Elapsed time.Duration
	// TraceHash fingerprints the arbitration grant sequence — equal
	// hashes mean bit-identical scheduling for a fixed seed.
	TraceHash uint64
	Grants    int64
	// Aggregate percentiles across every tenant (merged histograms).
	AggReadP99  time.Duration
	AggWriteP99 time.Duration
}

// RunTenants drives the tenant streams concurrently through an
// NVMe-style multi-queue host front end feeding the FTL, arbitrated by
// arb (ArbRR, ArbWRR or ArbPrio). dispatchWidth bounds commands
// concurrently outstanding at the device across all tenants — the
// contended resource QoS divides; 0 defaults to the sum of queue
// depths.
func (s *SSD) RunTenants(tenants []TenantConfig, arb string, dispatchWidth int) (MultiTenantStats, error) {
	if len(tenants) == 0 {
		return MultiTenantStats{}, fmt.Errorf("cubeftl: no tenants")
	}
	arbiter, err := host.NewArbiter(arb, int64(DefaultStarvationGuard))
	if err != nil {
		return MultiTenantStats{}, err
	}
	specs := make([]workload.TenantSpec, 0, len(tenants))
	for i, tc := range tenants {
		prof, ok := workload.ByName(tc.Workload)
		if !ok {
			return MultiTenantStats{}, fmt.Errorf("cubeftl: unknown workload %q (have %v)", tc.Workload, Workloads())
		}
		name := tc.Name
		if name == "" {
			name = prof.Name
		}
		requests := tc.Requests
		if requests <= 0 {
			requests = 10000
		}
		depth := tc.QueueDepth
		if depth <= 0 {
			depth = 16
		}
		seed := s.dev.Config().Seed + 0xABCD + uint64(i)*0x9E3779B9
		specs = append(specs, workload.TenantSpec{
			Gen:      workload.NewStream(prof, s.ctrl.LogicalPages(), seed),
			Requests: requests,
			Queue: host.QueueConfig{
				Tenant:   name,
				Depth:    depth,
				Weight:   tc.Weight,
				Priority: tc.Priority,
				RateIOPS: tc.RateIOPS,
			},
		})
	}
	mr, err := workload.RunTenants(s.ctrl, specs, workload.MultiRunConfig{
		Arbiter:       arbiter,
		DispatchWidth: dispatchWidth,
		DieAffinity:   s.dieAffinity,
	})
	if err != nil {
		return MultiTenantStats{}, err
	}
	out := MultiTenantStats{
		Elapsed:   time.Duration(mr.ElapsedNs),
		TraceHash: mr.TraceHash,
		Grants:    mr.Grants,
	}
	for _, tr := range mr.Tenants {
		out.Tenants = append(out.Tenants, TenantRunStats{
			Name:        tr.Name,
			Requests:    tr.Requests,
			Elapsed:     time.Duration(tr.ElapsedNs),
			IOPS:        tr.IOPS(),
			ReadP50:     time.Duration(tr.ReadLat.Percentile(50)),
			ReadP99:     time.Duration(tr.ReadLat.Percentile(99)),
			ReadP999:    time.Duration(tr.ReadLat.Percentile(99.9)),
			WriteP50:    time.Duration(tr.WriteLat.Percentile(50)),
			WriteP99:    time.Duration(tr.WriteLat.Percentile(99)),
			WriteP999:   time.Duration(tr.WriteLat.Percentile(99.9)),
			QueueFulls:  tr.QueueFulls,
			Throttles:   tr.Throttles,
			Rejects:     tr.Rejects,
			Grants:      tr.Grants,
			MaxHeadWait: time.Duration(tr.MaxHeadWaitNs),
		})
	}
	aggR, aggW := mr.Aggregate()
	out.AggReadP99 = time.Duration(aggR.Percentile(99))
	out.AggWriteP99 = time.Duration(aggW.Percentile(99))
	return out, nil
}

// CubeStats reports the PS-aware decision counters when the SSD runs a
// cube flavor (zero value otherwise).
type CubeStats struct {
	LeaderPrograms   int64
	FollowerPrograms int64
	SafetyRejects    int64
	ORTHits          int64
	ORTMisses        int64
	ORTBytes         int64

	// Retry-table counters (DESIGN.md §15; zero unless the retry table
	// is enabled via Options.RetryMode "ort-pr"/"ort-pr-ar").
	RetryHits    int64 // fresh retry-table entries served
	RetryStale   int64 // entries expired by decay on lookup
	RetryMisses  int64 // lookups that fell through to the ORT
	RetryEntries int64 // live entries right now
}

// Cube returns the PS-aware counters (meaningful for cube flavors).
func (s *SSD) Cube() CubeStats {
	if s.cube == nil {
		return CubeStats{}
	}
	cs := s.cube.CubeStats()
	return CubeStats{
		LeaderPrograms:   cs.LeaderPrograms,
		FollowerPrograms: cs.FollowerPrograms,
		SafetyRejects:    cs.SafetyRejects,
		ORTHits:          cs.ORTHits,
		ORTMisses:        cs.ORTMisses,
		ORTBytes:         s.cube.ORTBytes(),
		RetryHits:        cs.RetryHits,
		RetryStale:       cs.RetryStale,
		RetryMisses:      cs.RetryMisses,
		RetryEntries:     int64(s.cube.RetryEntries()),
	}
}

// TelemetryConfig configures the observability layer (DESIGN.md §11).
// The zero value enables metrics, stage attribution, and the sampler
// hook but not span/event tracing.
type TelemetryConfig struct {
	// Trace collects per-IO spans and device operation events for Chrome
	// trace_event export (WriteChromeTrace → Perfetto).
	Trace bool
	// TraceRing bounds the most-recent-spans ring (default 4096).
	TraceRing int
	// TraceReservoir sizes the uniform reservoir kept over spans evicted
	// from the ring, so long runs retain a representative sample beyond
	// the tail. Default 4096; negative disables the reservoir.
	TraceReservoir int
	// SpanSample traces one in every SpanSample host commands (and the
	// matching fraction of device op events); 0 or 1 traces everything.
	// The sample is systematic with a seed-derived phase, so fixed-seed
	// replays trace the exact same commands, and the simulation itself
	// is untouched (same IOPS, same TraceHash) — see DESIGN.md §16.
	SpanSample int
}

// EnableTelemetry turns on the observability layer: the central metrics
// registry, per-IO stage-latency attribution, and (optionally) span
// tracing. Telemetry is passive and keyed to simulated time — enabling
// it does not change what a run computes (same TraceHash, same stats).
// Call before driving I/O; enabling mid-run only misses early IOs.
func (s *SSD) EnableTelemetry(cfg TelemetryConfig) {
	hub := telemetry.NewHub(s.eng, s.dev.Config().Seed)
	if cfg.Trace {
		hub.EnableTracer(telemetry.TracerConfig{
			RingSize:      cfg.TraceRing,
			ReservoirSize: cfg.TraceReservoir,
		})
	}
	hub.SetSpanSample(cfg.SpanSample)
	s.ctrl.SetTelemetry(hub)
	s.registerFacadeGauges(hub)
	s.hub = hub
}

// TelemetryEnabled reports whether EnableTelemetry has been called.
func (s *SSD) TelemetryEnabled() bool { return s.hub != nil }

// Telemetry returns the underlying hub (nil when telemetry is off) for
// direct registry/stage access.
func (s *SSD) Telemetry() *telemetry.Hub { return s.hub }

// registerFacadeGauges exposes the controller's aggregate stats through
// the registry so JSONL snapshots carry them without reaching into the
// internal structs.
func (s *SSD) registerFacadeGauges(hub *telemetry.Hub) {
	st := s.ctrl.Stats() // stable pointer; ResetStats zeroes in place
	reg := hub.Registry()
	reg.RegisterGauge("ftl/write_amp", func() float64 {
		if st.HostWrites == 0 {
			return 0
		}
		return float64(st.Programs*int64(vth.PagesPerWL)) / float64(st.HostWrites)
	})
	// Per-cause write-amplification ledger (DESIGN.md §17): where every
	// physical program came from, plus the resulting factor.
	reg.RegisterGauge("ftl/waf/factor", func() float64 { return s.ctrl.WAF().Factor() })
	for name, get := range map[string]func(lifetime.WAF) int64{
		"ftl/waf/host_bytes":    lifetime.WAF.HostBytes,
		"ftl/waf/gc_bytes":      lifetime.WAF.GCBytes,
		"ftl/waf/refresh_bytes": lifetime.WAF.RefreshBytes,
		"ftl/waf/wl_bytes":      lifetime.WAF.WLBytes,
	} {
		g := get
		reg.RegisterGauge(name, func() float64 { return float64(g(s.ctrl.WAF())) })
	}
	for name, src := range map[string]*int64{
		"ftl/gc/runs":           &st.GCCount,
		"ftl/gc/page_moves":     &st.GCPageMoves,
		"ftl/refreshes":         &st.Refreshes,
		"ftl/wear_levels":       &st.WearLevels,
		"ftl/reprograms":        &st.Reprograms,
		"ftl/buffer_hits":       &st.BufferHits,
		"ftl/write_rejects":     &st.WriteRejects,
		"ftl/degraded_dies":     &st.DegradedDies,
		"ftl/fenced_programs":   &st.FencedPrograms,
		"nand/read_retries":     &st.ReadRetries,
		"faults/program_fail":   &st.ProgramFailures,
		"faults/erase_fail":     &st.EraseFailures,
		"faults/read_faults":    &st.ReadFaults,
		"faults/retired_blocks": &st.RetiredBlocks,
		"faults/recoveries":     &st.FaultRecoveries,
	} {
		p := src
		reg.RegisterGauge(name, func() float64 { return float64(*p) })
	}
	// Cube-flavor decision counters (all zero on non-cube FTLs): the
	// ORT and per-(block,layer) retry-table hit/stale/miss rates are
	// the health signals DESIGN.md §15 steers on.
	for name, get := range map[string]func(CubeStats) int64{
		"cube/ort/hits":      func(c CubeStats) int64 { return c.ORTHits },
		"cube/ort/misses":    func(c CubeStats) int64 { return c.ORTMisses },
		"cube/retry/hits":    func(c CubeStats) int64 { return c.RetryHits },
		"cube/retry/stale":   func(c CubeStats) int64 { return c.RetryStale },
		"cube/retry/misses":  func(c CubeStats) int64 { return c.RetryMisses },
		"cube/retry/entries": func(c CubeStats) int64 { return c.RetryEntries },
	} {
		g := get
		reg.RegisterGauge(name, func() float64 { return float64(g(s.Cube())) })
	}
}

// ErrTelemetryOff reports a telemetry API called before EnableTelemetry.
var ErrTelemetryOff = errors.New("cubeftl: telemetry not enabled")

// WriteChromeTrace exports the collected spans and device operation
// events as Chrome trace_event JSON (chrome://tracing, Perfetto).
// Requires EnableTelemetry with Trace: true.
func (s *SSD) WriteChromeTrace(w io.Writer) error {
	if s.hub == nil || s.hub.Tracer() == nil {
		return fmt.Errorf("%w: need TelemetryConfig.Trace", ErrTelemetryOff)
	}
	dies := s.dev.Channels() * s.dev.Config().DiesPerChannel
	return telemetry.WriteChromeTrace(w, s.hub.Tracer(), s.hub.QueueNames(), dies)
}

// StartStats begins emitting one JSONL telemetry snapshot to w per
// interval of simulated time (tenant IOPS/p99s, per-die utilization,
// registry metrics). Close the returned sampler via CloseStats after
// the run to flush the final snapshot.
func (s *SSD) StartStats(w io.Writer, interval time.Duration) error {
	if s.hub == nil {
		return ErrTelemetryOff
	}
	if interval <= 0 {
		interval = time.Millisecond
	}
	s.sampler = s.hub.StartSampler(w, int64(interval))
	return nil
}

// CloseStats writes the final snapshot and flushes the stats sink.
func (s *SSD) CloseStats() error {
	if s.sampler == nil {
		return ErrTelemetryOff
	}
	err := s.sampler.Close()
	s.sampler = nil
	return err
}

// BreakdownTable renders the per-scope stage-latency attribution: for
// each tenant/op (and each die's reads), where the p50/p99/mean latency
// was spent — queue wait, plane wait, NAND time, retries, bus. Empty
// string when telemetry is off or no spans completed.
func (s *SSD) BreakdownTable() string {
	if s.hub == nil {
		return ""
	}
	return s.hub.Stages().FormatBreakdown()
}

// KillDie installs certain-failure fault injection on one die's
// programs and erases, driving it to degraded read-only mode as soon as
// its free-block margin runs out — the chaos scenario behind `make
// trace-demo`. Reads keep working.
func (s *SSD) KillDie(die int) error {
	dies := s.dev.Channels() * s.dev.Config().DiesPerChannel
	if die < 0 || die >= dies {
		return fmt.Errorf("cubeftl: die %d out of range (have %d)", die, dies)
	}
	s.dev.SetChipFaults(die, nand.FaultConfig{ProgramFailRate: 1, EraseFailRate: 1})
	return nil
}
