package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"cubeftl"
	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/host"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
	"cubeftl/internal/workload"
)

// simSpec is one closed-loop simulator workload: a device, a prefill,
// and a named request stream at a fixed queue depth.
type simSpec struct {
	opts     cubeftl.Options
	profile  string
	requests int
	qd       int
}

// prefillFrac of the logical space is written before every timed run so
// GC and reads see a steady-state device.
const prefillFrac = 0.6

// simSpecFor sizes the two simulator workloads. sim-mixed-gc runs long
// enough for GC to run hundreds of times; sim-aged-read is a read-heavy
// stream on a device pre-aged into the read-retry regime.
func simSpecFor(c *runCtx) simSpec {
	sp := simSpec{
		opts: cubeftl.Options{
			FTL:            cubeftl.FTLCube,
			Channels:       2,
			DiesPerChannel: 4,
			BlocksPerChip:  32,
			Seed:           c.seed,
		},
		qd: 24,
	}
	switch c.workload {
	case "sim-mixed-gc":
		sp.profile, sp.requests = "Mixed", 200000
	case "sim-aged-read":
		sp.profile, sp.requests = "YCSB-B", 300000
		sp.opts.PECycles = 2000
		sp.opts.RetentionMonths = 12
		sp.opts.RetryMode = "ort-pr-ar"
	}
	if c.short {
		sp.requests /= 50
	}
	return sp
}

// simModel is what the modelled SSD did in one run, in simulated time.
// A pure-speed change must leave every field bit-identical.
type simModel struct {
	iops                         float64
	readP50, readP99             time.Duration
	writeP50, writeP99           time.Duration
	waf                          float64
	traceHash                    uint64
	gcRuns, readRetries, rejects int64
}

func (m simModel) fingerprint() map[string]string {
	return map[string]string{
		"model_iops":         fmtFloat(m.iops),
		"model_read_p50_ns":  fmt.Sprint(int64(m.readP50)),
		"model_read_p99_ns":  fmt.Sprint(int64(m.readP99)),
		"model_write_p50_ns": fmt.Sprint(int64(m.writeP50)),
		"model_write_p99_ns": fmt.Sprint(int64(m.writeP99)),
		"model_waf":          fmtFloat(m.waf),
		"trace_hash":         fmt.Sprintf("%016x", m.traceHash),
		"gc_runs":            fmt.Sprint(m.gcRuns),
		"read_retries":       fmt.Sprint(m.readRetries),
		"host_rejects":       fmt.Sprint(m.rejects),
	}
}

// simPass is one untraced set-up plus timed run through the facade.
type simPass struct {
	setup, run time.Duration
	mem        memSnap
	model      simModel
}

func runSimPass(sp simSpec) (simPass, error) {
	var p simPass
	runtime.GC() // start every set-up from the same heap state
	t0 := time.Now()
	dev, err := cubeftl.New(sp.opts)
	if err != nil {
		return p, err
	}
	want := int64(float64(dev.LogicalPages()) * prefillFrac)
	if got := dev.Prefill(want); got != want {
		return p, fmt.Errorf("prefill wrote %d of %d pages", got, want)
	}
	dev.ResetStats()
	p.setup = time.Since(t0)

	runtime.GC() // start every timed run from the same heap state
	m0 := readMem()
	t1 := time.Now()
	st, err := dev.RunWorkload(sp.profile, sp.requests, sp.qd)
	p.run = time.Since(t1)
	p.mem = readMem().sub(m0)
	if err != nil {
		return p, err
	}
	if st.Requests != int64(sp.requests) {
		return p, fmt.Errorf("%d of %d requests completed", st.Requests, sp.requests)
	}
	p.model = simModel{
		iops:    st.IOPS,
		readP50: st.ReadP50, readP99: st.ReadP99,
		writeP50: st.WriteP50, writeP99: st.WriteP99,
		waf:         dev.WAF().Factor,
		traceHash:   st.TraceHash,
		gcRuns:      st.GCRuns,
		readRetries: st.ReadRetries,
		rejects:     st.WriteRejects,
	}
	return p, nil
}

// simInputs is how many inputs (device and request stream) a run cycles
// through. Each pass runs one of them on a device of its own; the model
// metrics are the median over them, which keeps one input's write tail
// (GC stalls make it heavy) from deciding a whole run.
const simInputs = 7

// subSeed is the device and stream seed of input k of a run.
func subSeed(seed uint64, k int) uint64 { return seed*simInputs + uint64(k) }

// simPasses repeats untraced passes until the window closes (at least
// one per input), checking that every pass of an input models the
// identical run.
func simPasses(c *runCtx, r *report, sp simSpec) ([]simPass, error) {
	var passes []simPass
	for len(passes) < simInputs || time.Now().Before(c.deadline()) {
		k := len(passes) % simInputs
		spk := sp
		spk.opts.Seed = subSeed(c.seed, k)
		p, err := runSimPass(spk)
		if err != nil {
			return nil, err
		}
		r.logf("pass %d (input %d): setup %v run %v (%.0f ops/s)", len(passes), k, p.setup, p.run, float64(sp.requests)/p.run.Seconds())
		if len(passes) >= simInputs {
			first := passes[k].model.fingerprint()
			key, same := sameFingerprint(first, p.model.fingerprint())
			r.check(same, "pass %d models a different run than pass %d (%s)", len(passes), k, key)
		} else {
			checkFingerprint(c, r, k, p.model.fingerprint())
		}
		passes = append(passes, p)
	}
	return passes, nil
}

func measureSim(c *runCtx) (*report, error) {
	r := newReport(c.log)
	sp := simSpecFor(c)
	passes, err := simPasses(c, r, sp)
	if err != nil {
		return nil, err
	}
	var setup, opsPerS, usPerOp, allocs []float64
	for _, p := range passes {
		setup = append(setup, p.setup.Seconds())
		opsPerS = append(opsPerS, float64(sp.requests)/p.run.Seconds())
		usPerOp = append(usPerOp, micros(p.run)/float64(sp.requests))
		allocs = append(allocs, float64(p.mem.mallocs)/float64(sp.requests))
		r.attempted += int64(sp.requests)
		r.failed += p.model.rejects
	}
	r.logf("%d passes of %d requests; wall_p50_us and wall_p99_us are the median pass's wall time per op", len(passes), sp.requests)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	model := func(f func(simModel) float64) float64 {
		var xs []float64
		for _, p := range passes[:simInputs] {
			xs = append(xs, f(p.model))
		}
		return median(xs)
	}
	r.set("setup_s", median(setup))
	r.set("wall_ops_per_s", median(opsPerS))
	// One call per pass leaves no per-request wall boundary to time, so
	// both wall latency metrics are the median pass's wall time per op.
	r.set("wall_p50_us", median(usPerOp))
	r.set("wall_p99_us", median(usPerOp))
	r.set("allocs_per_op", median(allocs))
	r.set("peak_rss_mib", rss)
	r.set("model_iops", model(func(m simModel) float64 { return m.iops }))
	r.set("model_read_p50_us", model(func(m simModel) float64 { return micros(m.readP50) }))
	r.set("model_read_p99_us", model(func(m simModel) float64 { return micros(m.readP99) }))
	r.set("model_write_p50_us", model(func(m simModel) float64 { return micros(m.writeP50) }))
	r.set("model_write_p99_us", model(func(m simModel) float64 { return micros(m.writeP99) }))
	r.set("model_waf", model(func(m simModel) float64 { return m.waf }))
	return r, nil
}

// simStack is the device stack the facade builds, assembled here from
// the same public constructors so the traced run can put spans around
// the interfaces the stack takes from its caller.
type simStack struct {
	eng  *sim.Engine
	ctrl *ftl.Controller
	cube *core.CubeFTL
}

// newSimStack mirrors cubeftl.New for the options simSpecFor uses (no
// faults, no recovery, one plane). wrap decorates the policy.
func newSimStack(opts cubeftl.Options, wrap func(ftl.Policy) ftl.Policy) (*simStack, error) {
	rs, err := core.RetrySetupFor(opts.RetryMode)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	devCfg := ssd.DefaultConfig()
	devCfg.Channels = opts.Channels
	devCfg.DiesPerChannel = opts.DiesPerChannel
	devCfg.Chip.Process.BlocksPerChip = opts.BlocksPerChip
	devCfg.Seed = opts.Seed
	devCfg.Chip.DecodeLatencyNs = rs.DecodeNs
	dev := ssd.New(eng, devCfg)
	if opts.PECycles > 0 || opts.RetentionMonths > 0 {
		dev.PreAge(opts.PECycles, opts.RetentionMonths)
		dev.SetReadJitterProb(0.5)
	}
	// The facade applies the retry setup and age bucket to the bare
	// policy before the controller sees it; a wrapper must not skip them.
	cube := core.New(dev.Geometry())
	cube.ApplyRetrySetup(rs)
	cube.SetAgeBucket(core.AgeBucketFor(opts.RetentionMonths))
	cube.SetAgeBucketFn(func(chip, block int) int {
		return core.AgeBucketFor(dev.Chip(chip).NAND.EffectiveRetentionMonths(block))
	})
	ctrlCfg := ftl.DefaultControllerConfig()
	ctrlCfg.RetryMode = rs.Mode
	return &simStack{eng: eng, ctrl: ftl.NewController(dev, wrap(cube), ctrlCfg), cube: cube}, nil
}

// simTraced is one traced pass: the model outputs plus what the spans
// and public stats saw.
type simTraced struct {
	model  simModel
	wall   time.Duration // the run span
	events uint64
	ftl    ftl.Stats
	cube   core.CubeStats
	tenant workload.TenantResult
	micro  microInputs // what the run recorded for the micro-benchmarks
}

// runSimTraced is runSimPass on a stack built from the public
// constructors, with spans around the stream, the policy and the
// arbiter.
func runSimTraced(sp simSpec, tr *tracer) (simTraced, error) {
	var out simTraced
	setup := tr.begin("setup")
	st, err := newSimStack(sp.opts, func(p ftl.Policy) ftl.Policy { return newTracedPolicy(p, tr) })
	if err != nil {
		return out, err
	}
	want := int64(float64(st.ctrl.LogicalPages()) * prefillFrac)
	if got := workload.Prefill(st.ctrl, want); got != want {
		return out, fmt.Errorf("prefill wrote %d of %d pages", got, want)
	}
	st.ctrl.ResetStats()
	tr.end(setup)

	prof, ok := workload.ByName(sp.profile)
	if !ok {
		return out, fmt.Errorf("unknown workload profile %q", sp.profile)
	}
	gen := workload.NewStream(prof, st.ctrl.LogicalPages(), sp.opts.Seed+0xABCD)
	tgen := newTracedGen(gen, tr, st.eng)
	tarb := newTracedArbiter(host.NewRoundRobin(), tr)
	cube0 := st.cube.CubeStats()
	ev0, sim0 := st.eng.Fired(), st.eng.Now()
	runSpan := tr.begin("run")
	t0 := time.Now()
	mr, err := workload.RunTenants(st.ctrl, []workload.TenantSpec{{
		Gen:      tgen,
		Requests: sp.requests,
		Queue:    host.QueueConfig{Tenant: gen.Name(), Depth: sp.qd},
	}}, workload.MultiRunConfig{Arbiter: tarb, DispatchWidth: sp.qd})
	out.wall = time.Since(t0)
	tr.end(runSpan)
	if err != nil {
		return out, err
	}
	out.events = st.eng.Fired() - ev0
	out.ftl = *st.ctrl.Stats()
	out.cube = subCube(st.cube.CubeStats(), cube0)
	out.tenant = mr.Tenants[0]
	t := out.tenant
	out.micro = microInputs{
		sp:           sp,
		logicalPages: st.ctrl.LogicalPages(),
		writes:       tgen.writes,
		picks:        tarb.picks,
		pending:      tgen.pending,
		eventGap:     float64(st.eng.Now()-sim0) / float64(out.events),
		latencies:    histSample(sp.opts.Seed, t.ReadLat, t.WriteLat),
	}
	out.model = simModel{
		iops:    t.IOPS(),
		readP50: time.Duration(t.ReadLat.Percentile(50)), readP99: time.Duration(t.ReadLat.Percentile(99)),
		writeP50: time.Duration(t.WriteLat.Percentile(50)), writeP99: time.Duration(t.WriteLat.Percentile(99)),
		waf:         st.ctrl.WAF().Factor(),
		traceHash:   mr.TraceHash,
		gcRuns:      out.ftl.GCCount,
		readRetries: out.ftl.ReadRetries,
		rejects:     out.ftl.WriteRejects,
	}
	return out, nil
}

func subCube(a, b core.CubeStats) core.CubeStats {
	return core.CubeStats{
		LeaderPrograms:   a.LeaderPrograms - b.LeaderPrograms,
		FollowerPrograms: a.FollowerPrograms - b.FollowerPrograms,
		SafetyRejects:    a.SafetyRejects - b.SafetyRejects,
		ORTHits:          a.ORTHits - b.ORTHits,
		ORTMisses:        a.ORTMisses - b.ORTMisses,
		RetryHits:        a.RetryHits - b.RetryHits,
		RetryStale:       a.RetryStale - b.RetryStale,
		RetryMisses:      a.RetryMisses - b.RetryMisses,
	}
}

// setCoreRatios sets the PS-aware decision ratios from cs.
func setCoreRatios(r *report, cs core.CubeStats) {
	r.set("core.follower_ratio", ratio(float64(cs.FollowerPrograms), float64(cs.LeaderPrograms+cs.FollowerPrograms)))
	r.set("core.safety_reject_ratio", ratio(float64(cs.SafetyRejects), float64(cs.FollowerPrograms)))
	r.set("core.ort_hit_ratio", ratio(float64(cs.ORTHits), float64(cs.ORTHits+cs.ORTMisses)))
	r.set("core.retry_table_hit_ratio", ratio(float64(cs.RetryHits), float64(cs.RetryHits+cs.RetryMisses+cs.RetryStale)))
}

func traceSim(c *runCtx) (*report, error) {
	r := newReport(c.log)
	sp := simSpecFor(c)
	sp.opts.Seed = subSeed(c.seed, 0)
	un, err := runSimPass(sp)
	if err != nil {
		return nil, err
	}
	r.logf("untraced: setup %v run %v", un.setup, un.run)

	tr := newTracer()
	var traced simTraced
	prof, err := profileCPU(func() error {
		var err error
		traced, err = runSimTraced(sp, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.logf("traced: run %v, %d events", traced.wall, traced.events)
	ops := float64(sp.requests)
	r.attempted = 2 * int64(sp.requests)
	r.failed = un.model.rejects + traced.model.rejects + traced.ftl.Uncorrectable

	k, same := sameFingerprint(un.model.fingerprint(), traced.model.fingerprint())
	r.check(same, "passivity: traced run models a different run (%s)", k)
	checkFingerprint(c, r, 0, un.model.fingerprint())
	r.check(traced.ftl.Uncorrectable == 0, "%d uncorrectable reads", traced.ftl.Uncorrectable)

	setCPUShares(r, prof)
	untracedOps := ops / un.run.Seconds()
	r.set("bench.trace_overhead_ops_per_s", untracedOps-ops/traced.wall.Seconds())
	r.set("runtime.gc_cycles_per_kop", float64(un.mem.numGC)/(ops/1000))
	r.set("sim.events_per_op", float64(traced.events)/ops)
	r.set("sim.ns_per_event", float64(un.run.Nanoseconds())/float64(traced.events))

	var coreCalls, coreNs int64
	for _, name := range tr.names() {
		if strings.HasPrefix(name, "core.") {
			s := tr.stats(name)
			coreCalls += s.runCount
			coreNs += s.runNs
		}
	}
	r.set("core.calls_per_op", float64(coreCalls)/ops)
	r.set("core.busy_ns_per_op", float64(coreNs)/ops)
	setCoreRatios(r, traced.cube)
	fs := traced.ftl
	r.set("ftl.gc_runs_per_kop", float64(fs.GCCount)/(ops/1000))
	r.set("ftl.gc_moves_per_host_page", ratio(float64(fs.GCPageMoves), float64(fs.HostWrites)))
	r.set("ftl.buffer_hit_ratio", ratio(float64(fs.BufferHits), float64(fs.HostReads)))
	r.set("ftl.retries_per_read", ratio(float64(fs.ReadRetries), float64(fs.HostReads)))
	r.set("ftl.uncorrectable", float64(fs.Uncorrectable))
	r.set("host.rejects_per_op", float64(traced.tenant.Rejects)/ops)

	if err := tr.write(c, r); err != nil {
		return nil, err
	}
	if err := runMicro(c, r, &traced.micro); err != nil {
		return nil, err
	}
	return r, nil
}
