package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"cubeftl"
	"cubeftl/internal/cache"
	"cubeftl/internal/fleet"
	"cubeftl/internal/workload"
)

// fixturePath is the checked-in MSR-Cambridge sample the fleet replays,
// relative to the repository root.
const fixturePath = "internal/workload/testdata/msr_sample.csv"

const (
	fleetCompression = 20   // trace time compression, as in the fleet smoke run
	fleetCachePages  = 1024 // per-shard host DRAM cache
	fleetRepeat      = 200  // trace passes per replay: ~240k requests
	// fleetPrefill maps this many pages of each shard before the replay,
	// so cache misses read programmed flash: without it the few misses
	// that reach flash sit right at the 99th read percentile and the
	// read p99 flips between DRAM and flash latency from seed to seed.
	fleetPrefill = 20000
)

// fleetConfig is 2 shards, each behind a 2Q write-back cache, each
// prefilled with fleetPrefill pages (fleet.Run builds and prefills the
// shards, so that time is part of the timed replay). The
// sampling interval is longer than any replay, so each shard takes only
// its end-of-run sample, which carries the WAF ledger.
func fleetConfig(c *runCtx) fleet.Config {
	repeat := fleetRepeat
	if c.short {
		repeat = 4
	}
	return fleet.Config{
		Shards:           2,
		Seed:             c.seed,
		Repeat:           repeat,
		PrefillPages:     fleetPrefill,
		Cache:            cache.Config{SizePages: fleetCachePages, Policy: cache.Policy2Q, Mode: cache.WriteBack},
		SampleIntervalNs: 1 << 60,
	}
}

// fleetPass is one trace parse (the set-up) plus one replay.
type fleetPass struct {
	setup, run time.Duration
	mem        memSnap
	res        *fleet.Result
	model      map[string]string
}

func parseFixture() (*workload.TimedTrace, error) {
	b, err := os.ReadFile(fixturePath)
	if err != nil {
		return nil, err
	}
	return workload.ParseTimedTrace("msr", bytes.NewReader(b), workload.TraceOptions{TimeCompression: fleetCompression})
}

func runFleetPass(c *runCtx, tr *tracer) (fleetPass, error) {
	var p fleetPass
	var trace *workload.TimedTrace
	traced := func(name string, fn func() error) error {
		if tr == nil {
			return fn()
		}
		return tr.span(name, fn)
	}
	runtime.GC() // start every set-up from the same heap state
	t0 := time.Now()
	err := traced("setup", func() error {
		var err error
		trace, err = parseFixture()
		return err
	})
	p.setup = time.Since(t0)
	if err != nil {
		return p, err
	}
	cfg := fleetConfig(c)
	runtime.GC() // start every timed replay from the same heap state
	m0 := readMem()
	t1 := time.Now()
	err = traced("run", func() error {
		var err error
		p.res, err = fleet.Run(cfg, trace)
		return err
	})
	p.run = time.Since(t1)
	p.mem = readMem().sub(m0)
	if err != nil {
		return p, err
	}
	if want := int64(trace.Len() * cfg.Repeat); p.res.Requests != want {
		return p, fmt.Errorf("%d of %d requests replayed", p.res.Requests, want)
	}
	p.model = fleetModel(p.res)
	return p, nil
}

// fleetWAF is the fleet's (host + GC + refresh + wear-level) pages over
// host pages, from each shard's end-of-run sample.
func fleetWAF(res *fleet.Result) float64 {
	var host, total int64
	for _, s := range res.Shards {
		if len(s.Samples) == 0 {
			continue
		}
		last := s.Samples[len(s.Samples)-1]
		host += last.WafHostBytes
		total += last.WafHostBytes + last.WafGCBytes + last.WafRefreshBytes + last.WafWLBytes
	}
	return ratio(float64(total), float64(host))
}

func fleetIOPS(res *fleet.Result) float64 {
	return float64(res.Requests) / (float64(res.SimElapsedNs) / 1e9)
}

func fleetModel(res *fleet.Result) map[string]string {
	var rejects int64
	for _, s := range res.Shards {
		rejects += s.FlushRejects
	}
	return map[string]string{
		"model_iops":         fmtFloat(fleetIOPS(res)),
		"model_read_p50_ns":  fmt.Sprint(res.ReadLat.Percentile(50)),
		"model_read_p99_ns":  fmt.Sprint(res.ReadLat.Percentile(99)),
		"model_write_p50_ns": fmt.Sprint(res.WriteLat.Percentile(50)),
		"model_write_p99_ns": fmt.Sprint(res.WriteLat.Percentile(99)),
		"model_waf":          fmtFloat(fleetWAF(res)),
		"trace_hash":         fmt.Sprintf("%016x", res.TraceHash),
		"requests":           fmt.Sprint(res.Requests),
		"cache_hit_rate":     fmtFloat(res.HitRate()),
		"flush_writes":       fmt.Sprint(res.FlushWrites),
		"flush_rejects":      fmt.Sprint(rejects),
	}
}

// shardRequests is the MSR fixture remapped onto the logical space of
// one shard of the fleet's default size, as the cache micro-benchmarks
// replay it.
func shardRequests(c *runCtx) ([]workload.TimedRequest, error) {
	tr, err := parseFixture()
	if err != nil {
		return nil, err
	}
	shard, err := cubeftl.New(cubeftl.Options{BlocksPerChip: 16, Seed: c.seed})
	if err != nil {
		return nil, err
	}
	if err := tr.Remap(int64(shard.LogicalPages()), false); err != nil {
		return nil, err
	}
	return tr.Reqs, nil
}

func fleetFailed(res *fleet.Result) int64 {
	var n int64
	for _, s := range res.Shards {
		n += s.FlushRejects
		if s.Degraded {
			n++
		}
	}
	return n
}

func measureFleet(c *runCtx) (*report, error) {
	r := newReport(c.log)
	// Only the first pass's result is kept: holding every pass's result
	// would grow the live heap pass by pass, and with it the Go GC
	// interval, so later passes would run faster than earlier ones.
	var first fleetPass
	var setup, opsPerS, usPerOp, allocs []float64
	for n := 0; n < 3 || time.Now().Before(c.deadline()); n++ {
		p, err := runFleetPass(c, nil)
		if err != nil {
			return nil, err
		}
		r.logf("pass %d: parse %v replay %v", n, p.setup, p.run)
		if n == 0 {
			first = p
		} else {
			k, same := sameFingerprint(first.model, p.model)
			r.check(same, "pass %d replays differently from pass 0 (%s)", n, k)
		}
		reqs := float64(p.res.Requests)
		setup = append(setup, p.setup.Seconds())
		opsPerS = append(opsPerS, reqs/p.run.Seconds())
		usPerOp = append(usPerOp, micros(p.run)/reqs)
		allocs = append(allocs, float64(p.mem.mallocs)/reqs)
		r.attempted += p.res.Requests
		r.failed += fleetFailed(p.res)
	}
	res := first.res
	r.logf("%d passes of %d requests; wall_p50_us and wall_p99_us are the median replay's wall time per op", len(setup), res.Requests)
	checkFingerprint(c, r, 0, first.model)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	r.set("setup_s", median(setup))
	r.set("wall_ops_per_s", median(opsPerS))
	// One call per pass leaves no per-request wall boundary to time, so
	// both wall latency metrics are the median pass's wall time per op.
	r.set("wall_p50_us", median(usPerOp))
	r.set("wall_p99_us", median(usPerOp))
	r.set("allocs_per_op", median(allocs))
	r.set("peak_rss_mib", rss)
	r.set("model_iops", fleetIOPS(res))
	r.set("model_read_p50_us", float64(res.ReadLat.Percentile(50))/1e3)
	r.set("model_read_p99_us", float64(res.ReadLat.Percentile(99))/1e3)
	r.set("model_write_p50_us", float64(res.WriteLat.Percentile(50))/1e3)
	r.set("model_write_p99_us", float64(res.WriteLat.Percentile(99))/1e3)
	r.set("model_waf", fleetWAF(res))
	return r, nil
}

func traceFleet(c *runCtx) (*report, error) {
	r := newReport(c.log)
	un, err := runFleetPass(c, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var traced fleetPass
	prof, err := profileCPU(func() error {
		var err error
		traced, err = runFleetPass(c, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	k, same := sameFingerprint(un.model, traced.model)
	r.check(same, "passivity: traced replay differs (%s)", k)
	checkFingerprint(c, r, 0, un.model)
	res := traced.res
	ops := float64(res.Requests)
	r.attempted = un.res.Requests + res.Requests
	r.failed = fleetFailed(un.res) + fleetFailed(res)

	setCPUShares(r, prof)
	r.set("bench.trace_overhead_ops_per_s", ops/un.run.Seconds()-ops/traced.run.Seconds())
	r.set("runtime.gc_cycles_per_kop", float64(un.mem.numGC)/(ops/1000))
	r.set("cache.hit_ratio", res.HitRate())
	var gcRuns, rejects int64
	for _, s := range res.Shards {
		gcRuns += s.GCCount
		rejects += s.FlushRejects
	}
	r.set("cache.dirty_evictions_per_write", ratio(float64(res.CacheStats.DirtyEvictions), float64(res.Writes)))
	r.set("ftl.gc_runs_per_kop", float64(gcRuns)/(ops/1000))
	r.set("host.rejects_per_op", float64(rejects)/ops)
	if err := tr.write(c, r); err != nil {
		return nil, err
	}
	micro := microInputs{latencies: histSample(c.seed, res.ReadLat, res.WriteLat)}
	if micro.fleetReqs, err = shardRequests(c); err != nil {
		return nil, err
	}
	if err := runMicro(c, r, &micro); err != nil {
		return nil, err
	}
	return r, nil
}
