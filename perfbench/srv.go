package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cubeftl"
	"cubeftl/internal/core"
	"cubeftl/internal/rng"
	"cubeftl/internal/server"
)

// srvSetups is how many times a run starts the service; setup_s is the
// median. The last one serves the timed windows.
const srvSetups = 5

// srvSpec is the loopback service in the shape cubeserved is deployed:
// durable acks, the default batch window, the observability plane on.
// Reads address the prefilled range; writes address a range a third
// larger, so some acked writes create new mappings the read-back
// check can catch missing.
type srvSpec struct {
	opts       cubeftl.Options
	readPages  int64
	writePages int64
}

func srvSpecFor(c *runCtx) (srvSpec, error) {
	opts := cubeftl.Options{
		FTL:            cubeftl.FTLCube,
		Channels:       2,
		DiesPerChannel: 4,
		BlocksPerChip:  32,
		Seed:           c.seed,
		Recovery:       true,
	}
	probe, err := cubeftl.New(opts)
	if err != nil {
		return srvSpec{}, err
	}
	lp := float64(probe.LogicalPages())
	return srvSpec{opts: opts, readPages: int64(lp * prefillFrac), writePages: int64(lp * prefillFrac * 4 / 3)}, nil
}

// srvInstance is a started server and its two tenant clients.
type srvInstance struct {
	srv     *server.Server
	clients []*server.Client // lat, bulk
	simT0   time.Duration    // device clock once prefilled
}

var srvTenants = []server.TenantDef{{Name: "lat", Weight: 4}, {Name: "bulk", Weight: 1}}

func startSrv(sp srvSpec) (*srvInstance, error) {
	srv, err := server.New(server.Config{
		Device:       sp.opts,
		Tenants:      srvTenants,
		PrefillPages: sp.readPages,
		MetricsAddr:  "127.0.0.1:0",
	})
	if err != nil {
		return nil, err
	}
	in := &srvInstance{srv: srv, simT0: srv.Device().Now()}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for _, t := range srvTenants {
		cl, err := server.Dial(server.ClientConfig{Addr: srv.Addr().String(), Tenant: t.Name})
		if err != nil {
			in.close()
			return nil, err
		}
		in.clients = append(in.clients, cl)
	}
	return in, nil
}

// close stops the clients and shuts the server down; after it returns
// the device may be read directly.
func (in *srvInstance) close() error {
	var errs []error
	for _, cl := range in.clients {
		errs = append(errs, cl.Close())
	}
	return errors.Join(append(errs, in.srv.Close())...)
}

// startSrvTimed starts srvSetups services, closing all but the last,
// and returns the last with every setup time.
func startSrvTimed(sp srvSpec) (*srvInstance, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		in, err := startSrv(sp)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == srvSetups-1 {
			return in, setups, nil
		}
		if err := in.close(); err != nil {
			return nil, nil, err
		}
	}
}

// srvCall is one acknowledged client call: what it asked for and the
// simulated latency the server returned.
type srvCall struct {
	write bool
	lpn   int64
	pages int
	latNs int64
}

// clientLoad is what one closed-loop client did in a window.
type clientLoad struct {
	ok            []srvCall // acknowledged calls, in order
	wall          []float64 // µs per call, send to reply
	calls, failed int64
	elapsed       time.Duration // the window's wall time
	mem           memSnap       // allocations in the window
	// missing and statErrs count acked pages the read-back found
	// unmapped or could not check.
	missing, statErrs int
}

// drive runs client i's closed loop for the given number of calls. lat
// issues 90% single-page reads and 10% single-page writes; bulk issues
// 70% writes of 1-4 pages and 30% single-page reads.
func drive(cl *server.Client, i int, src *rng.Source, sp srvSpec, calls int, tr *tracer) *clientLoad {
	l := &clientLoad{}
	for n := 0; n < calls; n++ {
		write, pages := src.Bool(0.1), 1
		if i == 1 {
			write = src.Bool(0.7)
			if write {
				pages = 1 + src.Intn(4)
			}
		}
		lpn := src.Int63() % sp.readPages
		if write {
			lpn = src.Int63() % (sp.writePages - int64(pages))
		}
		var res server.Result
		call := func() error {
			var err error
			if write {
				res, err = cl.Write(lpn, pages)
			} else {
				res, err = cl.Read(lpn, pages)
			}
			return err
		}
		t0 := time.Now()
		var err error
		if tr != nil {
			name := "srv.read"
			if write {
				name = "srv.write"
			}
			err = tr.span(name, call)
		} else {
			err = call()
		}
		l.wall = append(l.wall, micros(time.Since(t0)))
		l.calls++
		if err != nil {
			l.failed++
			continue
		}
		l.ok = append(l.ok, srvCall{write: write, lpn: lpn, pages: pages, latNs: int64(res.Latency)})
	}
	return l
}

// modelUs is the simulated latency, in µs, of every acknowledged write
// (or read).
func (l *clientLoad) modelUs(write bool) []float64 {
	var us []float64
	for _, c := range l.ok {
		if c.write == write {
			us = append(us, float64(c.latNs)/1e3)
		}
	}
	return us
}

// acked is the set of pages the load's acknowledged writes wrote.
func (l *clientLoad) acked() map[int64]bool {
	pages := map[int64]bool{}
	for _, c := range l.ok {
		for p := 0; c.write && p < c.pages; p++ {
			pages[c.lpn+int64(p)] = true
		}
	}
	return pages
}

// window drives both clients for calls calls each, then has each read
// back the pages it got acked, and merges their loads.
func (in *srvInstance) window(c *runCtx, sp srvSpec, calls int, label string, tr *tracer) *clientLoad {
	loads := make([]*clientLoad, len(in.clients))
	each := func(fn func(i int, cl *server.Client)) {
		var wg sync.WaitGroup
		for i, cl := range in.clients {
			wg.Add(1)
			go func(i int, cl *server.Client) {
				defer wg.Done()
				fn(i, cl)
			}(i, cl)
		}
		wg.Wait()
	}
	runtime.GC() // start every timed window from the same heap state
	m0 := readMem()
	t0 := time.Now()
	each(func(i int, cl *server.Client) {
		src := rng.New(c.seed).Derive(label + "/" + srvTenants[i].Name)
		loads[i] = drive(cl, i, src, sp, calls, tr)
	})
	all := &clientLoad{elapsed: time.Since(t0), mem: readMem().sub(m0)}
	each(func(i int, cl *server.Client) { verify(cl, loads[i]) })
	for _, l := range loads {
		all.ok = append(all.ok, l.ok...)
		all.wall = append(all.wall, l.wall...)
		all.calls += l.calls
		all.failed += l.failed
		all.missing += l.missing
		all.statErrs += l.statErrs
	}
	return all
}

// verify reads back every page the client got acked, via Stat.
func verify(cl *server.Client, l *clientLoad) {
	for p := range l.acked() {
		mapped, err := cl.Stat(p)
		switch {
		case err != nil:
			l.statErrs++
		case !mapped:
			l.missing++
		}
	}
}

// srvWindows is how many timed windows a run splits its calls into.
// The wall metrics are medians over the windows, so a burst of host
// contention that slows one or two windows does not set them.
const srvWindows = 5

func measureSrv(c *runCtx) (*report, error) {
	r := newReport(c.log)
	sp, err := srvSpecFor(c)
	if err != nil {
		return nil, err
	}
	in, setups, err := startSrvTimed(sp)
	if err != nil {
		return nil, err
	}
	all := &clientLoad{}
	var opsPerS, p50, p99, allocs []float64
	for k := 0; k < srvWindows; k++ {
		load := in.window(c, sp, srvCalls(c)/srvWindows, fmt.Sprintf("run%d", k), nil)
		checkLoad(r, load)
		opsPerS = append(opsPerS, float64(load.calls)/load.elapsed.Seconds())
		p50 = append(p50, quantile(load.wall, 0.5))
		p99 = append(p99, quantile(load.wall, 0.99))
		allocs = append(allocs, float64(load.mem.mallocs)/float64(load.calls))
		r.logf("window %d: %d calls in %v, wall p50 %.0f us p99 %.0f us, %d acked pages verified", k, load.calls, load.elapsed, p50[k], p99[k], len(load.acked()))
		all.ok = append(all.ok, load.ok...)
		all.wall = append(all.wall, load.wall...)
		all.calls += load.calls
	}
	if err := in.close(); err != nil {
		return nil, err
	}
	dev := in.srv.Device()
	simElapsed := dev.Now() - in.simT0
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	reads, writes := all.modelUs(false), all.modelUs(true)
	r.logf("%d calls (%d reads, %d writes acked); setups %v", all.calls, len(reads), len(writes), setups)
	r.logf("wall latency us over all windows: p50 %.0f p90 %.0f p95 %.0f p97 %.0f p98 %.0f p99 %.0f p99.5 %.0f p99.9 %.0f (%d samples)", quantile(all.wall, 0.5),
		quantile(all.wall, 0.9), quantile(all.wall, 0.95), quantile(all.wall, 0.97), quantile(all.wall, 0.98), quantile(all.wall, 0.99), quantile(all.wall, 0.995), quantile(all.wall, 0.999), len(all.wall))
	r.set("setup_s", median(setups))
	r.set("wall_ops_per_s", median(opsPerS))
	r.set("wall_p50_us", median(p50))
	r.set("wall_p99_us", median(p99))
	r.set("allocs_per_op", median(allocs))
	r.set("peak_rss_mib", rss)
	r.set("model_iops", float64(all.calls)/simElapsed.Seconds())
	r.set("model_read_p50_us", quantile(reads, 0.5))
	r.set("model_read_p99_us", quantile(reads, 0.99))
	r.set("model_write_p50_us", quantile(writes, 0.5))
	r.set("model_write_p99_us", quantile(writes, 0.99))
	r.set("model_waf", dev.WAF().Factor)
	return r, nil
}

// srvCallsPerSecond is each client's calls per second of --seconds. A
// run makes a fixed number of calls, not as many as fit in the time, so
// the service state a call meets (ledger, dedup windows, mapped pages)
// evolves the same way in every run of a seed however fast the host is;
// on a 2-vCPU box the windows then take about 0.6 of --seconds, leaving
// the rest for the set-ups and the read-back.
const srvCallsPerSecond = 375

func srvCalls(c *runCtx) int {
	if c.short {
		return 100
	}
	return int(c.seconds.Seconds() * srvCallsPerSecond)
}

// checkLoad counts a window's calls and fails the report on any failed
// call or acked write that did not read back as mapped.
func checkLoad(r *report, l *clientLoad) {
	r.attempted += l.calls
	r.failed += l.failed
	r.check(l.missing == 0, "%d acked pages read back unmapped", l.missing)
	r.check(l.statErrs == 0, "%d read-back Stat calls failed", l.statErrs)
}

func traceSrv(c *runCtx) (*report, error) {
	r := newReport(c.log)
	sp, err := srvSpecFor(c)
	if err != nil {
		return nil, err
	}
	in, err := startSrv(sp)
	if err != nil {
		return nil, err
	}
	half := srvCalls(c) / 2
	un := in.window(c, sp, half, "untraced", nil)

	tr := newTracer()
	var traced *clientLoad
	prof, err := profileCPU(func() error {
		traced = in.window(c, sp, half, "traced", tr)
		return nil
	})
	st := in.srv.Stats()
	if cerr := in.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	checkLoad(r, un)
	checkLoad(r, traced)
	ops := float64(un.calls + traced.calls)
	setCPUShares(r, prof)
	r.set("bench.trace_overhead_ops_per_s", float64(un.calls)/un.elapsed.Seconds()-float64(traced.calls)/traced.elapsed.Seconds())
	r.set("runtime.gc_cycles_per_kop", float64(un.mem.numGC)/(float64(un.calls)/1000))
	r.set("server.rejects_per_op", float64(st.Rejects)/ops)
	var retries int64
	for _, cl := range in.clients {
		retries += cl.Stats.Retries
	}
	r.set("server.client_retries_per_op", float64(retries)/ops)
	cs := in.srv.Device().Cube()
	setCoreRatios(r, core.CubeStats{
		LeaderPrograms: cs.LeaderPrograms, FollowerPrograms: cs.FollowerPrograms, SafetyRejects: cs.SafetyRejects,
		ORTHits: cs.ORTHits, ORTMisses: cs.ORTMisses,
		RetryHits: cs.RetryHits, RetryStale: cs.RetryStale, RetryMisses: cs.RetryMisses,
	})
	if err := tr.write(c, r); err != nil {
		return nil, err
	}
	// The micro-benchmarks take the untraced window's calls: their frames,
	// and the latencies the server added to its tenant histograms.
	micro := microInputs{calls: un.ok}
	for _, cl := range un.ok {
		micro.latencies = append(micro.latencies, cl.latNs)
	}
	if err := runMicro(c, r, &micro); err != nil {
		return nil, err
	}
	return r, nil
}
