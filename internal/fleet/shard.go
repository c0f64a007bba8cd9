package fleet

import (
	"fmt"

	"cubeftl/internal/cache"
	"cubeftl/internal/ftl"
	"cubeftl/internal/host"
	"cubeftl/internal/metrics"
	"cubeftl/internal/sim"
	"cubeftl/internal/stack"
	"cubeftl/internal/workload"
)

// shardRunner replays one shard's requests on its private engine. It
// interposes the host cache in front of the multi-queue interface:
// read hits and write-back absorptions complete at DRAM latency
// without touching the device; evicted dirty pages are written to the
// device directly (flush traffic competes with host IO on the engine
// but is not charged to any tenant's latency).
type shardRunner struct {
	cfg  Config
	spec *shardSpec

	eng   *sim.Engine
	ctrl  *ftl.Controller
	h     *host.Host
	cache *cache.Cache

	readLat  *metrics.Hist // host-visible read latency incl. cache hits
	writeLat *metrics.Hist
	sampler  *shardSampler // nil when Config.SampleIntervalNs == 0

	backlog   [][]shardReq // per queue: requests bounced by admission control
	completed int64
	total     int64
	reads     int64
	writes    int64

	flushWrites     int64 // dirty cache pages written to the device
	flushRejects    int64 // flush writes refused by a degraded device
	flushInflight   int64
	queueFullDefers int64
}

// runShard builds one complete device stack and replays the shard's
// request slice to completion.
func runShard(cfg Config, spec *shardSpec) (ShardResult, error) {
	built, err := stack.Build(stack.Spec{
		Flavor:           cfg.Policy,
		Channels:         cfg.Channels,
		DiesPerChannel:   cfg.DiesPerChannel,
		BlocksPerChip:    spec.blocksPerChip,
		Seed:             spec.seed,
		PECycles:         spec.pe,
		RetentionMonths:  cfg.RetentionMonths,
		WriteBufferPages: cfg.BufferPages,
	})
	if err != nil {
		// The policy name is the only spec value a fleet config can get
		// wrong.
		return ShardResult{}, fmt.Errorf("%w: %v", ErrBadPolicy, err)
	}
	eng, ctrl := built.Eng, built.Ctrl

	queues := make([]host.QueueConfig, cfg.QueuesPerShard)
	for q := range queues {
		queues[q] = host.QueueConfig{
			Tenant: fmt.Sprintf("s%dq%d", spec.id, q),
			Depth:  cfg.QueueDepth,
		}
	}
	h, err := host.New(ctrl, host.Config{Queues: queues})
	if err != nil {
		return ShardResult{}, err
	}
	hc, err := cache.New(cfg.Cache)
	if err != nil {
		return ShardResult{}, err
	}

	logical := int64(ctrl.LogicalPages())
	if n := cfg.PrefillPages; n > 0 {
		if n > logical {
			n = logical
		}
		workload.Prefill(ctrl, n)
		ctrl.ResetStats()
	}

	r := &shardRunner{
		cfg:      cfg,
		spec:     spec,
		eng:      eng,
		ctrl:     ctrl,
		h:        h,
		cache:    hc,
		readLat:  metrics.NewHist(0),
		writeLat: metrics.NewHist(0),
		backlog:  make([][]shardReq, cfg.QueuesPerShard),
		total:    int64(len(spec.reqs)),
	}
	if cfg.SampleIntervalNs > 0 {
		r.sampler = newShardSampler(r, cfg.Live)
		eng.SetProbe(sim.Time(cfg.SampleIntervalNs), func(at sim.Time) { r.sampler.take(at) })
	}
	replayStart := eng.Now() // prefill time is excluded from ElapsedNs
	r.replay(logical)
	if r.sampler != nil {
		// Tail sample: the window since the last boundary crossing.
		r.sampler.take(eng.Now())
	}

	st := ctrl.Stats()
	res := ShardResult{
		Shard:         spec.id,
		Seed:          spec.seed,
		BlocksPerChip: spec.blocksPerChip,
		PE:            spec.pe,
		LogicalPages:  logical,
		Tenants:       spec.tenants,
		Requests:      r.completed,
		Reads:         r.reads,
		Writes:        r.writes,
		ReadLat:       r.readLat,
		WriteLat:      r.writeLat,
		CacheStats:    hc.Stats(),
		FlushWrites:   r.flushWrites,
		FlushRejects:  r.flushRejects,
		Defers:        r.queueFullDefers,
		ElapsedNs:     eng.Now() - replayStart,
		TraceHash:     h.TraceHash(),
		Grants:        h.Grants(),
		HostReads:     st.HostReads,
		HostWrites:    st.HostWrites,
		GCCount:       st.GCCount,
		Degraded:      ctrl.Degraded(),
	}
	if r.sampler != nil {
		res.Samples = r.sampler.samples
	}
	return res, nil
}

// replay schedules every request at its arrival time and runs the
// engine until all of them (and all cache flush traffic) complete.
func (r *shardRunner) replay(logical int64) {
	// Tenant extents: each tenant slot owns a contiguous slice of the
	// shard's logical space; source LPNs fold into the slice preserving
	// offset locality (hot source extents stay hot in the device).
	tenants := int64(r.spec.tenants)
	if tenants < 1 {
		tenants = 1
	}
	span := logical / tenants
	if span < 1 {
		span = 1
	}
	t0 := r.eng.Now() // prefill may have advanced the clock
	for i := range r.spec.reqs {
		req := r.spec.reqs[i]
		if int64(req.pages) > span {
			req.pages = int(span)
		}
		base := int64(req.tenant) * span
		fold := span - int64(req.pages) + 1
		req.lpn = base + req.lpn%fold
		qid := req.tenant % r.cfg.QueuesPerShard
		r.eng.Schedule(t0+req.at, func() { r.issue(qid, req) })
	}
	r.eng.RunWhile(func() bool { return r.completed < r.total || r.flushInflight > 0 })
	for _, lpn := range r.cache.FlushAll() {
		r.deviceFlush(lpn)
	}
	r.eng.RunWhile(func() bool { return r.flushInflight > 0 })
	r.eng.RunWhile(func() bool { return !r.ctrl.Drained() })
}

// issue runs one request through the cache and, on a miss, the host
// queue. Admission-control rejections park the request in the queue's
// backlog; completions drain it in FIFO order.
func (r *shardRunner) issue(qid int, req shardReq) {
	if req.op == workload.Read {
		if r.cache.Lookup(req.lpn, req.pages) {
			r.readLat.Add(r.cfg.CacheHitNs)
			r.sampler.observe(false, r.cfg.CacheHitNs)
			r.eng.After(r.cfg.CacheHitNs, func() { r.finish(workload.Read) })
			return
		}
	} else {
		absorbed, flush := r.cache.Write(req.lpn, req.pages)
		for _, lpn := range flush {
			r.deviceFlush(lpn)
		}
		if absorbed {
			r.writeLat.Add(r.cfg.CacheHitNs)
			r.sampler.observe(true, r.cfg.CacheHitNs)
			r.eng.After(r.cfg.CacheHitNs, func() { r.finish(workload.Write) })
			return
		}
	}
	r.submit(qid, req)
}

// submit sends a cache-miss request to the shard's host front end;
// admission-control rejections park it at the backlog tail.
func (r *shardRunner) submit(qid int, req shardReq) {
	if !r.trySubmit(qid, req) {
		// Queue full: open-loop arrivals outran the device; the request
		// waits in the backlog and retries on the next completion.
		r.queueFullDefers++
		r.backlog[qid] = append(r.backlog[qid], req)
	}
}

// trySubmit offers one request to the host queue, reporting whether it
// was admitted.
func (r *shardRunner) trySubmit(qid int, req shardReq) bool {
	op := host.Read
	if req.op == workload.Write {
		op = host.Write
	}
	err := r.h.Submit(qid, host.Command{
		Op:    op,
		LPN:   req.lpn,
		Pages: req.pages,
		Done: func(c host.Completion) {
			if req.op == workload.Read {
				r.readLat.Add(c.LatencyNs)
				r.sampler.observe(false, c.LatencyNs)
				for _, lpn := range r.cache.FillRead(req.lpn, req.pages) {
					r.deviceFlush(lpn)
				}
			} else {
				r.writeLat.Add(c.LatencyNs)
				r.sampler.observe(true, c.LatencyNs)
			}
			r.finish(req.op)
			r.drainBacklog(qid)
		},
	})
	return err == nil
}

// drainBacklog resubmits parked requests in FIFO order while the queue
// accepts them.
func (r *shardRunner) drainBacklog(qid int) {
	for len(r.backlog[qid]) > 0 {
		if !r.trySubmit(qid, r.backlog[qid][0]) {
			return // still full; the next completion retries
		}
		r.backlog[qid] = r.backlog[qid][1:]
	}
}

func (r *shardRunner) finish(op workload.Op) {
	if op == workload.Read {
		r.reads++
	} else {
		r.writes++
	}
	r.completed++
}

// deviceFlush writes one evicted/flushed dirty cache page straight to
// the controller, bypassing tenant queues: background cleaning traffic
// that contends for the device but belongs to no tenant.
func (r *shardRunner) deviceFlush(lpn int64) {
	r.flushInflight++
	err := r.ctrl.Write(ftl.LPN(lpn), func() { r.flushInflight-- })
	if err != nil {
		// Degraded device: the dirty page is lost, which is the real
		// failure contract of a volatile write-back cache.
		r.flushInflight--
		r.flushRejects++
		return
	}
	r.flushWrites++
}
