package main

import (
	"bytes"
	"math"
	"os"
	"time"

	"cubeftl/internal/cache"
	"cubeftl/internal/core"
	"cubeftl/internal/ecc"
	"cubeftl/internal/ftl"
	"cubeftl/internal/host"
	"cubeftl/internal/metrics"
	"cubeftl/internal/nand"
	"cubeftl/internal/rng"
	"cubeftl/internal/server"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
	"cubeftl/internal/workload"

	"cubeftl"
)

// microReps batches per micro-benchmark; the median batch is reported.
const microReps = 5

// microSamples caps how many inputs a run records for its micro-benchmarks.
const microSamples = 4096

// measureOp calls op n times in each of microReps batches, after an
// untimed prepare, and returns the median nanoseconds per call and the
// fewest heap allocations per call seen in a batch.
func measureOp(n int, prepare func(), op func(i int)) (nsPerOp, allocsPerOp float64) {
	var ns []float64
	allocs := math.Inf(1)
	for rep := 0; rep < microReps; rep++ {
		if prepare != nil {
			prepare()
		}
		m0 := readMem()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		d := time.Since(t0)
		m := readMem().sub(m0)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = math.Min(allocs, float64(m.mallocs)/float64(n))
	}
	return median(ns), allocs
}

// microInputs are what a workload's own run recorded for the
// micro-benchmarks of the layer rows layers.json reads on it. A field
// is empty when the workload does not reach that layer.
type microInputs struct {
	sp           simSpec                 // sim-*: the device and stream of input 0
	logicalPages int                     // sim-*: the device's logical pages
	writes       []int64                 // sim-*: pages the run's stream wrote
	picks        [][]host.QueueState     // sim-*: queue sets the run's arbiter chose from
	pending      []int                   // sim-*: event-calendar depth, sampled through the run
	eventGap     float64                 // sim-*: simulated ns between fired events
	latencies    []int64                 // latencies the run added to its histograms, ns
	calls        []srvCall               // srv-loopback: the run's client calls
	fleetReqs    []workload.TimedRequest // fleet-replay: the fixture as one shard sees it
}

// histSample draws up to microSamples latencies from a run's read and
// write histograms, in proportion to their counts: evenly spaced
// quantiles of each, shuffled together with seed.
func histSample(seed uint64, hs ...*metrics.Hist) []int64 {
	var total int64
	for _, h := range hs {
		total += h.N()
	}
	var out []int64
	for _, h := range hs {
		k := int(float64(microSamples) * float64(h.N()) / float64(max(total, 1)))
		for i := 0; i < k; i++ {
			out = append(out, h.Percentile(100*(float64(i)+0.5)/float64(k)))
		}
	}
	rng.New(seed).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// chipFor builds die 0 of the device opts describes, configured and
// aged as newSimStack does it.
func chipFor(opts cubeftl.Options) (*nand.Chip, error) {
	rs, err := core.RetrySetupFor(opts.RetryMode)
	if err != nil {
		return nil, err
	}
	cfg := ssd.DefaultConfig()
	cfg.Channels, cfg.DiesPerChannel = opts.Channels, opts.DiesPerChannel
	cfg.Chip.Process.BlocksPerChip = opts.BlocksPerChip
	cfg.Chip.DecodeLatencyNs = rs.DecodeNs
	cfg.Seed = opts.Seed
	dev := ssd.New(sim.NewEngine(), cfg)
	if opts.PECycles > 0 || opts.RetentionMonths > 0 {
		dev.PreAge(opts.PECycles, opts.RetentionMonths)
		dev.SetReadJitterProb(0.5)
	}
	return dev.Die(0).NAND, nil
}

// programmedChip is die 0 of the run's device with its first blocks
// programmed, the page addresses in a seed-shuffled order, and each
// page's stored bit error rate.
func programmedChip(opts cubeftl.Options, seed uint64) (*nand.Chip, []nand.Address, []float64, error) {
	chip, err := chipFor(opts)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := chip.Model().Config()
	var addrs []nand.Address
	var bers []float64
	for b := 0; b < 4; b++ {
		for l := 0; l < cfg.Layers; l++ {
			for wl := 0; wl < cfg.WLsPerLayer; wl++ {
				a := nand.Address{Block: b, Layer: l, WL: wl}
				if _, err := chip.ProgramWL(a, nil, nand.ProgramParams{}); err != nil {
					return nil, nil, nil, err
				}
				for p := 0; p < 3; p++ {
					a.Page = p
					addrs = append(addrs, a)
					bers = append(bers, chip.StoredBER(a))
				}
			}
		}
	}
	rng.New(seed).Shuffle(len(addrs), func(i, j int) {
		addrs[i], addrs[j] = addrs[j], addrs[i]
		bers[i], bers[j] = bers[j], bers[i]
	})
	return chip, addrs, bers, nil
}

// runMicro runs the micro-benchmarks of every per-layer metric
// layers.json reads on this workload, on the inputs its run recorded.
func runMicro(c *runCtx, r *report, in *microInputs) error {
	want := layersOn(c.workload)
	scale := 1
	if c.short {
		scale = 20
	}
	n := func(k int) int { return max(k/scale, 2) }
	sink := 0

	// sim: Schedule one event and fire one, on a calendar as deep as
	// the run's median depth. By Little's law the run's mean event delay
	// is that depth times its mean gap between events; delays are drawn
	// uniformly around it.
	if want["sim.schedule_step_ns"] {
		depth := int(median(intsToFloats(in.pending)))
		meanDelay := float64(depth) * in.eventGap
		src := rng.New(c.seed)
		delays := make([]sim.Time, microSamples)
		for i := range delays {
			delays[i] = sim.Time(2 * meanDelay * src.Float64())
		}
		eng := sim.NewEngine()
		fire := func() { sink++ }
		for i := 0; i < depth; i++ {
			eng.After(delays[i%microSamples], fire)
		}
		ns, allocs := measureOp(n(200000), nil, func(i int) {
			eng.After(delays[i%microSamples], fire)
			eng.Step()
		})
		r.set("sim.schedule_step_ns", ns)
		r.set("sim.schedule_step_allocs", allocs)
		r.logf("micro sim: calendar depth %d, mean delay %.0f ns", depth, meanDelay)
	}

	// nand, ecc, rng: page reads, decodes and per-codeword error draws
	// on die 0 of the run's device, at its pages' stored bit error
	// rates. Reads start at each h-layer's optimal offset (what the ORT
	// serves) in the run's retry mode.
	if want["nand.read_page_ns"] || want["ecc.decode_ns"] || want["rng.binomial_ns"] {
		chip, addrs, bers, err := programmedChip(in.sp.opts, c.seed)
		if err != nil {
			return err
		}
		if want["nand.read_page_ns"] {
			rs, err := core.RetrySetupFor(in.sp.opts.RetryMode)
			if err != nil {
				return err
			}
			var failed int
			ns, allocs := measureOp(n(20000), nil, func(i int) {
				a := addrs[i%len(addrs)]
				if _, err := chip.ReadPage(a, nand.ReadParams{StartOffset: chip.OptimalOffsetFor(a.Block, a.Layer), Mode: rs.Mode}); err != nil {
					failed++
				}
			})
			r.set("nand.read_page_ns", ns)
			r.set("nand.read_page_allocs", allocs)
			r.logf("micro nand.ReadPage: %d uncorrectable reads", failed)
		}
		if want["ecc.decode_ns"] {
			eng := ecc.NewEngine(rng.New(c.seed))
			pageBytes := chip.Config().PageBytes
			ns, _ := measureOp(n(50000), nil, func(i int) {
				sink += eng.Decode(bers[i%len(bers)], pageBytes).MaxErrors
			})
			r.set("ecc.decode_ns", ns)
		}
		if want["rng.binomial_ns"] {
			src := rng.New(c.seed)
			ns, _ := measureOp(n(200000), nil, func(i int) {
				sink += src.Binomial(ecc.CodewordBits, bers[i%len(bers)])
			})
			r.set("rng.binomial_ns", ns)
		}
	}

	// nand: word-line programs with spare-area records on die 0 of the
	// run's device, erasing every used block between batches.
	if want["nand.program_wl_ns"] {
		chip, err := chipFor(in.sp.opts)
		if err != nil {
			return err
		}
		cfg := chip.Model().Config()
		var addrs []nand.Address
		for b := 0; b < chip.Blocks(); b++ {
			for l := 0; l < cfg.Layers; l++ {
				for wl := 0; wl < cfg.WLsPerLayer; wl++ {
					addrs = append(addrs, nand.Address{Block: b, Layer: l, WL: wl})
				}
			}
		}
		var oob [][]byte
		for p := 0; p < 3; p++ {
			oob = append(oob, ftl.EncodeOOB(ftl.LPN(in.writes[p]), uint64(p+1), 1))
		}
		used := map[int]bool{}
		ns, allocs := measureOp(min(n(20000), len(addrs)), func() {
			for b := range used {
				if _, err := chip.EraseBlock(b); err != nil {
					panic(err) // fault injection is off: an erase cannot fail
				}
			}
			clear(used)
		}, func(i int) {
			a := addrs[i]
			used[a.Block] = true
			if _, err := chip.ProgramWLOOB(a, nil, oob, nand.ProgramParams{}); err != nil {
				panic(err) // addresses are in order on erased blocks
			}
		})
		r.set("nand.program_wl_ns", ns)
		r.set("nand.program_wl_allocs", allocs)
	}

	// ftl: spare-area records for the pages the run's stream wrote.
	if want["ftl.oob_encode_ns"] {
		ns, allocs := measureOp(n(500000), nil, func(i int) {
			sink += len(ftl.EncodeOOB(ftl.LPN(in.writes[i%len(in.writes)]), uint64(i), 7))
		})
		r.set("ftl.oob_encode_ns", ns)
		r.set("ftl.oob_encode_allocs", allocs)
	}

	// host: round-robin grants over the queue sets the run's arbiter saw.
	if want["host.arbiter_ns"] {
		arb := host.NewRoundRobin()
		ns, _ := measureOp(n(1000000), nil, func(i int) {
			sink += arb.Pick(in.picks[i%len(in.picks)], sim.Time(i))
		})
		r.set("host.arbiter_ns", ns)
	}

	// workload: the run's request stream, from the start.
	if want["workload.next_ns"] {
		prof, _ := workload.ByName(in.sp.profile)
		gen := workload.NewStream(prof, in.logicalPages, in.sp.opts.Seed+0xABCD)
		ns, _ := measureOp(n(500000), nil, func(int) { sink += int(gen.Next().LPN) })
		r.set("workload.next_ns", ns)
	}

	// workload: the parse of the MSR fixture the fleet replays.
	if want["workload.parse_ns_per_record"] {
		fixture, err := os.ReadFile(fixturePath)
		if err != nil {
			return err
		}
		records := 0
		ns, _ := measureOp(n(200), nil, func(int) {
			tr, err := workload.ParseTimedTrace("msr", bytes.NewReader(fixture), workload.TraceOptions{TimeCompression: fleetCompression})
			if err != nil {
				panic(err) // the replay parsed it already
			}
			records = tr.Len()
		})
		r.set("workload.parse_ns_per_record", ns/float64(records))
	}

	// metrics: adds of the latencies the run recorded.
	if want["metrics.hist_add_ns"] {
		var h *metrics.Hist
		lat := in.latencies
		ns, _ := measureOp(n(1000000), func() { h = metrics.NewHist(0) }, func(i int) { h.Add(lat[i%len(lat)]) })
		r.set("metrics.hist_add_ns", ns)
	}

	// metrics: a periodic sampler's pattern over a window as long as the
	// run's untraced one: add one latency, read p99.
	if want["metrics.hist_percentile_ns"] {
		var h *metrics.Hist
		lat := in.latencies
		ns, _ := measureOp(max(2*len(lat)/scale, 2), nil, func(i int) {
			if i%len(lat) == 0 {
				h = metrics.NewHist(0)
			}
			h.Add(lat[i%len(lat)])
			sink += int(h.Percentile(99))
		})
		r.set("metrics.hist_percentile_ns", ns)
	}

	// server: the IO request and reply frames of the run's calls,
	// encoded and decoded the way client and server do it (fresh
	// buffers).
	if want["server.frame_encode_ns"] {
		reqs := make([]server.IORequest, len(in.calls))
		reps := make([]server.IOReply, len(in.calls))
		wires := make([][]byte, len(in.calls))
		for i, cl := range in.calls {
			op := uint8(server.OpRead)
			if cl.write {
				op = server.OpWrite
			}
			seq := uint64(i + 1)
			reqs[i] = server.IORequest{Op: op, Seq: seq, AckFloor: seq - 1, LPN: cl.lpn, Pages: uint32(cl.pages)}
			reps[i] = server.IOReply{Seq: seq, Status: server.StatusOK, LatencyNs: cl.latNs}
			wires[i] = server.AppendIOReply(server.AppendIO(nil, reqs[i]), reps[i])
		}
		encode := func(i int) []byte {
			i %= len(reqs)
			return server.AppendIOReply(server.AppendIO(nil, reqs[i]), reps[i])
		}
		var rd bytes.Reader
		decode := func(i int) {
			rd.Reset(wires[i%len(wires)])
			_, body, err := server.ReadFrame(&rd, nil)
			if err == nil {
				_, err = server.ParseIO(body)
			}
			if err == nil {
				_, body, err = server.ReadFrame(&rd, nil)
			}
			if err == nil {
				_, err = server.ParseIOReply(body)
			}
			if err != nil {
				panic(err) // the frames were just encoded
			}
		}
		encNs, encAllocs := measureOp(n(500000), nil, func(i int) { sink += len(encode(i)) })
		decNs, decAllocs := measureOp(n(500000), nil, decode)
		r.set("server.frame_encode_ns", encNs)
		r.set("server.frame_decode_ns", decNs)
		r.set("server.frame_allocs", encAllocs+decAllocs)
	}

	// cache: the fleet trace's reads (lookup, fill on miss) and writes
	// against one shard's 2Q write-back cache.
	if want["cache.get_ns"] {
		var reads, writes []workload.TimedRequest
		for _, q := range in.fleetReqs {
			if q.Op == workload.Write {
				writes = append(writes, q)
			} else {
				reads = append(reads, q)
			}
		}
		c2q, err := cache.New(cache.Config{SizePages: fleetCachePages, Policy: cache.Policy2Q, Mode: cache.WriteBack})
		if err != nil {
			return err
		}
		getNs, _ := measureOp(n(500000), nil, func(i int) {
			q := reads[i%len(reads)]
			if !c2q.Lookup(q.LPN, q.Pages) {
				sink += len(c2q.FillRead(q.LPN, q.Pages))
			}
		})
		putNs, _ := measureOp(n(500000), nil, func(i int) {
			q := writes[i%len(writes)]
			_, flush := c2q.Write(q.LPN, q.Pages)
			sink += len(flush)
		})
		r.set("cache.get_ns", getNs)
		r.set("cache.put_ns", putNs)
	}
	r.logf("micro-benchmarks done (checksum %d)", sink&0xff)
	return nil
}

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
