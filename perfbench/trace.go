package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cubeftl/internal/ftl"
	"cubeftl/internal/host"
	"cubeftl/internal/nand"
	"cubeftl/internal/sim"
	"cubeftl/internal/workload"
)

// spanRec is one recorded span. Spans of one request share ID; Parent
// is the index of the enclosing span in the same dump (-1 at a root).
type spanRec struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanStat aggregates every call of one span name, sampled or not.
type spanStat struct {
	count, totalNs int64
	childNs        int64 // time covered by child spans
	// runCount/runNs cover calls made inside the "run" span, which is
	// what per-op layer metrics divide by the run's op count.
	runCount, runNs int64
}

// tracer records spans in memory and writes them out at the end. Root
// spans (span) are safe from several goroutines; begin/end/call form
// one nesting stack and belong to the single goroutine that owns the
// simulation.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	ids     map[string]int
	byID    []string
	agg     []spanStat
	spans   []spanRec
	cur     int // innermost open span (-1 = none)
	curStat int
	inRun   bool
	nextReq int64
	calls   int64
}

// keepEvery samples inner calls into the dump (aggregates stay exact):
// a traced sim run makes millions of policy calls.
const keepEvery = 64

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ids: map[string]int{}, cur: -1, curStat: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// id interns a span name.
func (t *tracer) id(name string) int {
	if i, ok := t.ids[name]; ok {
		return i
	}
	t.ids[name] = len(t.byID)
	t.byID = append(t.byID, name)
	t.agg = append(t.agg, spanStat{})
	return len(t.byID) - 1
}

// begin opens a span nested in the innermost open one (a new request
// when none is open) and returns its handle for end.
func (t *tracer) begin(name string) int {
	id := t.nextReq
	if t.cur >= 0 {
		id = t.spans[t.cur].ID
	} else {
		t.nextReq++
	}
	t.spans = append(t.spans, spanRec{Name: name, ID: id, Parent: t.cur, Start: t.now()})
	t.cur = len(t.spans) - 1
	t.curStat = t.id(name)
	t.inRun = name == "run"
	return t.cur
}

func (t *tracer) end(h int) {
	s := &t.spans[h]
	s.End = t.now()
	d := s.End - s.Start
	st := &t.agg[t.id(s.Name)]
	st.count++
	st.totalNs += d
	t.cur = s.Parent
	t.curStat, t.inRun = -1, false
	if t.cur >= 0 {
		p := t.spans[t.cur].Name
		t.agg[t.id(p)].childNs += d
		t.curStat, t.inRun = t.id(p), p == "run"
	}
}

// call records one inner call of span name nameID that started at
// start (from now) and ends now, as a child of the innermost open span.
func (t *tracer) call(nameID int, start int64) {
	end := t.now()
	d := end - start
	st := &t.agg[nameID]
	st.count++
	st.totalNs += d
	if t.inRun {
		st.runCount++
		st.runNs += d
	}
	if t.curStat >= 0 {
		t.agg[t.curStat].childNs += d
	}
	t.calls++
	if t.calls%keepEvery == 0 && t.cur >= 0 {
		t.spans = append(t.spans, spanRec{Name: t.byID[nameID], ID: t.spans[t.cur].ID, Parent: t.cur, Start: start, End: end})
	}
}

// span runs fn as a root span of its own request; safe for concurrent use.
func (t *tracer) span(name string, fn func() error) error {
	start := t.now()
	err := fn()
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &t.agg[t.id(name)]
	st.count++
	st.totalNs += end - start
	t.spans = append(t.spans, spanRec{Name: name, ID: t.nextReq, Parent: -1, Start: start, End: end})
	t.nextReq++
	return err
}

func (t *tracer) names() []string { return append([]string(nil), t.byID...) }

func (t *tracer) stats(name string) spanStat {
	if i, ok := t.ids[name]; ok {
		return t.agg[i]
	}
	return spanStat{}
}

// write dumps the spans as JSON lines, one summary line per span name
// first (count, total and self time), and logs the summaries.
func (t *tracer) write(c *runCtx, r *report) error {
	if err := os.MkdirAll(c.spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(c.spansDir, fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	names := t.names()
	sort.Strings(names)
	for _, n := range names {
		s := t.stats(n)
		sum := map[string]any{"summary": n, "count": s.count, "total_ns": s.totalNs, "self_ns": s.totalNs - s.childNs}
		if err := enc.Encode(sum); err != nil {
			return err
		}
		r.logf("span %-24s %9d calls  total %12v  self %12v", n, s.count, time.Duration(s.totalNs), time.Duration(s.totalNs-s.childNs))
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	r.logf("spans: %d written to %s", len(t.spans), path)
	return f.Close()
}

// tracedGen wraps the request stream the benchmark hands the stack. It
// also records, for the micro-benchmarks, the first pages the stream
// writes and the engine's calendar depth at every keepEvery-th request.
type tracedGen struct {
	g       workload.Generator
	tr      *tracer
	id      int
	eng     *sim.Engine
	n       int
	writes  []int64
	pending []int
}

func newTracedGen(g workload.Generator, tr *tracer, eng *sim.Engine) *tracedGen {
	return &tracedGen{g: g, tr: tr, id: tr.id("workload.next"), eng: eng}
}

func (w *tracedGen) Name() string { return w.g.Name() }

func (w *tracedGen) Next() workload.Request {
	s := w.tr.now()
	req := w.g.Next()
	w.tr.call(w.id, s)
	if req.Op == workload.Write && len(w.writes) < microSamples {
		w.writes = append(w.writes, req.LPN)
	}
	if w.n%keepEvery == 0 {
		w.pending = append(w.pending, w.eng.Pending())
	}
	w.n++
	return req
}

// tracedArbiter wraps the host arbitration policy and records the
// first queue sets it picks from.
type tracedArbiter struct {
	a     host.Arbiter
	tr    *tracer
	id    int
	picks [][]host.QueueState
}

func newTracedArbiter(a host.Arbiter, tr *tracer) *tracedArbiter {
	return &tracedArbiter{a: a, tr: tr, id: tr.id("host.arbiter")}
}

func (w *tracedArbiter) Name() string { return w.a.Name() }

func (w *tracedArbiter) Pick(eligible []host.QueueState, now sim.Time) int {
	s := w.tr.now()
	q := w.a.Pick(eligible, now)
	w.tr.call(w.id, s)
	if len(w.picks) < microSamples {
		w.picks = append(w.picks, append([]host.QueueState(nil), eligible...))
	}
	return q
}

// tracedPolicy wraps every ftl.Policy method in a core.<method> span.
type tracedPolicy struct {
	p   ftl.Policy
	tr  *tracer
	ids [len(policyMethods)]int // interned span names, per method below
}

const (
	pmName = iota
	pmActiveBlocksPerChip
	pmSelectWL
	pmProgramParams
	pmObserveProgram
	pmReadStartOffset
	pmObserveRead
	pmBlockRetired
	pmBlockErased
)

var policyMethods = [...]string{
	"core.Name", "core.ActiveBlocksPerChip", "core.SelectWL", "core.ProgramParams",
	"core.ObserveProgram", "core.ReadStartOffset", "core.ObserveRead",
	"core.BlockRetired", "core.BlockErased",
}

func newTracedPolicy(p ftl.Policy, tr *tracer) *tracedPolicy {
	w := &tracedPolicy{p: p, tr: tr}
	for i, name := range policyMethods {
		w.ids[i] = tr.id(name)
	}
	return w
}

func (w *tracedPolicy) enter(m int) (int, int64) { return w.ids[m], w.tr.now() }

func (w *tracedPolicy) Name() string {
	id, s := w.enter(pmName)
	defer w.tr.call(id, s)
	return w.p.Name()
}

func (w *tracedPolicy) ActiveBlocksPerChip() int {
	id, s := w.enter(pmActiveBlocksPerChip)
	n := w.p.ActiveBlocksPerChip()
	w.tr.call(id, s)
	return n
}

func (w *tracedPolicy) SelectWL(chip int, actives []*ftl.BlockCursor, util float64) (int, int, int, bool) {
	id, s := w.enter(pmSelectWL)
	a, l, wl, ok := w.p.SelectWL(chip, actives, util)
	w.tr.call(id, s)
	return a, l, wl, ok
}

func (w *tracedPolicy) ProgramParams(chip, block, layer, wl int) nand.ProgramParams {
	id, s := w.enter(pmProgramParams)
	p := w.p.ProgramParams(chip, block, layer, wl)
	w.tr.call(id, s)
	return p
}

func (w *tracedPolicy) ObserveProgram(chip, block, layer, wl int, params nand.ProgramParams, res nand.ProgramResult) ftl.ProgramVerdict {
	id, s := w.enter(pmObserveProgram)
	v := w.p.ObserveProgram(chip, block, layer, wl, params, res)
	w.tr.call(id, s)
	return v
}

func (w *tracedPolicy) ReadStartOffset(chip, block, layer int) int {
	id, s := w.enter(pmReadStartOffset)
	o := w.p.ReadStartOffset(chip, block, layer)
	w.tr.call(id, s)
	return o
}

func (w *tracedPolicy) ObserveRead(chip, block, layer int, res nand.ReadResult, err error) {
	id, s := w.enter(pmObserveRead)
	w.p.ObserveRead(chip, block, layer, res, err)
	w.tr.call(id, s)
}

func (w *tracedPolicy) BlockRetired(chip, block int) {
	id, s := w.enter(pmBlockRetired)
	w.p.BlockRetired(chip, block)
	w.tr.call(id, s)
}

func (w *tracedPolicy) BlockErased(chip, block int) {
	id, s := w.enter(pmBlockErased)
	w.p.BlockErased(chip, block)
	w.tr.call(id, s)
}
