package cubeftl

// Lifetime facade (DESIGN.md §17): age the device years in seconds and
// read back the wear and write-amplification state the lifetime figure
// plots. Aging is deterministic from Options.Seed — two same-seed
// devices aged by the same schedule are bit-identical media — and an
// aged device survives PowerCut/Remount because all of its state (per
// -block retention clocks, wear, grown bad blocks) lives in the NAND
// array, which is the durable medium.

import (
	"time"

	"cubeftl/internal/core"
	"cubeftl/internal/lifetime"
)

// AgeReport summarizes one aging fast-forward.
type AgeReport struct {
	Months         float64 // simulated months applied in this hop
	PEAdded        int64   // P/E cycles added across all blocks
	BadBlocksGrown int     // grown bad blocks accepted by the controller
	BucketJumps    int     // blocks that crossed a retry-table age bucket
	MinPE, MaxPE   int     // post-aging wear extremes over good blocks
	// ScrubQueued counts blocks the post-age patrol sweep queued for
	// refresh (zero unless Options.Refresh).
	ScrubQueued int
}

// Age fast-forwards the device by a wall-clock duration of simulated
// shelf/service life: per-block P/E wear accumulates at the lifetime
// package's configured rate, retention clocks of blocks holding data
// advance, bad blocks grow, and retry-table entries keyed to outgrown
// age buckets are invalidated. With Options.Refresh a patrol sweep then
// queues every block the refresh policy flags, and the simulation runs
// until the resulting relocations (and a checkpoint, when recovery is
// on) complete. Note Options.RetentionMonths pins an override that
// takes precedence over the per-block clocks; combine Age with
// Options.PECycles for pre-wear, not with pinned retention.
func (s *SSD) Age(d time.Duration) AgeReport {
	return s.AgeMonths(lifetime.DurationMonths(d))
}

// AgeMonths is Age with the device's native retention unit.
func (s *SSD) AgeMonths(months float64) AgeReport {
	if s.ager == nil {
		s.ager = lifetime.NewAger(lifetime.Config{Seed: s.spec.Seed})
	}
	hooks := lifetime.Hooks{GrowBad: s.ctrl.GrowBadBlock}
	if s.cube != nil {
		hooks.BucketJump = func(die, block, _, _ int) {
			s.cube.InvalidateBlockRetry(die, block)
		}
	}
	rep := s.ager.FastForward(s.dev.Array(), months, core.AgeBucketFor, hooks)
	// Aged cells see environmental drift on reads, same as PreAge.
	s.dev.SetReadJitterProb(0.5)
	out := AgeReport{
		Months:         rep.Months,
		PEAdded:        rep.PEAdded,
		BadBlocksGrown: rep.BadBlocksGrown,
		BucketJumps:    rep.BucketJumps,
		MinPE:          rep.MinPE,
		MaxPE:          rep.MaxPE,
	}
	s.drainRelocations() // settle grown-bad evacuations first
	if s.spec.Refresh {
		// Sweep until clean. A block serving as an open write point is
		// excluded from a sweep (an active cursor cannot relocate), but
		// refresh churn fills and retires open blocks, so data written
		// before the age jump can surface as refreshable only on a later
		// pass. The loop is bounded: every pass rewrites what it queues,
		// and rewritten data is fresh.
		for i := 0; i < 8; i++ {
			q := s.ctrl.ScrubSweep()
			if q == 0 {
				break
			}
			out.ScrubQueued += q
			s.drainRelocations()
		}
	}
	if s.mgr != nil {
		// Persist the post-age mapping state so a power cut right after
		// aging remounts without replaying the whole refresh burst.
		s.mgr.CheckpointNow()
		s.drainRelocations()
	}
	return out
}

// drainRelocations runs the engine until host I/O, buffered writes, and
// background relocations (GC, refresh, wear leveling) all settle.
// Run's drain condition does not cover relocations: they are usually
// absorbed into host-I/O windows, but an Age-triggered scrub sweep runs
// with no host traffic outstanding.
func (s *SSD) drainRelocations() {
	s.eng.RunWhile(func() bool {
		return s.outstanding > 0 || !s.ctrl.Drained() || s.ctrl.GCActiveAny()
	})
}

// WAFStats is the per-cause write-amplification ledger: how many bytes
// of physical programming each cause issued since the last ResetStats,
// and the resulting write-amplification factor (total/host).
type WAFStats struct {
	HostBytes    int64
	GCBytes      int64
	RefreshBytes int64
	WLBytes      int64
	Factor       float64
	// Refreshes and WearLevels count the relocation operations behind
	// RefreshBytes and WLBytes.
	Refreshes  int64
	WearLevels int64
}

// WAF returns the device's per-cause write-amplification ledger.
func (s *SSD) WAF() WAFStats {
	w := s.ctrl.WAF()
	st := s.ctrl.Stats()
	return WAFStats{
		HostBytes:    w.HostBytes(),
		GCBytes:      w.GCBytes(),
		RefreshBytes: w.RefreshBytes(),
		WLBytes:      w.WLBytes(),
		Factor:       w.Factor(),
		Refreshes:    st.Refreshes,
		WearLevels:   st.WearLevels,
	}
}

// EraseQuantiles returns the erase-count quantiles (0..1, nearest-rank)
// of each die's good blocks: out[die][i] is die die's qs[i] quantile.
// The spread between low and high quantiles is what wear leveling
// narrows.
func (s *SSD) EraseQuantiles(qs []float64) [][]int {
	snap := lifetime.TakeEraseSnapshot(s.dev.Array())
	out := make([][]int, len(snap.Dies))
	for d := range snap.Dies {
		row := make([]int, len(qs))
		for i, q := range qs {
			row[i] = snap.DieQuantile(d, q)
		}
		out[d] = row
	}
	return out
}

// WearSpread returns the device-wide erase-count spread (max-min over
// every good block).
func (s *SSD) WearSpread() int {
	return lifetime.TakeEraseSnapshot(s.dev.Array()).Spread()
}
