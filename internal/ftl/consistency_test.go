package ftl

import (
	"testing"

	"cubeftl/internal/nand"
	"cubeftl/internal/rng"
	"cubeftl/internal/ssd"
)

func TestTrim(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	for lpn := LPN(0); lpn < 12; lpn++ {
		c.Write(lpn, func() {})
	}
	eng.Run()
	done := false
	c.Trim(5, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("trim completion never fired")
	}
	if c.Mapper().Lookup(5) != ssd.UnmappedPPN {
		t.Fatal("trimmed LPN still mapped")
	}
	if c.Stats().Trims != 1 {
		t.Errorf("trims = %d", c.Stats().Trims)
	}
	// Trimming unmapped or out-of-range LPNs is harmless.
	c.Trim(5, nil)
	c.Trim(-1, nil)
	c.Trim(LPN(c.LogicalPages()), nil)
	eng.Run()
	// A read of a trimmed page behaves like an unmapped read.
	c.Read(5, func() {})
	eng.Run()
	if c.Stats().UnmappedReads != 1 {
		t.Errorf("unmapped reads = %d", c.Stats().UnmappedReads)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestConsistencyAfterCleanRun(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	for lpn := LPN(0); lpn < 60; lpn++ {
		c.Write(lpn%30, func() {})
	}
	eng.Run()
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// A long, hostile mix of writes, overwrites, trims, and reads across
// multiple GC cycles must leave the translation state exactly
// consistent for every policy flavor.
func TestConsistencySoak(t *testing.T) {
	for _, pol := range []Policy{NewPagePolicy(), NewVertPolicy()} {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			eng, dev := testDevice(21)
			cfg := DefaultControllerConfig()
			cfg.WriteBufferPages = 24
			c := NewController(dev, pol, cfg)
			src := rng.New(77)
			n := c.LogicalPages() * 5 / 10
			ops := n * 8
			outstanding := 0
			var issue func()
			issue = func() {
				for outstanding < 12 && ops > 0 {
					ops--
					outstanding++
					lpn := LPN(src.Intn(n))
					done := func() { outstanding--; issue() }
					switch src.Intn(10) {
					case 0:
						c.Trim(lpn, done)
					case 1, 2:
						c.Read(lpn, done)
					default:
						c.Write(lpn, done)
					}
				}
			}
			issue()
			eng.Run()
			if !c.Drained() {
				t.Fatal("not drained")
			}
			if c.Stats().GCCount == 0 {
				t.Fatal("soak did not exercise GC")
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConsistencyRejectsUndrained(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	c.Write(1, func() {})
	_ = eng // intentionally not run: buffer still holds the write
	if err := c.CheckConsistency(); err == nil {
		t.Fatal("consistency check passed on a non-drained controller")
	}
}

// Wear leveling (least-worn allocation plus cold-data migration) must
// spread erases across blocks far more evenly than the default LIFO
// free pool under a hot overwrite loop.
func TestWearLeveling(t *testing.T) {
	spread := func(wearLevel bool) int {
		eng, dev := testDevice(41)
		cfg := DefaultControllerConfig()
		cfg.WriteBufferPages = 24
		cfg.WearLevel = wearLevel
		c := NewController(dev, NewPagePolicy(), cfg)
		src := rng.New(5)
		hot := 128 // pages, far below capacity: a pathological hot set
		for i := 0; i < hot*500; i++ {
			c.Write(LPN(src.Intn(hot)), func() {})
			if i%512 == 511 {
				eng.Run()
			}
		}
		eng.Run()
		if err := c.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		if c.Stats().GCCount == 0 {
			t.Fatal("hot loop did not trigger GC")
		}
		min, max := c.WearSpread()
		return max - min
	}
	lifo := spread(false)
	wear := spread(true)
	if wear >= lifo {
		t.Fatalf("wear-leveled spread %d not better than LIFO %d", wear, lifo)
	}
	t.Logf("P/E spread: LIFO %d, wear-leveled %d", lifo, wear)
}

// Hammering reads at one block must eventually trigger a read-disturb
// reclaim that relocates the data and resets the counter.
func TestReadReclaim(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	// Enough writes that LPN 0's block retires from the write point
	// (reclaim never touches active blocks).
	for lpn := LPN(0); lpn < 200; lpn++ {
		c.Write(lpn, func() {})
	}
	eng.Run()
	before := c.Mapper().Lookup(0)
	// Hammer reads well past the disturb budget. Run in slabs to keep
	// the event calendar small.
	total := nand.ReadDisturbBudget * 11 / 10
	for i := 0; i < total; i += 2000 {
		for j := 0; j < 2000; j++ {
			c.Read(0, func() {})
		}
		eng.Run()
	}
	if c.Stats().Reclaims == 0 {
		t.Fatal("read hammering never triggered a reclaim")
	}
	after := c.Mapper().Lookup(0)
	if after == before {
		t.Error("reclaim did not relocate the hammered page")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestReadReclaimDisabled(t *testing.T) {
	eng, dev := testDevice(7)
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	cfg.DisableReadReclaim = true
	c := NewController(dev, NewPagePolicy(), cfg)
	for lpn := LPN(0); lpn < 6; lpn++ {
		c.Write(lpn, func() {})
	}
	eng.Run()
	total := nand.ReadDisturbBudget * 11 / 10
	for i := 0; i < total; i += 2000 {
		for j := 0; j < 2000; j++ {
			c.Read(0, func() {})
		}
		eng.Run()
	}
	if c.Stats().Reclaims != 0 {
		t.Fatal("reclaim ran despite being disabled")
	}
}
