package core

import (
	"testing"

	"cubeftl/internal/ftl"
	"cubeftl/internal/nand"
	"cubeftl/internal/rng"
	"cubeftl/internal/vth"
)

// featurePolicy records every parameter set and read start offset the
// policy hands the controller.
type featurePolicy struct {
	*CubeFTL
	params  []nand.ProgramParams
	offsets []int
}

func (p *featurePolicy) ProgramParams(chip, block, layer, wl int) nand.ProgramParams {
	pp := p.CubeFTL.ProgramParams(chip, block, layer, wl)
	p.params = append(p.params, pp)
	return pp
}

func (p *featurePolicy) ReadStartOffset(chip, block, layer int) int {
	off := p.CubeFTL.ReadStartOffset(chip, block, layer)
	p.offsets = append(p.offsets, off)
	return off
}

// fitsByte reports whether v is a multiple of unit encoding to one
// unsigned feature-register byte.
func fitsByte(v, unit int) bool { return v >= 0 && v%unit == 0 && v/unit <= 255 }

// The paper's interface claim (§4.1.4, §5.1): PS-awareness needs no new
// NAND commands. Everything cubeFTL sets on the chip during a run — the
// per-state verify skips, the V_Start/V_Final margins, the ISPP step and
// the read-retry start level — fits the 4-byte Set Features parameter
// format, one byte per value in its register unit.
func TestParamsFitFeatureRegisters(t *testing.T) {
	eng, dev := testDevice(7)
	dev.PreAge(2000, 12) // aged, so reads retry and the ORT holds offsets
	dev.SetReadJitterProb(0.5)
	rs, err := RetrySetupFor("ort-pr-ar")
	if err != nil {
		t.Fatal(err)
	}
	cube := New(dev.Geometry())
	cube.ApplyRetrySetup(rs)
	cube.SetAgeBucket(AgeBucketFor(12))
	pol := &featurePolicy{CubeFTL: cube}
	cfg := ftl.DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	cfg.RetryMode = rs.Mode
	c := ftl.NewController(dev, pol, cfg)
	src := rng.New(3)
	for i := 0; i < 1200; i++ {
		c.Write(ftl.LPN(src.Intn(400)), func() {})
	}
	eng.Run()
	for i := 0; i < 2000; i++ {
		c.Read(ftl.LPN(src.Intn(400)), func() {})
		if i%100 == 99 {
			eng.Run() // later reads start from what earlier ones learned
		}
	}
	followers, offsetReads := 0, 0
	for _, p := range pol.params {
		for i, s := range p.SkipVFY {
			if !fitsByte(s, 1) {
				t.Fatalf("P%d skip count %d does not fit a register byte", i+1, s)
			}
		}
		if !fitsByte(p.StartMarginMV, vth.MarginQuantumMV) || !fitsByte(p.FinalMarginMV, vth.MarginQuantumMV) {
			t.Fatalf("margins %d/%d mV do not fit %d mV register units", p.StartMarginMV, p.FinalMarginMV, vth.MarginQuantumMV)
		}
		if !fitsByte(p.ISPPStepMV, 10) {
			t.Fatalf("ISPP step %d mV does not fit 10 mV register units", p.ISPPStepMV)
		}
		if !p.IsDefault() {
			followers++
		}
	}
	for _, off := range pol.offsets {
		if !fitsByte(off, 1) {
			t.Fatalf("read start offset %d does not fit a register byte", off)
		}
		if off > 0 {
			offsetReads++
		}
	}
	// The claim is vacuous unless the run actually set parameters.
	if followers == 0 || offsetReads == 0 {
		t.Fatalf("run set %d follower parameter sets and %d non-zero read offsets; want both > 0", followers, offsetReads)
	}
	t.Logf("%d programs (%d with overrides), %d reads (%d at a non-zero offset)", len(pol.params), followers, len(pol.offsets), offsetReads)
}
