package stack

import (
	"testing"

	"cubeftl/internal/core"
)

// Every flavor name under every retry mode must split the retry setup
// consistently across its three layers: the chip's decode latency, the
// controller's retry scheduling, and the cube policy's ORT/table flags.
func TestRetrySetupAgreesAcrossLayers(t *testing.T) {
	modes := append([]string{""}, core.RetryModeNames...)
	for _, f := range flavors {
		for _, flavor := range []string{f.name, f.display} {
			for _, mode := range modes {
				rs, err := core.RetrySetupFor(mode)
				if err != nil {
					t.Fatal(err)
				}
				sp := Spec{Flavor: flavor, RetryMode: mode, Channels: 1, DiesPerChannel: 1, BlocksPerChip: 8, Seed: 3}
				p, err := Assemble(sp, nil)
				if err != nil {
					t.Fatalf("%s/%s: %v", flavor, mode, err)
				}
				if got := p.Dev.Config().Chip.DecodeLatencyNs; got != rs.DecodeNs {
					t.Errorf("%s/%s: chip decode %d ns, want %d", flavor, mode, got, rs.DecodeNs)
				}
				if p.Config.RetryMode != rs.Mode {
					t.Errorf("%s/%s: controller retry mode %v, want %v", flavor, mode, p.Config.RetryMode, rs.Mode)
				}
				isCube := f.cube != nil
				if (p.Cube != nil) != isCube {
					t.Fatalf("%s/%s: cube policy = %v, want one: %v", flavor, mode, p.Cube, isCube)
				}
				if isCube {
					cfg := p.Cube.Config()
					if cfg.DisableORT != rs.DisableORT || cfg.RetryTable != rs.RetryTable {
						t.Errorf("%s/%s: policy ORT off=%v table=%v, want off=%v table=%v",
							flavor, mode, cfg.DisableORT, cfg.RetryTable, rs.DisableORT, rs.RetryTable)
					}
				}

				st, err := Build(sp)
				if err != nil {
					t.Fatalf("%s/%s: %v", flavor, mode, err)
				}
				if isCube && st.Ctrl.Policy() != st.Cube {
					t.Errorf("%s/%s: controller does not run the stack's cube policy", flavor, mode)
				}
			}
		}
	}
}

func TestBuildRejectsUnknownNames(t *testing.T) {
	if _, err := Build(Spec{Flavor: "clockFTL"}); err == nil {
		t.Error("unknown flavor accepted")
	}
	if _, err := Build(Spec{RetryMode: "ort-ar"}); err == nil {
		t.Error("unknown retry mode accepted")
	}
}
