// Package stack is the one place a simulated SSD is assembled: event
// engine, device, FTL policy and controller, in that order. Every
// caller (the public facade, the experiment drivers, the fleet shards)
// describes the device it wants as a Spec and calls Build; a recovery
// mount calls Assemble over the surviving NAND array. The decisions
// that used to be re-made at each construction site live here once:
// how a read-retry mode splits across chip, controller and policy, that
// pre-aged cells see read jitter, that wear leveling allocates
// least-worn blocks, and which name selects which policy.
package stack

import (
	"fmt"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/nand"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

// Spec describes one simulated SSD. The zero value is the device
// default (2 channels x 4 dies, 428 blocks per die) running cubeFTL with
// the default controller.
type Spec struct {
	// Flavor names the FTL policy: page, vert, isp, cube or cube-, or a
	// display name (pageFTL ... cubeFTL-). Empty selects "cube".
	Flavor string
	// Cube, when non-nil, replaces the cube flavors' policy
	// configuration (the ablation studies). The retry setup still
	// overrides its DisableORT and RetryTable fields.
	Cube *core.Config

	Channels       int // <= 0 keeps the device default
	DiesPerChannel int // <= 0 keeps the device default
	BlocksPerChip  int // <= 0 keeps the device default
	PlanesPerChip  int // 0/1 = the paper's single-plane model
	Seed           uint64

	// SuspendOps enables program/erase suspend-resume on the chips.
	SuspendOps bool
	// VerifyData stores payloads on the chips and turns on the
	// controller's end-to-end integrity oracle.
	VerifyData bool
	// Faults installs seed-derived fault injection on every die.
	Faults nand.FaultConfig
	// DisturbProb is the per-program environmental-disturbance
	// probability on every die (§4.1.4).
	DisturbProb float64

	// PECycles and RetentionMonths pre-age every block; a pre-aged
	// device also sees per-read offset jitter.
	PECycles        int
	RetentionMonths float64

	// RetryMode is one of core.RetryModeNames; empty selects "ort".
	RetryMode string

	WriteBufferPages int // <= 0 keeps the controller default
	Refresh          bool
	// WearLevel turns on least-worn block allocation plus cold-data
	// migration.
	WearLevel bool
	// DurableAcks defers host write acks until the mapping record is
	// durable (requires a recovery manager attached to the controller).
	DurableAcks bool
}

// Stack is one assembled SSD.
type Stack struct {
	Eng  *sim.Engine
	Dev  *ssd.Device
	Ctrl *ftl.Controller
	Cube *core.CubeFTL // nil unless the flavor is a cube flavor
}

// Parts is a stack before its controller exists: what ftl.NewController
// or recovery.Mount takes.
type Parts struct {
	Eng    *sim.Engine
	Dev    *ssd.Device
	Policy ftl.Policy
	Cube   *core.CubeFTL
	Config ftl.ControllerConfig
}

// Build assembles a fresh SSD from sp.
func Build(sp Spec) (*Stack, error) {
	p, err := Assemble(sp, nil)
	if err != nil {
		return nil, err
	}
	return &Stack{Eng: p.Eng, Dev: p.Dev, Ctrl: ftl.NewController(p.Dev, p.Policy, p.Config), Cube: p.Cube}, nil
}

// Assemble builds everything but the controller. A nil arr builds fresh
// media and applies sp's faults, disturbance and pre-aging to it. A
// non-nil arr is the NAND that survived a power cut: data, wear, bad
// blocks, fault streams and aging all live there and carry over, so only
// the volatile half (engine, device resources, policy) is rebuilt.
func Assemble(sp Spec, arr *nand.Array) (Parts, error) {
	rs, err := core.RetrySetupFor(sp.RetryMode)
	if err != nil {
		return Parts{}, err
	}
	devCfg := ssd.DefaultConfig()
	if sp.Channels > 0 {
		devCfg.Channels = sp.Channels
	}
	if sp.DiesPerChannel > 0 {
		devCfg.DiesPerChannel = sp.DiesPerChannel
	}
	if sp.BlocksPerChip > 0 {
		devCfg.Chip.Process.BlocksPerChip = sp.BlocksPerChip
	}
	devCfg.PlanesPerChip = sp.PlanesPerChip
	devCfg.Seed = sp.Seed
	devCfg.SuspendOps = sp.SuspendOps
	devCfg.Chip.StoreData = sp.VerifyData
	devCfg.Chip.DecodeLatencyNs = rs.DecodeNs
	eng := sim.NewEngine()
	dev := ssd.NewWithArray(eng, devCfg, arr)
	if arr == nil {
		if sp.Faults.Enabled() {
			dev.SetFaults(sp.Faults)
		}
		if sp.DisturbProb > 0 {
			dev.SetDisturbProb(sp.DisturbProb)
		}
		if sp.PECycles > 0 || sp.RetentionMonths > 0 {
			dev.PreAge(sp.PECycles, sp.RetentionMonths)
			dev.SetReadJitterProb(0.5) // aged devices see environmental drift
		}
	}
	pol, cube, err := newPolicy(sp, dev, rs)
	if err != nil {
		return Parts{}, err
	}
	cfg := ftl.DefaultControllerConfig()
	if sp.WriteBufferPages > 0 {
		cfg.WriteBufferPages = sp.WriteBufferPages
	}
	cfg.VerifyData = sp.VerifyData
	cfg.RetryMode = rs.Mode
	cfg.Refresh = sp.Refresh
	cfg.WearLevel = sp.WearLevel
	cfg.DurableAcks = sp.DurableAcks
	return Parts{Eng: eng, Dev: dev, Policy: pol, Cube: cube, Config: cfg}, nil
}

// flavors is the flavor table: each policy's short name, its
// experiment display name, and how it is built. A baseline flavor has a
// policy constructor; a cube flavor instead names the configuration its
// CubeFTL starts from.
var flavors = []struct {
	name, display string
	policy        func(dev *ssd.Device) ftl.Policy
	cube          func() core.Config
}{
	{"page", "pageFTL", func(*ssd.Device) ftl.Policy { return ftl.NewPagePolicy() }, nil},
	{"vert", "vertFTL", func(*ssd.Device) ftl.Policy { return ftl.NewVertPolicy() }, nil},
	{"isp", "ispFTL", func(dev *ssd.Device) ftl.Policy {
		return ftl.NewIspPolicy(func(chip, block int) int {
			return dev.Chip(chip).NAND.PECycles(block)
		})
	}, nil},
	{"cube", "cubeFTL", nil, core.DefaultConfig},
	{"cube-", "cubeFTL-", nil, core.MinusConfig},
}

// newPolicy builds sp's flavor from the table ("" selects cube).
func newPolicy(sp Spec, dev *ssd.Device, rs core.RetrySetup) (ftl.Policy, *core.CubeFTL, error) {
	name := sp.Flavor
	if name == "" {
		name = "cube"
	}
	for _, f := range flavors {
		if name != f.name && name != f.display {
			continue
		}
		if f.cube == nil {
			return f.policy(dev), nil, nil
		}
		cube := newCube(sp, dev, rs, f.cube())
		return cube, cube, nil
	}
	var names []string
	for _, f := range flavors {
		names = append(names, f.name, f.display)
	}
	return nil, nil, fmt.Errorf("stack: unknown FTL flavor %q (want one of %v)", sp.Flavor, names)
}

// newCube builds a cube policy from cfg, or from sp.Cube when set, with
// the policy half of the retry setup and both age-bucket hooks. A
// recovery mount rebuilds it identically before restoring its learned
// state from the checkpoint.
func newCube(sp Spec, dev *ssd.Device, rs core.RetrySetup, cfg core.Config) *core.CubeFTL {
	if sp.Cube != nil {
		cfg = *sp.Cube
	}
	cube := core.NewCubeFTL(dev.Geometry(), cfg)
	cube.ApplyRetrySetup(rs)
	cube.SetAgeBucket(core.AgeBucketFor(sp.RetentionMonths))
	// Key the retry table by each block's own retention age. On a fresh
	// or uniformly pre-aged device this resolves to the device-wide
	// bucket above, so replays stay bit-identical; once an aging
	// fast-forward moves individual blocks across bucket boundaries the
	// key moves with the block.
	cube.SetAgeBucketFn(func(chip, block int) int {
		return core.AgeBucketFor(dev.Chip(chip).NAND.EffectiveRetentionMonths(block))
	})
	return cube
}
