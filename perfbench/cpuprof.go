package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileHz is the CPU sampling rate of the traced run: the default
// 100 Hz gives too few samples in a few seconds to split CPU time over
// twenty modules.
const profileHz = 1000

// cpuLayers are the modules CPU time is split over. A sample counts
// toward the innermost stack frame in a cubeftl package (the
// benchmark's own frames count as bench); samples with no such frame
// count as runtime. facade is the root cubeftl package; other is every
// remaining cubeftl package.
var cpuLayers = []string{
	"sim", "ssd", "nand", "ecc", "rng", "process", "vth", "core", "ftl", "host",
	"workload", "metrics", "server", "recovery", "telemetry", "cache", "fleet",
	"facade", "bench", "other", "runtime",
}

// profileCPU runs fn under the CPU profiler and returns the sampled CPU
// nanoseconds per layer.
func profileCPU(fn func() error) (map[string]int64, error) {
	var buf bytes.Buffer
	// Setting the rate first makes StartCPUProfile keep it (it prints a
	// one-line notice to stderr that the rate is already set).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	return layerCPU(&buf)
}

// layerOf maps a function name to its layer, or "" when the function is
// not in a cubeftl package.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "cubeftl/internal/"):
		pkg := strings.TrimPrefix(fn, "cubeftl/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "cubeftl."):
		return "facade"
	case strings.HasPrefix(fn, "cubeftl/"):
		return "other"
	}
	return ""
}

// setCPUShares sets every <layer>.cpu_share from the profile; the
// shares sum to 1.
func setCPUShares(r *report, ns map[string]int64) {
	var total int64
	for _, v := range ns {
		total += v
	}
	for _, l := range cpuLayers {
		r.set(l+".cpu_share", ratio(float64(ns[l]), float64(total)))
	}
	r.logf("cpu profile: %.3f s sampled", float64(total)/1e9)
	r.check(total > 0, "cpu profile has no samples")
}

// layerCPU decodes a gzipped pprof CPU profile (profile.proto) and sums
// each sample's CPU time into the layer of its innermost cubeftl frame.
func layerCPU(r io.Reader) (map[string]int64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := pbFields(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, bb)
				case 2:
					for _, u := range pbUints(nil, v, bb) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(bb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				si := fnName[fid]
				if si < 0 || si >= int64(len(strs)) {
					return nil, errors.New("cpu profile: bad function name index")
				}
				if l := layerOf(strs[si]); l != "" {
					layer = l
					break frames
				}
			}
		}
		out[layer] += s.vals[len(s.vals)-1] // the last value is CPU nanoseconds
	}
	return out, nil
}

// pbFields walks the fields of one protobuf message, calling fn with the
// varint value (wire type 0) or the bytes (wire type 2) of each.
func pbFields(b []byte, fn func(field int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes field")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// pbUints appends a repeated uint64 field occurrence: a single varint,
// or a packed run of them.
func pbUints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		u, n := pbVarint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, u)
		packed = packed[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
