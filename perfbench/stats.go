package main

import (
	"bufio"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reached did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			kib, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kib / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// memSnap is the allocation counters around a timed window.
type memSnap struct{ mallocs, numGC uint64 }

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.Mallocs, uint64(m.NumGC)}
}

func (a memSnap) sub(b memSnap) memSnap { return memSnap{a.mallocs - b.mallocs, a.numGC - b.numGC} }

// goldenSet maps "<workload>/seed=<n>/<size>/k<input>" to the recorded
// model fingerprint of that input's run. A run whose key is present must reproduce
// every recorded value exactly.
type goldenSet map[string]map[string]string

//go:embed golden.json
var goldenFS embed.FS

func loadGolden() (goldenSet, error) {
	b, err := goldenFS.ReadFile("golden.json")
	if err != nil {
		return nil, fmt.Errorf("golden values: %w", err)
	}
	var gs goldenSet
	if err := json.Unmarshal(b, &gs); err != nil {
		return nil, fmt.Errorf("golden values: %w", err)
	}
	return gs, nil
}

func goldenKey(c *runCtx, k int) string {
	return fmt.Sprintf("%s/seed=%d/%s/k%d", c.workload, c.seed, c.size(), k)
}

// checkFingerprint compares a run's model fingerprint with the golden
// entry for its key, if one is recorded, and logs the fingerprint so a
// new entry can be recorded from the output.
func checkFingerprint(c *runCtx, r *report, input int, fp map[string]string) {
	key := goldenKey(c, input)
	b, _ := json.Marshal(fp) // a map of strings always marshals
	r.logf("fingerprint %q: %s,", key, b)
	want, ok := c.golden[key]
	if !ok {
		return
	}
	for k, v := range want {
		r.check(fp[k] == v, "golden %s: %s = %q, recorded %q", key, k, fp[k], v)
	}
	r.check(len(want) == len(fp), "golden %s: %d values recorded, run has %d", key, len(want), len(fp))
}

// sameFingerprint reports the first key on which two fingerprints differ.
func sameFingerprint(a, b map[string]string) (string, bool) {
	for k, v := range a {
		if b[k] != v {
			return k, false
		}
	}
	if len(a) != len(b) {
		return "(key count)", false
	}
	return "", true
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
