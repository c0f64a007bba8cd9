package cubeftl

import (
	"bytes"
	"strings"
	"testing"
)

func TestRecordAndReplayTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := RecordTrace(&buf, "Rocks", 50000, 300, 7); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty trace")
	}
	dev, err := New(smallOptions(FTLCube))
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.RunTrace(bytes.NewReader(buf.Bytes()), "rocks", 300, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 300 || st.IOPS <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRecordTraceUnknownWorkload(t *testing.T) {
	if err := RecordTrace(&bytes.Buffer{}, "nope", 100, 10, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunTraceValidation(t *testing.T) {
	dev, _ := New(smallOptions(FTLPage))
	// Malformed trace.
	if _, err := dev.RunTrace(strings.NewReader("bogus line\n"), "t", 10, 2); err == nil {
		t.Error("malformed trace accepted")
	}
	// Trace beyond the device's capacity.
	huge := strings.NewReader("w 99999999999 1\n")
	if _, err := dev.RunTrace(huge, "t", 10, 2); err == nil {
		t.Error("oversized trace accepted")
	}
}

func TestSuspendAndWearOptions(t *testing.T) {
	opts := smallOptions(FTLCube)
	opts.SuspendOps = true
	opts.WearLevel = true
	dev, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.RunWorkload("Mongo", 400, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 400 {
		t.Fatalf("requests = %d", st.Requests)
	}
}

func TestCheapFigureClosures(t *testing.T) {
	for _, id := range []string{"fig5", "fig8", "fig10", "fig11", "fig13"} {
		var buf bytes.Buffer
		if err := ReproduceFigure(id, 2, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestExpensiveFigureClosures(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack figures")
	}
	// fig14 and the aging fig17 variants exercise the remaining
	// registry entries; fig17a/fig18/tprog/ablations run in benchmarks.
	var buf bytes.Buffer
	if err := ReproduceFigure("fig14", 2, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "NumRetry") {
		t.Error("fig14 output malformed")
	}
}
