package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFoldChargesRuntimeCalleesToCallingLayer(t *testing.T) {
	samples := []sample{
		// An allocation made by the guest kernel: guest, and malloc.
		{frames: []string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject",
			"vread/internal/guest.(*Kernel).ReadFileAt", "vread/internal/sim.(*Env).run"}, count: 3},
		// A proc handing control back to the engine: sim, and handoff.
		{frames: []string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.wakep",
			"runtime.ready", "runtime.goready", "runtime.chansend1", "vread/internal/sim.(*Proc).park"}, count: 1},
		// Generic instantiations and sub-packages keep their package.
		{frames: []string{"vread/internal/par.Each[go.shape.struct { vread/internal/experiments.x int }]"}, count: 1},
		{frames: []string{"vread/internal/sim/shard.(*Coordinator).epoch"}, count: 1},
		{frames: []string{"vread/internal/faults/chaostest.run"}, count: 1},
		{frames: []string{"vread/internal/analysis.x", "vread.NewTestbed"}, count: 1},
		// This program's frames, as the test binary and as the built
		// binary (package main) name them, with a runtime callee.
		{frames: []string{"vread/perfbench.(*bed).job.func1"}, count: 1},
		{frames: []string{"runtime.mallocgc", "fmt.Sprintf", "main.(*runner).check", "main.(*runner).loop", "main.main"}, count: 2},
		{frames: []string{"main.spanStats[...]"}, count: 1},
	}
	got, n := foldLayers(samples)
	if n != 12 {
		t.Fatalf("total = %d, want 12", n)
	}
	want := map[string]float64{
		"guest.host_frac":  3.0 / 12,
		"sim.host_frac":    1.0 / 12,
		"par.host_frac":    1.0 / 12,
		"shard.host_frac":  1.0 / 12,
		"faults.host_frac": 1.0 / 12,
		"bench.host_frac":  4.0 / 12,
		"other.host_frac":  1.0 / 12,
		"go.host_frac":     0,
		"go.other_frac":    0,
		"go.malloc_frac":   5.0 / 12,
		"go.handoff_frac":  1.0 / 12,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestFoldStacksWithoutVreadFrame(t *testing.T) {
	samples := []sample{
		{frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, count: 2},
		{frames: []string{"runtime.bgsweep"}, count: 1},
		{frames: []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, count: 1},
		{frames: []string{"syscall.Syscall", "os.(*File).Read"}, count: 1},
		{frames: nil, count: 1}, // the profiler's own "_ExternalCode" style samples
	}
	got, _ := foldLayers(samples)
	for k, v := range map[string]float64{
		"go.host_frac":    1,
		"go.gc_frac":      3.0 / 6,
		"go.other_frac":   3.0 / 6,
		"go.handoff_frac": 1.0 / 6,
		"go.malloc_frac":  0,
	} {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestFoldSharesAddUpToOne(t *testing.T) {
	var samples []sample
	for i, l := range layers {
		samples = append(samples, sample{frames: []string{"vread/internal/" + l + ".f"}, count: int64(i + 1)})
	}
	samples = append(samples, sample{frames: []string{"runtime.mcall"}, count: 5})
	got, _ := foldLayers(samples)
	var sum float64
	for _, l := range layers {
		sum += got[l+".host_frac"]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("host_frac shares sum to %v, want 1", sum)
	}
	if g := got["go.gc_frac"] + got["go.other_frac"]; math.Abs(g-got["go.host_frac"]) > 1e-12 {
		t.Fatalf("go.gc_frac + go.other_frac = %v, go.host_frac = %v", g, got["go.host_frac"])
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The test binary names this package by its import path; the built
	// binary would name it "main". Both must fold into bench.
	found := false
	for _, s := range samples {
		for _, f := range s.frames {
			if f == "vread/perfbench.spin" || f == "main.spin" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample in spin among %d samples", len(samples))
	}
	got, n := foldLayers(samples)
	if n == 0 || got["bench.host_frac"] == 0 {
		t.Fatalf("bench.host_frac = %v over %d samples", got["bench.host_frac"], n)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Fatal("parsed garbage")
	}
}
