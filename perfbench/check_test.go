package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"vread"
	"vread/internal/data"
)

func newTestRunner(t *testing.T, name string, seed int64) *runner {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	gold, err := loadGolden(name)
	if err != nil {
		t.Fatal(err)
	}
	return &runner{w: w, seed: seed, gold: gold, t: &tally{log: io.Discard}}
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		g, err := loadGolden(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(g) < 2 {
			t.Errorf("%s: golden has %d rounds, want the set-up and at least one round", w.name, len(g))
		}
	}
	if _, err := loadGolden("no-such-workload"); err == nil {
		t.Error("a workload without a golden loaded")
	}
}

// TestGoldenHoldsAtHeldOutSeed runs the set-up and first round of every
// workload at a seed the golden was not recorded at, checked against the
// one golden: the simulated lines must not depend on the seed, or a run at
// another seed would be checked against the wrong lines.
func TestGoldenHoldsAtHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's set-up and first round")
	}
	const heldOut = 7919
	for _, w := range workloads {
		r := newTestRunner(t, w.name, heldOut)
		st := runRounds(t, r, 1)
		if r.t.failed != 0 || r.t.attempted == 0 {
			t.Errorf("%s at seed %d: %d of %d checked lines differ from the golden", w.name, heldOut, r.t.failed, r.t.attempted)
		}
		st.close()
	}
}

// runRounds builds r's workload once and runs n checked rounds on it.
func runRounds(t *testing.T, r *runner, n int) state {
	t.Helper()
	st, out, err := r.w.setup(r.seed, false)
	if err != nil {
		t.Fatal(err)
	}
	r.check(0, out.lines, nil)
	r.loop(st, 0, 0, n, nil)
	return st
}

func TestAlteredGoldenRowFails(t *testing.T) {
	r := newTestRunner(t, "shard-storm", 1)
	_, out, err := r.w.setup(r.seed, false)
	if err != nil {
		t.Fatal(err)
	}
	r.check(0, out.lines, nil)
	if r.t.failed != 0 || r.t.attempted != len(out.lines) {
		t.Fatalf("recorded set-up: %d of %d failed", r.t.failed, r.t.attempted)
	}
	altered := append([]line(nil), out.lines...)
	altered[0].text += " "
	r.check(0, altered, nil)
	if r.t.failed != 1 {
		t.Fatalf("altered row: %d failures, want 1", r.t.failed)
	}
}

func TestGoldenLineCountMismatchFails(t *testing.T) {
	r := &runner{w: workload{name: "x"}, gold: [][]string{{digest("a"), digest("b")}}, t: &tally{log: io.Discard}}
	r.check(0, []line{{"a", true}}, nil)
	if r.t.failed == 0 {
		t.Fatal("a missing line passed")
	}
}

func TestReferenceMismatchFails(t *testing.T) {
	r := &runner{w: workload{name: "x"}, t: &tally{log: io.Discard}}
	r.check(3, []line{{"a", true}, {"b", true}}, []line{{"a", true}, {"c", true}})
	if r.t.attempted != 2 || r.t.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", r.t.attempted, r.t.failed)
	}
}

func TestFlippedByteFails(t *testing.T) {
	want := data.NewSlice(data.Pattern{Seed: 7, Size: sampleBytes})
	buf := want.Bytes()
	tl := &tally{log: io.Discard}
	checkSample(tl, "intact", data.NewSlice(data.Bytes(buf)), nil, want)
	flipped := append([]byte(nil), buf...)
	flipped[sampleBytes/3] ^= 0x01
	checkSample(tl, "flipped", data.NewSlice(data.Bytes(flipped)), nil, want)
	if tl.attempted != 2 || tl.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", tl.attempted, tl.failed)
	}
}

func TestVerifyReadsBackThroughVRead(t *testing.T) {
	b := newBed(cell{vread.Hybrid, 2, true}, 1, nil)
	defer b.tb.Close()
	if _, err := b.job("write", vread.RunDFSIOWrite); err != nil {
		t.Fatal(err)
	}
	s := &dfsioState{beds: []*bed{b}}
	tl := &tally{log: io.Discard}
	s.verify(tl)
	if want := dfsioFiles * len(sampleOffsets(dfsioFileSize, 0)); tl.attempted != want || tl.failed != 0 {
		t.Fatalf("attempted %d failed %d, want %d and 0", tl.attempted, tl.failed, want)
	}
	if lib := b.tb.Mgr.LibStats("client"); lib.Reads == 0 {
		t.Fatal("verify did not read through libvread")
	}
}

func TestShardFingerprintSplitFails(t *testing.T) {
	k1 := vread.ShardGridCell{Shards: 1, Fingerprint: 0xabc, Events: 10}
	k2 := k1
	k2.Shards = 2
	if l := shardCheck(k1, k2, nil); !l.ok {
		t.Fatalf("equal cells failed: %s", l.text)
	}
	k2.Fingerprint = 0xabd
	l := shardCheck(k1, k2, nil)
	if l.ok {
		t.Fatal("K=1/K=2 fingerprint split passed")
	}
	r := &runner{w: workload{name: "x"}, t: &tally{log: io.Discard}}
	r.check(1, []line{shardLine("k1", k1, nil), l}, nil)
	if r.t.failed != 1 {
		t.Fatalf("%d failures, want 1", r.t.failed)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, at the root of the
// checkout, in step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q (%s) in BENCHMARK.json, %q (%s) here", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) here", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h host, wall float64) string {
		rec := record{Host: h, Workload: "read-vread", Seed: 1,
			Result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"wall_s": {wall, "s"}}}}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte("record "+string(b)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	here := host{GOMAXPROCS: 2, NumCPU: 2, CPU: "cpu A", Go: "go1.24.0"}
	there := here
	there.CPU = "cpu B"
	a, b, c := write("a", here, 1.0), write("b", here, 1.1), write("c", there, 1.1)
	if code := compareFiles(a, b, io.Discard, io.Discard); code != 0 {
		t.Fatalf("same host: exit %d, want 0", code)
	}
	if code := compareFiles(a, c, io.Discard, io.Discard); code != 3 {
		t.Fatalf("different hosts: exit %d, want 3", code)
	}
}

func TestHeapPeakStopsAndKeepsItsMaximum(t *testing.T) {
	h := startHeapPeak()
	keep := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 64<<10))
	}
	time.Sleep(5 * time.Millisecond)
	v := h.end()
	if v < uint64(len(keep))*64<<10 {
		t.Fatalf("peak %d bytes with %d bytes live", v, len(keep)*64<<10)
	}
	if again := h.end(); again != v {
		t.Fatalf("second end() = %d, first %d", again, v)
	}
}
