package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// A measuring process builds its workload's state at least minSetups times
// and until setupSeconds have passed (at most maxSetups times); setup_s is
// the median over the run, and every repetition must produce the same
// simulated lines.
const (
	minSetups    = 3
	maxSetups    = 100
	setupSeconds = 1.0
)

// minRounds keeps a median meaningful when --seconds is shorter than a few
// rounds of timed work.
const minRounds = 3

// profileHz is the CPU profiling rate of the traced run. The default 100 Hz
// leaves the small layers with a handful of samples per run.
const profileHz = 1000

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed (>= 0); the testbeds run at seed+1")
	seconds := fs.Int("seconds", 15, "host seconds of timed work")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run, 0 the end-to-end metrics")
	recordN := fs.Int("record-golden", 0, "run exactly this many rounds and store their digests in -golden-file instead of measuring")
	goldenFile := fs.String("golden-file", "golden.json", "golden file -record-golden updates")
	compare := fs.Bool("compare", false, "compare the result records in two saved outputs given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	case *seed < 0:
		fmt.Fprintln(stderr, "perfbench: -seed must be >= 0")
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1")
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *recordN > 0 {
		if err := recordGolden(w, *seed, *recordN, *goldenFile); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	gold, err := loadGolden(w.name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r := &runner{w: w, seed: *seed, gold: gold, t: &tally{log: stderr}}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		res, err = r.traced(budget)
	} else {
		res, err = r.untraced(budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rec := record{Host: hostFingerprint(), Workload: w.name, Seed: *seed, Trace: *traced, Result: res}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n", line)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner measures one workload at one seed.
type runner struct {
	w    workload
	seed int64
	gold [][]string // golden line digests: [0] set-up, [k] round k
	t    *tally
}

// setup builds the workload repeatedly and keeps the last state. Every
// repetition is checked against the golden and against the first.
func (r *runner) setup(traced bool) (state, []roundOut, error) {
	var outs []roundOut
	var st state
	start := time.Now()
	for rep := 0; rep < maxSetups && (rep < minSetups || time.Since(start).Seconds() < setupSeconds); rep++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		s, out, err := r.w.setup(r.seed, traced)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", r.w.name, err)
		}
		out.total = timing{wall: time.Since(t0).Seconds()}
		var ref []line
		if rep > 0 {
			ref = outs[0].lines
		}
		r.check(0, out.lines, ref)
		st, outs = s, append(outs, out)
	}
	return st, outs, nil
}

// loop runs rounds on st until budget has passed and at least min have
// run, numbering them after the from rounds st has already run. ref, if not
// empty, holds earlier rounds these must reproduce, by number.
func (r *runner) loop(st state, from int, budget time.Duration, min int, ref []roundOut) []roundOut {
	var rounds []roundOut
	start := time.Now()
	for k := from + 1; len(rounds) < min || time.Since(start) < budget; k++ {
		out := st.round()
		var want []line
		switch {
		case k <= len(ref):
			want = ref[k-1].lines
		case r.w.repeats && len(rounds) > 0:
			want = rounds[0].lines
		}
		r.check(k, out.lines, want)
		rounds = append(rounds, out)
	}
	return rounds
}

// check counts every line as one operation. A line fails if the workload
// marked it failed, if it differs from the golden digest recorded for this
// (round, position), or if it differs from the reference line.
func (r *runner) check(round int, got, ref []line) {
	var gold []string
	if round < len(r.gold) {
		gold = r.gold[round]
	}
	if gold != nil && len(gold) != len(got) {
		r.t.fail("%s round %d: %d lines, golden has %d", r.w.name, round, len(got), len(gold))
	}
	if ref != nil && len(ref) != len(got) {
		r.t.fail("%s round %d: %d lines, reference has %d", r.w.name, round, len(got), len(ref))
	}
	for j, l := range got {
		switch {
		case !l.ok:
			r.t.fail("%s round %d: %s", r.w.name, round, l.text)
		case gold != nil && j < len(gold) && digest(l.text) != gold[j]:
			r.t.fail("%s round %d: golden mismatch: %s", r.w.name, round, l.text)
		case ref != nil && j < len(ref) && l.text != ref[j].text:
			r.t.fail("%s round %d: %q differs from reference %q", r.w.name, round, l.text, ref[j].text)
		default:
			r.t.pass()
		}
	}
}

// untraced measures the end-to-end metrics in this process. After the
// set-up, minRounds untimed warm-up rounds run with the heap sampler on; the
// heap high-water mark thus covers a fixed amount of work, so a faster
// machine running more rounds does not read as using more memory, and no
// timed span shares the CPU with the sampler.
func (r *runner) untraced(budget time.Duration) (result, error) {
	st, setups, err := r.setup(false)
	if err != nil {
		return result{}, err
	}
	defer st.close()
	peak := startHeapPeak()
	warm := r.loop(st, 0, 0, minRounds, nil)
	heap := peak.end()
	rounds := r.loop(st, len(warm), budget, minRounds, nil)
	st.verify(r.t)
	var setupWalls []float64
	for _, o := range setups {
		setupWalls = append(setupWalls, o.total.wall)
	}
	m := map[string]metric{
		"wall_s":       {medianSum(walls(rounds)), "s"},
		"cpu_s":        {medianSum(cpus(rounds)), "s"},
		"setup_s":      {median(setupWalls), "s"},
		"peak_heap_mb": {float64(heap) / 1e6, "MB"},
	}
	return r.t.result(m), nil
}

// traced measures the per-layer metrics: half the budget untraced (phase
// spans, runtime counters, simulated statistics), half with the request
// tracer and the CPU profiler on (layer shares, span statistics). The two
// halves must produce the same simulated lines.
func (r *runner) traced(budget time.Duration) (result, error) {
	m := perLayerZero()
	st, setups, err := r.setup(false)
	if err != nil {
		return result{}, err
	}
	rt0 := readRuntime()
	plain := r.loop(st, 0, budget/2, 2, nil)
	rt1 := readRuntime()
	verify := st.verify(r.t)
	plainStats := st.stats()
	st.close()

	tst, tout, err := r.w.setup(r.seed, true)
	if err != nil {
		return result{}, fmt.Errorf("%s traced set-up: %w", r.w.name, err)
	}
	defer tst.close()
	r.check(0, tout.lines, setups[0].lines)
	var prof bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	tr := r.loop(tst, 0, budget/2, 2, plain)
	pprof.StopCPUProfile()
	tst.verify(r.t)
	tracedStats := tst.stats()
	for k, v := range plainStats {
		if tv := tracedStats[k]; tv != v {
			r.t.fail("%s: simulated statistic %s is %v traced, %v untraced", r.w.name, k, tv, v)
		} else {
			r.t.pass()
		}
		m[k] = metric{v, m[k].Unit}
	}
	for k, v := range tracedStats {
		if _, ok := plainStats[k]; !ok {
			m[k] = metric{v, m[k].Unit}
		}
	}

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	shares, n := foldLayers(samples)
	for k, v := range shares {
		m[k] = metric{v, m[k].Unit}
	}
	m["profile.samples"] = metric{float64(n), "count"}

	phaseMetrics(m, setups, plain, verify)
	events := uint64(0)
	for _, o := range plain {
		events += o.events
	}
	rt := rt1.minus(rt0)
	if events > 0 {
		m["go.allocs_per_event"] = metric{rt.allocs / float64(events), "allocs/event"}
		m["go.alloc_bytes_per_event"] = metric{rt.allocBytes / float64(events), "B/event"}
	}
	if rt.cpu > 0 {
		m["go.gc_cpu_frac"] = metric{rt.gcCPU / rt.cpu, "fraction"}
	}
	plainWall := medianSum(walls(plain))
	tracedWall := medianSum(walls(tr))
	m["trace.overhead_s"] = metric{tracedWall - plainWall, "s"}
	res := r.t.result(m)
	m["failed_frac"] = metric{float64(res.Failed) / float64(res.Attempted), "fraction"}
	return res, nil
}

// phaseMetrics reports the benchmark-side host spans: per phase the median
// host seconds across set-up repetitions or rounds, the simulated events of
// the first one (exact), and host nanoseconds per event.
func phaseMetrics(m map[string]metric, setups, rounds []roundOut, verify timing) {
	span := func(phase string, outs []roundOut) (sec float64, events uint64, ok bool) {
		var secs []float64
		for _, o := range outs {
			if t, ok := o.phases[phase]; ok {
				secs = append(secs, t.wall)
			}
		}
		if len(secs) == 0 {
			return 0, 0, false
		}
		return median(secs), outs[0].phases[phase].events, true
	}
	verifyOut := []roundOut{{phases: map[string]timing{"verify": verify}}}
	for _, p := range []struct {
		name string
		outs []roundOut
	}{
		{"build", setups}, {"write", setups}, {"write", rounds},
		{"read_cold", rounds}, {"read_warm", rounds}, {"verify", verifyOut},
	} {
		sec, ev, ok := span(p.name, p.outs)
		if !ok || sec == 0 {
			continue
		}
		m["phase."+p.name+"_s"] = metric{sec, "s"}
		m["phase."+p.name+".events"] = metric{float64(ev), "count"}
		if ev > 0 {
			m["phase."+p.name+".ns_per_event"] = metric{sec * 1e9 / float64(ev), "ns/event"}
		}
	}
	k1, _, _ := span("k1", rounds)
	if k2, ev, ok := span("k2", rounds); ok && k2 > 0 {
		m["shard.k1_wall_s"] = metric{k1, "s"}
		m["shard.k2_wall_s"] = metric{k2, "s"}
		m["shard.speedup"] = metric{k1 / k2, "x"}
		m["shard.events"] = metric{float64(ev), "count"}
	}
}

// medianSum is the sum over a round's timed parts of each part's median
// across rounds ([round][part]): a stall in one part of one round moves one
// sample, not the whole round's total.
func medianSum(rounds [][]float64) float64 {
	if len(rounds) == 0 {
		return 0
	}
	var sum float64
	for i := range rounds[0] {
		var xs []float64
		for _, row := range rounds {
			if i < len(row) {
				xs = append(xs, row[i])
			}
		}
		sum += median(xs)
	}
	return sum
}

func walls(rounds []roundOut) [][]float64 {
	return partValues(rounds, func(t timing) float64 { return t.wall })
}

func cpus(rounds []roundOut) [][]float64 {
	return partValues(rounds, func(t timing) float64 { return t.cpu })
}

func partValues(rounds []roundOut, f func(timing) float64) [][]float64 {
	out := make([][]float64, len(rounds))
	for k, o := range rounds {
		for _, p := range o.parts {
			out[k] = append(out[k], f(p))
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tally counts operations and failures, logging the first few failures.
type tally struct {
	attempted, failed int
	log               io.Writer
}

const maxLogged = 20

func (t *tally) pass() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if t.failed <= maxLogged {
		fmt.Fprintf(t.log, "perfbench: FAIL "+format+"\n", args...)
	}
}

func (t *tally) result(m map[string]metric) result {
	return result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m,
	}
}
