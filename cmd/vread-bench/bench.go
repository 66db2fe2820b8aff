// Benchmark mode: vread-bench -bench <out.json> measures the simulator's own
// performance — event-engine microbenchmarks and experiment-grid wall clock —
// and writes one JSON snapshot. The Makefile's `make bench` target names the
// snapshots BENCH_<n>.json so the perf trajectory accumulates across PRs.
//
// This file is the one place in the tree allowed to consult the wall clock:
// it measures the simulator from the outside, it never feeds results back in.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"vread"
)

// engineBench is one event-engine microbenchmark result.
type engineBench struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// experimentBench is one experiment-level wall-clock measurement. Rows that
// exercise multi-core execution carry the parallelism they ran with
// (GoMaxProcs, Shards) so the gate can compare like with like across
// machines.
type experimentBench struct {
	Name            string  `json:"name"`
	WallMs          float64 `json:"wall_ms"`
	Rows            int     `json:"rows"`
	Events          int64   `json:"events,omitempty"`
	EventsPerSec    float64 `json:"events_per_sec,omitempty"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
	GoMaxProcs      int     `json:"go_maxprocs,omitempty"`
	Shards          int     `json:"shards,omitempty"`
}

// benchReport is the BENCH_<n>.json schema.
type benchReport struct {
	GoMaxProcs  int               `json:"go_maxprocs"`
	Scale       float64           `json:"scale"`
	Short       bool              `json:"short,omitempty"`
	Engine      []engineBench     `json:"engine"`
	Experiments []experimentBench `json:"experiments"`
}

// runBenchSuite runs every benchmark and writes the report to path.
func runBenchSuite(path string, scale float64, short bool) error {
	if short {
		scale = scale / 4
	}
	report := benchReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      scale,
		Short:      short,
	}

	report.Engine = append(report.Engine,
		benchScheduleFire(),
		benchScheduleCancel(),
		benchTimerWheel(),
		benchProcSleep(),
	)

	grid, err := benchFig11Grid(scale)
	if err != nil {
		return fmt.Errorf("bench fig11 grid: %w", err)
	}
	report.Experiments = append(report.Experiments, grid...)

	sharded, err := benchShardGrid(scale)
	if err != nil {
		return fmt.Errorf("bench shard grid: %w", err)
	}
	report.Experiments = append(report.Experiments, sharded...)

	faults, err := benchFaultOverhead(scale)
	if err != nil {
		return fmt.Errorf("bench fault overhead: %w", err)
	}
	report.Experiments = append(report.Experiments, faults...)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchScheduleFire measures the engine hot path: one Schedule plus one fire,
// amortized over batches so the queue stays realistically sized.
func benchScheduleFire() engineBench {
	const batch = 1024
	fn := func() {}
	res := testing.Benchmark(func(b *testing.B) {
		env := vread.NewEnv(1)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n += batch {
			k := batch
			if rem := b.N - n; rem < k {
				k = rem
			}
			for j := 0; j < k; j++ {
				env.Schedule(time.Duration(j)*time.Nanosecond, fn)
			}
			if err := env.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return toEngineBench("engine/schedule-fire", res)
}

// benchScheduleCancel measures the cancel-heavy timeout pattern: every
// second timer is cancelled before it can fire.
func benchScheduleCancel() engineBench {
	const batch = 1024
	fn := func() {}
	res := testing.Benchmark(func(b *testing.B) {
		env := vread.NewEnv(1)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n += batch {
			k := batch
			if rem := b.N - n; rem < k {
				k = rem
			}
			for j := 0; j < k; j++ {
				tm := env.Schedule(time.Duration(j)*time.Nanosecond, fn)
				if j%2 == 1 {
					tm.Cancel()
				}
			}
			if err := env.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return toEngineBench("engine/schedule-cancel", res)
}

// benchTimerWheel measures schedule+fire for timers 1–200 µs out — the
// NIC pacing, softirq and disk-completion timer profile — rather than the
// nanosecond spread of the schedule-fire bench. The engine's one queue, the
// 4-ary heap, serves them; the row keeps its name so the BENCH trajectory
// stays comparable across snapshots.
func benchTimerWheel() engineBench {
	const batch = 1024
	fn := func() {}
	res := testing.Benchmark(func(b *testing.B) {
		env := vread.NewEnv(1)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n += batch {
			k := batch
			if rem := b.N - n; rem < k {
				k = rem
			}
			for j := 0; j < k; j++ {
				env.Schedule(time.Duration(j%200+1)*time.Microsecond, fn)
			}
			if err := env.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return toEngineBench("engine/timer-wheel", res)
}

// benchProcSleep measures the steady-state coroutine handoff: one process
// sleeping in a tight loop (two events and two coroutine switches per
// iteration). The environment and process are created once and warmed
// before the timer starts, so the number reported is the recurring cost —
// which must be allocation-free.
func benchProcSleep() engineBench {
	res := testing.Benchmark(func(b *testing.B) {
		env := vread.NewEnv(1)
		defer env.Close()
		env.Go("sleeper", func(p *vread.Proc) {
			for {
				p.Sleep(time.Microsecond)
			}
		})
		if err := env.RunFor(256 * time.Microsecond); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if err := env.RunFor(time.Microsecond); err != nil {
				b.Fatal(err)
			}
		}
	})
	return toEngineBench("engine/proc-sleep", res)
}

func toEngineBench(name string, res testing.BenchmarkResult) engineBench {
	ns := float64(res.NsPerOp())
	eps := 0.0
	if ns > 0 {
		eps = 1e9 / ns
	}
	return engineBench{
		Name:         name,
		NsPerOp:      ns,
		AllocsPerOp:  float64(res.AllocsPerOp()),
		EventsPerSec: eps,
	}
}

// benchFig11Grid measures the full Figures 11/12 grid (36 independent cells)
// twice — serial (Parallel=1) and fanned out over one worker per CPU
// (Parallel=0) — and reports the wall-clock speedup next to the
// simulated-events/sec each mode sustains.
func benchFig11Grid(scale float64) ([]experimentBench, error) {
	serial, err := benchGridOnce("fig11-grid/serial", scale, 1)
	if err != nil {
		return nil, err
	}
	parallel, err := benchGridOnce("fig11-grid/parallel", scale, 0)
	if err != nil {
		return nil, err
	}
	if parallel.WallMs > 0 {
		parallel.SpeedupVsSerial = serial.WallMs / parallel.WallMs
	}
	return []experimentBench{serial, parallel}, nil
}

// benchFaultOverhead measures what an armed-but-silent fault plan costs: the
// same DFSIO point with no plan versus a plan arming every faultpoint at
// probability zero, so each injection site is evaluated on the hot path but
// never fires. The armed row's speedup_vs_serial field is its slowdown
// relative to the unarmed run (1.0 = free).
func benchFaultOverhead(scale float64) ([]experimentBench, error) {
	run := func(name string, spec vread.FaultSpec) (experimentBench, error) {
		stats := &vread.RunStats{}
		opt := vread.Options{Seed: 1, Scale: scale, VRead: true, Faults: spec, Stats: stats}
		start := time.Now() //lint:allow determinism(bench harness measures the simulator from outside)
		rows, err := vread.RunDFSIOPoint(opt, vread.Colocated, 2, 0, true)
		if err != nil {
			return experimentBench{}, err
		}
		wall := time.Since(start) //lint:allow determinism(bench harness measures the simulator from outside)
		eb := experimentBench{
			Name:   name,
			WallMs: float64(wall) / float64(time.Millisecond),
			Rows:   len(rows),
			Events: stats.Events(),
		}
		if wall > 0 {
			eb.EventsPerSec = float64(stats.Events()) / wall.Seconds()
		}
		return eb, nil
	}
	off, err := run("fault-overhead/off", nil)
	if err != nil {
		return nil, err
	}
	var silent vread.FaultSpec
	for _, pt := range vread.FaultPoints() {
		silent = append(silent, vread.FaultRule{Point: pt, Prob: 0})
	}
	armed, err := run("fault-overhead/armed-never-fire", silent)
	if err != nil {
		return nil, err
	}
	if armed.WallMs > 0 {
		armed.SpeedupVsSerial = off.WallMs / armed.WallMs
	}
	return []experimentBench{off, armed}, nil
}

// benchShardGrid measures the sharded engine itself: the same read storm run
// serially (one shard) and with one shard per CPU, on identical virtual
// scenarios — the cells' fingerprints are checked equal before the wall
// clocks are compared. On a single-CPU machine the parallel row still runs
// (two shards over one core) and its speedup is honestly ~1 or below; the
// gate only compares speedups between reports with the same go_maxprocs.
func benchShardGrid(scale float64) ([]experimentBench, error) {
	reads := int(1600 * scale)
	if reads < 4 {
		reads = 4
	}
	k := runtime.NumCPU()
	if k < 2 {
		k = 2
	}
	cells, err := vread.RunShardGrid(vread.ShardGridConfig{
		Seed:           1,
		Domains:        1,
		RacksPerDomain: 4,
		HostsPerRack:   4,
		ClientHosts:    4,
		StreamsPerHost: 4,
		ReadsPerStream: reads,
		Deadline:       time.Duration(reads) * 8 * time.Millisecond,
		Shards:         []int{1, k},
	})
	if err != nil {
		return nil, err
	}
	if cells[1].Fingerprint != cells[0].Fingerprint {
		return nil, fmt.Errorf("shard grid diverged: K=%d fingerprint %#x, serial %#x",
			cells[1].Shards, cells[1].Fingerprint, cells[0].Fingerprint)
	}
	out := make([]experimentBench, 2)
	for i, cell := range cells {
		name := "shard-grid/serial"
		if i == 1 {
			name = "shard-grid/parallel"
		}
		eb := experimentBench{
			Name:       name,
			WallMs:     float64(cell.Wall) / float64(time.Millisecond),
			Rows:       len(cell.Rows),
			Events:     int64(cell.Events),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			Shards:     cell.Shards,
		}
		if cell.Wall > 0 {
			eb.EventsPerSec = float64(cell.Events) / cell.Wall.Seconds()
		}
		out[i] = eb
	}
	if out[1].WallMs > 0 {
		out[1].SpeedupVsSerial = out[0].WallMs / out[1].WallMs
	}
	return out, nil
}

func benchGridOnce(name string, scale float64, parallelism int) (experimentBench, error) {
	stats := &vread.RunStats{}
	opt := vread.Options{Seed: 1, Scale: scale, Parallel: parallelism, Stats: stats}
	start := time.Now() //lint:allow determinism(bench harness measures the simulator from outside)
	rows, err := vread.RunFig11and12(opt)
	if err != nil {
		return experimentBench{}, err
	}
	wall := time.Since(start) //lint:allow determinism(bench harness measures the simulator from outside)
	eb := experimentBench{
		Name:   name,
		WallMs: float64(wall) / float64(time.Millisecond),
		Rows:   len(rows),
		Events: stats.Events(),
	}
	if wall > 0 {
		eb.EventsPerSec = float64(stats.Events()) / wall.Seconds()
	}
	return eb, nil
}
