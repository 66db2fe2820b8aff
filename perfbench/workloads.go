package main

import (
	"fmt"
	"strings"
	"syscall"
	"time"

	"vread"
	"vread/internal/data"
	"vread/internal/mapred"
	"vread/internal/metrics"
	"vread/internal/trace"
	wl "vread/internal/workload"
)

// workload is one input set of the benchmark. setup builds the state the
// timed work runs on and reports what building it did.
type workload struct {
	name string
	why  string
	// repeats marks workloads whose every round must reproduce the first
	// round's lines exactly (each round rebuilds from the seed).
	repeats bool
	setup   func(seed int64, traced bool) (state, roundOut, error)
}

// state is a built workload, ready for rounds of timed work.
type state interface {
	// round runs one unit of timed work. A failed operation shows as a
	// failed line, not as an error, so the run goes on and counts it.
	round() roundOut
	// verify reads the workload's output back, outside the timed work,
	// counting one operation per sample.
	verify(t *tally) timing
	// stats reports the simulated statistics as of the end of the first
	// round; they are exact, so any change is a change of the simulation.
	stats() map[string]float64
	close()
}

// timing is one host span: wall and process CPU seconds, and the simulated
// events fired inside it.
type timing struct {
	wall, cpu float64
	events    uint64
}

func (a timing) plus(b timing) timing {
	return timing{a.wall + b.wall, a.cpu + b.cpu, a.events + b.events}
}

// line is one checked operation: its simulated output, rendered, and
// whether the workload itself found it wrong.
type line struct {
	text string
	ok   bool
}

// roundOut is what one round (or one set-up) did.
type roundOut struct {
	parts  []timing          // timed parts; wall_s sums their medians
	phases map[string]timing // host spans by phase, summed over cells
	lines  []line            // checked operations
	events uint64            // every simulated event, timed or not
	total  timing            // set-up only: the whole set-up span
}

func (o *roundOut) phase(name string, t timing) {
	if o.phases == nil {
		o.phases = make(map[string]timing)
	}
	o.phases[name] = o.phases[name].plus(t)
	o.events += t.events
}

// measure times fn in host wall and CPU seconds and counts the simulated
// events it fired.
func measure(events func() uint64, fn func()) timing {
	e0 := events()
	c0 := cpuSeconds()
	t0 := time.Now()
	fn()
	return timing{
		wall:   time.Since(t0).Seconds(),
		cpu:    cpuSeconds() - c0,
		events: events() - e0,
	}
}

func noEvents() uint64 { return 0 }

// cpuSeconds is the process's user plus system CPU time, every thread (the
// garbage collector's included).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

var workloads = []workload{
	{
		name:  "read-vanilla",
		why:   "Fig 11/12 reads with vRead off: the 5-copy virtio/guest TCP path, where core does no work",
		setup: setupDFSIO(readCells(false), false),
	},
	{
		name:  "read-vread",
		why:   "the same reads with vRead on: lib, ring, daemon and host cache or RDMA replace virtio and guest TCP",
		setup: setupDFSIO(readCells(true), false),
	},
	{
		name:  "write-refresh",
		why:   "Fig 13 writes, vanilla and vRead with its dentry refresh, so a read-path gain that costs writes shows",
		setup: setupDFSIO(writeCells(), true),
	},
	{
		name:    "shard-storm",
		why:     "the sharded read storm at K=1 and K=2: the only workload on internal/sim/shard",
		repeats: true,
		setup:   setupShard,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// ---------------------------------------------------------------------------
// TestDFSIO workloads (§5.2).

const (
	freqHz = 2_000_000_000
	// dfsioFiles and dfsioFileSize size one cell's dataset. The paper's
	// 5 x 1 GiB at the experiments' default 0.05 scale is 5 x 51 MiB; a
	// third of that gives each workload several rounds per run while every
	// file still spans several blocks.
	dfsioFiles    = 5
	dfsioFileSize = 16 << 20
	// sampleBytes is the size of each read-back sample.
	sampleBytes = 128 << 10
	deadline    = 4 * time.Hour
)

// cell is one grid point; each runs on its own testbed and Env.
type cell struct {
	scenario vread.Scenario
	vms      int
	vread    bool
}

func (c cell) String() string {
	sys := "vanilla"
	if c.vread {
		sys = "vRead"
	}
	return fmt.Sprintf("%s/%dvms/%s", c.scenario, c.vms, sys)
}

// readCells is the Fig 11/12 grid at 2.0 GHz for one system.
func readCells(vr bool) []cell {
	var cells []cell
	for _, s := range []vread.Scenario{vread.Colocated, vread.Remote, vread.Hybrid} {
		for _, vms := range []int{2, 4} {
			cells = append(cells, cell{s, vms, vr})
		}
	}
	return cells
}

// writeCells is the Fig 13 grid: every scenario, vanilla and vRead.
func writeCells() []cell {
	var cells []cell
	for _, s := range []vread.Scenario{vread.Colocated, vread.Remote, vread.Hybrid} {
		for _, vr := range []bool{false, true} {
			cells = append(cells, cell{s, 2, vr})
		}
	}
	return cells
}

// bed is one cell's built testbed.
type bed struct {
	cell
	tb       *vread.Testbed
	cfg      vread.DFSIOConfig
	trackers []*mapred.Tracker
}

func (b *bed) events() uint64 { return b.tb.C.Env.Fired() }

// job runs one TestDFSIO job as a simulated process.
func (b *bed) job(name string, fn func(*vread.Proc, *mapred.Engine, []*mapred.Tracker, vread.DFSIOConfig) (vread.DFSIOResult, error)) (vread.DFSIOResult, error) {
	var res vread.DFSIOResult
	err := b.tb.Run(name, deadline, func(p *vread.Proc) error {
		var err error
		res, err = fn(p, b.tb.Engine, b.trackers, b.cfg)
		return err
	})
	return res, err
}

// line renders one job's simulated outcome. A job fails the check when it
// errs or moves other than the whole dataset.
func (b *bed) line(phase string, res vread.DFSIOResult, t timing, err error, extra string) line {
	if err != nil {
		return line{fmt.Sprintf("%s %s: %v", b.cell, phase, err), false}
	}
	ok := res.Bytes == dfsioFiles*dfsioFileSize && res.IOTime > 0 && res.CPUCycles > 0
	return line{fmt.Sprintf("%s %s bytes=%d job=%d io=%d cycles=%d events=%d%s",
		b.cell, phase, res.Bytes, res.JobElapsed, res.IOTime, res.CPUCycles, t.events, extra), ok}
}

type dfsioState struct {
	write  bool // the timed work is the write (write-refresh)
	beds   []*bed
	traces *trace.Collector // nil unless traced
	rounds int
	// Round-one results that the simulated statistics are derived from.
	writes, reads []vread.DFSIOResult
	first         map[string]float64
}

func setupDFSIO(cells []cell, write bool) func(int64, bool) (state, roundOut, error) {
	return func(seed int64, traced bool) (state, roundOut, error) {
		s := &dfsioState{write: write}
		if traced {
			s.traces = &trace.Collector{}
		}
		var out roundOut
		// The read workloads' set-up writes the dataset; write-refresh
		// writes it as an untimed warm-up, which its rounds then replace.
		writePhase := "write"
		if write {
			writePhase = "warmup"
		}
		for _, c := range cells {
			var b *bed
			out.phase("build", measure(noEvents, func() {
				b = newBed(c, seed, s.traces)
			}))
			s.beds = append(s.beds, b)
			var res vread.DFSIOResult
			var err error
			t := measure(b.events, func() { res, err = b.job("dfsio-write", vread.RunDFSIOWrite) })
			out.phase(writePhase, t)
			out.lines = append(out.lines, b.line(writePhase, res, t, err, ""))
			if err != nil {
				s.close()
				return nil, out, fmt.Errorf("%s: %w", c, err)
			}
			s.writes = append(s.writes, res)
		}
		s.dropTraces()
		return s, out, nil
	}
}

func newBed(c cell, seed int64, traces *trace.Collector) *bed {
	tb := vread.NewTestbed(vread.Options{
		Seed:     seed + 1,
		FreqHz:   freqHz,
		ExtraVMs: c.vms == 4,
		VRead:    c.vread,
		Parallel: 1,
		Traces:   traces,
	})
	tb.Place(c.scenario)
	return &bed{
		cell:     c,
		tb:       tb,
		cfg:      vread.DFSIOConfig{Files: dfsioFiles, FileSize: dfsioFileSize, Seed: uint64(seed + 1)},
		trackers: []*mapred.Tracker{tb.Tracker},
	}
}

func (s *dfsioState) round() roundOut {
	var out roundOut
	var reads, writes []vread.DFSIOResult
	for _, b := range s.beds {
		if s.write {
			// Untimed: remove the previous round's files so every round
			// writes the same paths into the same namespace shape.
			t := measure(b.events, func() {
				err := b.tb.Run("dfsio-clean", deadline, func(p *vread.Proc) error {
					return wl.CleanDFSIO(p, b.tb.Client, b.cfg)
				})
				out.lines = append(out.lines, errLine(b.cell, "clean", err))
			})
			out.events += t.events
			r0 := b.refreshes()
			var res vread.DFSIOResult
			var err error
			t = measure(b.events, func() { res, err = b.job("dfsio-write", vread.RunDFSIOWrite) })
			out.phase("write", t)
			out.parts = append(out.parts, t)
			out.lines = append(out.lines, b.line("write", res, t, err, fmt.Sprintf(" refreshes=%d", b.refreshes()-r0)))
			writes = append(writes, res)
			continue
		}
		var cold, warm vread.DFSIOResult
		var cerr, werr error
		ct := measure(b.events, func() {
			b.tb.DropAllCaches()
			cold, cerr = b.job("dfsio-read-cold", vread.RunDFSIORead)
		})
		wt := measure(b.events, func() { warm, werr = b.job("dfsio-read-warm", vread.RunDFSIORead) })
		out.phase("read_cold", ct)
		out.phase("read_warm", wt)
		out.parts = append(out.parts, ct.plus(wt))
		out.lines = append(out.lines, b.line("read_cold", cold, ct, cerr, ""), b.line("read_warm", warm, wt, werr, ""))
		reads = append(reads, cold, warm)
	}
	s.rounds++
	if s.rounds == 1 {
		if s.write {
			s.writes = writes
		}
		s.reads = reads
		s.first = s.snapshot()
	}
	s.dropTraces()
	return out
}

func errLine(c cell, what string, err error) line {
	if err != nil {
		return line{fmt.Sprintf("%s %s: %v", c, what, err), false}
	}
	return line{fmt.Sprintf("%s %s ok", c, what), true}
}

func (b *bed) refreshes() int64 {
	if b.tb.Mgr == nil {
		return 0
	}
	return b.tb.Mgr.Refreshes()
}

// dropTraces keeps the collector to the traces of the first round, which
// the span statistics are taken from; later rounds' traces are discarded so
// a traced run's memory does not grow with its length.
func (s *dfsioState) dropTraces() {
	if s.traces != nil && s.rounds != 1 {
		s.traces.Traces = nil
	}
}

// verify reads a sample of every DFSIO file back through the cell's own
// client (libvread when vRead is on) and compares it byte for byte with the
// pattern the file was written from.
func (s *dfsioState) verify(t *tally) timing {
	var total timing
	for _, b := range s.beds {
		total = total.plus(measure(b.events, func() {
			err := b.tb.Run("verify", deadline, func(p *vread.Proc) error {
				for i := 0; i < dfsioFiles; i++ {
					// TestDFSIO's file naming (workload.DFSIOConfig.filePath).
					path := fmt.Sprintf("%s/test_io_%d", b.cfg.WithDefaults().Dir, i)
					r, err := b.tb.Client.Open(p, path)
					if err != nil {
						t.fail("%s verify %s: %v", b.cell, path, err)
						continue
					}
					want := data.NewSlice(data.Pattern{Seed: b.cfg.Seed + uint64(i), Size: b.cfg.FileSize})
					for _, off := range sampleOffsets(b.cfg.FileSize, b.cfg.Seed+uint64(i)) {
						got, err := r.ReadAt(p, off, sampleBytes)
						checkSample(t, fmt.Sprintf("%s verify %s at %d", b.cell, path, off), got, err, want.Sub(off, sampleBytes))
					}
					r.Close(p)
				}
				return nil
			})
			if err != nil {
				t.fail("%s verify: %v", b.cell, err)
			}
		}))
	}
	return total
}

// sampleOffsets picks the read-back samples of one file: its first and
// last sampleBytes and two offsets drawn from the file's seed.
func sampleOffsets(size int64, seed uint64) []int64 {
	span := uint64(size - sampleBytes + 1)
	x := seed*0x9e3779b97f4a7c15 + 1
	next := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % span)
	}
	return []int64{0, size - sampleBytes, next(), next()}
}

// checkSample counts one read-back sample: it fails on a read error or on
// any byte that differs from the written pattern.
func checkSample(t *tally, label string, got data.Slice, err error, want data.Slice) {
	switch {
	case err != nil:
		t.fail("%s: %v", label, err)
	case !data.Equal(got, want):
		t.fail("%s: bytes differ from the written pattern", label)
	default:
		t.pass()
	}
}

func (s *dfsioState) close() {
	for _, b := range s.beds {
		b.tb.Close()
	}
}

func (s *dfsioState) stats() map[string]float64 { return s.first }

// snapshot derives the simulated statistics from the round-one results and
// from the counters every layer keeps since its testbed was built.
func (s *dfsioState) snapshot() map[string]float64 {
	m := make(map[string]float64)
	m["hdfs.write_mb_s"] = aggregateMBps(s.writes)
	m["hdfs.read_mb_s"] = aggregateMBps(s.reads)
	timed := s.reads
	if s.write {
		timed = s.writes
	}
	var cpu time.Duration
	for _, r := range timed {
		cpu += r.CPUTime(freqHz)
	}
	m["cpusched.client_cpu_ms"] = float64(cpu) / float64(time.Millisecond)

	var gHit, gMiss, hHit, hMiss, dRead, dWrite int64
	var lib vread.LibStats
	var local, remote, refreshes int64
	for _, b := range s.beds {
		for _, vm := range b.tb.C.AllVMs() {
			st := vm.Cache.Stats()
			gHit, gMiss = gHit+st.HitBytes, gMiss+st.MissBytes
		}
		for _, h := range b.tb.C.Hosts() {
			st := h.Cache.Stats()
			hHit, hMiss = hHit+st.HitBytes, hMiss+st.MissBytes
			ds := h.Disk.Stats()
			dRead, dWrite = dRead+ds.BytesRead, dWrite+ds.BytesWritten
		}
		if mgr := b.tb.Mgr; mgr != nil {
			ls := mgr.LibStats("client")
			lib.Opens += ls.Opens
			lib.OpenFallbacks += ls.OpenFallbacks
			lib.Reads += ls.Reads
			lib.Retries += ls.Retries
			ds := mgr.DaemonStats("client")
			local, remote = local+ds.BytesLocal, remote+ds.BytesRemote
			refreshes += mgr.Refreshes()
		}
	}
	m["guest.cache_hit_ratio"] = ratio(gHit, gHit+gMiss)
	m["storage.host_cache_hit_ratio"] = ratio(hHit, hHit+hMiss)
	m["storage.disk_read_mb"] = float64(dRead) / 1e6
	m["storage.disk_write_mb"] = float64(dWrite) / 1e6
	m["core.lib_reads"] = float64(lib.Reads)
	m["core.open_fallback_ratio"] = ratio(lib.OpenFallbacks, lib.Opens)
	m["core.retries"] = float64(lib.Retries)
	m["core.bytes_local_mb"] = float64(local) / 1e6
	m["core.bytes_remote_mb"] = float64(remote) / 1e6
	m["core.refreshes"] = float64(refreshes)
	if s.traces != nil {
		for k, v := range spanStats(s.traces.Traces) {
			m[k] = v
		}
	}
	return m
}

// aggregateMBps is TestDFSIO's throughput over several jobs: total bytes
// over total per-task I/O time.
func aggregateMBps(rs []vread.DFSIOResult) float64 {
	var bytes int64
	var io time.Duration
	for _, r := range rs {
		bytes += r.Bytes
		io += r.IOTime
	}
	if io <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / io.Seconds()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traceLayers is the number of trace.Layer values (client … net).
const traceLayers = 10

// spanStats reduces request traces to per trace-layer span counts and
// nearest-rank p50/p99, counting each root request under the client layer
// as trace.Stages does.
func spanStats(traces []*trace.Trace) map[string]float64 {
	var recs [traceLayers]metrics.LatencyRecorder
	for _, t := range traces {
		recs[trace.LayerClient].Record(t.Dur())
		for _, sp := range t.Spans {
			if int(sp.Layer) < traceLayers {
				recs[sp.Layer].Record(sp.Dur())
			}
		}
	}
	m := make(map[string]float64)
	for l := range recs {
		prefix := "span." + trace.Layer(l).String()
		m[prefix+".count"] = float64(recs[l].Count())
		m[prefix+".p50_us"] = float64(recs[l].Percentile(50)) / 1e3
		m[prefix+".p99_us"] = float64(recs[l].Percentile(99)) / 1e3
	}
	return m
}

// ---------------------------------------------------------------------------
// Sharded read storm.

// shardConfig sizes the storm (about 300k events) so one K=2 call takes
// about half a second on a 2-CPU machine: long enough to time, short enough
// for many rounds per run.
func shardConfig(seed int64) vread.ShardGridConfig {
	return vread.ShardGridConfig{
		Seed:           seed + 1,
		ReadsPerStream: 2048,
		Deadline:       10 * time.Minute,
	}
}

type shardState struct {
	cfg vread.ShardGridConfig
}

// setupShard times the same RunShardGrid call at one read per stream: the
// cluster build, which happens inside every call.
func setupShard(seed int64, _ bool) (state, roundOut, error) {
	s := &shardState{cfg: shardConfig(seed)}
	one := s.cfg
	one.ReadsPerStream = 1
	c, t, err := runShard(one, 1)
	var out roundOut
	out.phase("build", t)
	out.lines = append(out.lines, shardLine("setup k1", c, err))
	if err != nil {
		return nil, out, err
	}
	return s, out, nil
}

func runShard(cfg vread.ShardGridConfig, k int) (vread.ShardGridCell, timing, error) {
	cfg.Shards = []int{k}
	var cells []vread.ShardGridCell
	var err error
	t := measure(noEvents, func() { cells, err = vread.RunShardGrid(cfg) })
	if err != nil {
		return vread.ShardGridCell{}, t, err
	}
	t.events = cells[0].Events
	return cells[0], t, nil
}

func shardLine(label string, c vread.ShardGridCell, err error) line {
	if err != nil {
		return line{fmt.Sprintf("%s: %v", label, err), false}
	}
	return line{fmt.Sprintf("%s fp=%016x events=%d rows=%s", label, c.Fingerprint, c.Events,
		strings.TrimSpace(vread.RenderSLORows(c.Rows))), true}
}

// round runs the storm at K=1 and then K=2; the K=2 call is the timed part.
func (s *shardState) round() roundOut {
	var out roundOut
	c1, t1, err1 := runShard(s.cfg, 1)
	c2, t2, err2 := runShard(s.cfg, 2)
	out.phase("k1", t1)
	out.phase("k2", t2)
	out.parts = []timing{t2}
	out.lines = []line{shardLine("k1", c1, err1), shardCheck(c1, c2, err2)}
	return out
}

// shardCheck renders the K=2 cell; it fails unless its fingerprint, event
// count and rows equal the K=1 cell's.
func shardCheck(k1, k2 vread.ShardGridCell, err error) line {
	l := shardLine("k2", k2, err)
	if l.ok && (k1.Fingerprint != k2.Fingerprint || k1.Events != k2.Events ||
		vread.RenderSLORows(k1.Rows) != vread.RenderSLORows(k2.Rows)) {
		l.text += fmt.Sprintf(" (K=1 has fp=%016x events=%d)", k1.Fingerprint, k1.Events)
		l.ok = false
	}
	return l
}

func (s *shardState) verify(*tally) timing      { return timing{} }
func (s *shardState) stats() map[string]float64 { return nil }
func (s *shardState) close()                    {}
