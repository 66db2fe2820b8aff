package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"vread/internal/trace"
)

// ---------------------------------------------------------------------------
// Metric names and units.

// endToEnd lists the metrics of an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"peak_heap_mb", "MB"},
}

type metricDef struct{ name, unit string }

// perLayer lists the metrics of a traced run. Every workload reports every
// one; a layer a workload does not exercise reads 0.
func perLayer() []metricDef {
	var defs []metricDef
	for _, k := range foldKeys() {
		defs = append(defs, metricDef{k, "fraction"})
	}
	defs = append(defs,
		metricDef{"profile.samples", "count"},
		metricDef{"failed_frac", "fraction"},
		metricDef{"go.allocs_per_event", "allocs/event"},
		metricDef{"go.alloc_bytes_per_event", "B/event"},
		metricDef{"go.gc_cpu_frac", "fraction"},
	)
	for _, p := range []string{"build", "write", "read_cold", "read_warm", "verify"} {
		defs = append(defs,
			metricDef{"phase." + p + "_s", "s"},
			metricDef{"phase." + p + ".events", "count"},
			metricDef{"phase." + p + ".ns_per_event", "ns/event"})
	}
	defs = append(defs,
		metricDef{"shard.k1_wall_s", "s"},
		metricDef{"shard.k2_wall_s", "s"},
		metricDef{"shard.speedup", "x"},
		metricDef{"shard.events", "count"},
		metricDef{"trace.overhead_s", "s"},
		metricDef{"hdfs.read_mb_s", "MB/s"},
		metricDef{"hdfs.write_mb_s", "MB/s"},
		metricDef{"cpusched.client_cpu_ms", "ms"},
		metricDef{"guest.cache_hit_ratio", "fraction"},
		metricDef{"storage.host_cache_hit_ratio", "fraction"},
		metricDef{"storage.disk_read_mb", "MB"},
		metricDef{"storage.disk_write_mb", "MB"},
		metricDef{"core.lib_reads", "count"},
		metricDef{"core.open_fallback_ratio", "fraction"},
		metricDef{"core.retries", "count"},
		metricDef{"core.bytes_local_mb", "MB"},
		metricDef{"core.bytes_remote_mb", "MB"},
		metricDef{"core.refreshes", "count"},
	)
	for l := 0; l < traceLayers; l++ {
		p := "span." + trace.Layer(l).String()
		defs = append(defs,
			metricDef{p + ".count", "count"},
			metricDef{p + ".p50_us", "us"},
			metricDef{p + ".p99_us", "us"})
	}
	return defs
}

func perLayerZero() map[string]metric {
	m := make(map[string]metric)
	for _, d := range perLayer() {
		m[d.name] = metric{0, d.unit}
	}
	return m
}

// ---------------------------------------------------------------------------
// Runtime counters.

// heapPeak samples the heap in use every millisecond until end is called:
// runtime/metrics keeps no high-water mark.
type heapPeak struct {
	stop, done chan struct{}
	max        uint64
	ended      bool
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.max {
				h.max = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler, if it still runs, and returns the highest heap in
// use it saw, in bytes.
func (h *heapPeak) end() uint64 {
	if !h.ended {
		h.ended = true
		close(h.stop)
		<-h.done
	}
	return h.max
}

// runtimeCounters are cumulative runtime/metrics totals.
type runtimeCounters struct {
	allocs, allocBytes, gcCPU, cpu float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocs:     float64(s[0].Value.Uint64()),
		allocBytes: float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		cpu:        s[3].Value.Float64(),
	}
}

func (a runtimeCounters) minus(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.cpu - b.cpu}
}

// ---------------------------------------------------------------------------
// Host fingerprint and comparison.

// host identifies the machine a result was measured on. Results from two
// different hosts are not comparable and -compare refuses them.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func hostFingerprint() host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is the line a run prints before its result: the result with the
// host, workload and seed it was measured at.
type record struct {
	Host     host   `json:"host"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// compareFiles prints, per workload and metric, the median of the records
// in a and in b and their relative change. It refuses, with exit code 3,
// records measured on different hosts.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	ra, err := readRecords(a)
	if err == nil && len(ra) == 0 {
		err = fmt.Errorf("%s: no result records", a)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rb, err := readRecords(b)
	if err == nil && len(rb) == 0 {
		err = fmt.Errorf("%s: no result records", b)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	want := ra[0].Host
	for _, r := range append(ra, rb...) {
		if r.Host != want {
			fmt.Fprintf(stderr, "perfbench: refusing to compare results from different hosts: %+v and %+v\n", want, r.Host)
			return 3
		}
	}
	type key struct {
		workload, metric string
		trace            int
	}
	values := func(rs []record) map[key][]float64 {
		m := make(map[key][]float64)
		for _, r := range rs {
			for name, v := range r.Result.Metrics {
				k := key{r.Workload, name, r.Trace}
				m[k] = append(m[k], v.Value)
			}
		}
		return m
	}
	va, vb := values(ra), values(rb)
	var keys []key
	for k := range va {
		if _, ok := vb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		if keys[i].trace != keys[j].trace {
			return keys[i].trace < keys[j].trace
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(stdout, "%-14s %-36s %14s %14s %9s\n", "workload", "metric", "median A", "median B", "change")
	for _, k := range keys {
		ma, mb := median(va[k]), median(vb[k])
		change := "-"
		if ma != 0 {
			change = fmt.Sprintf("%+.1f%%", (mb/ma-1)*100)
		}
		fmt.Fprintf(stdout, "%-14s %-36s %14.6g %14.6g %9s\n", k.workload, k.metric, ma, mb, change)
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "record ")
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(rest), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
