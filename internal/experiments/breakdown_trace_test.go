package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"vread/internal/core"
	"vread/internal/metrics"
	"vread/internal/trace"
)

// TestBreakdownSpanRegistryAgreement holds the Figure 6–8 ledger to the
// per-request view exactly: with every request traced, the cycles the read
// requests' traces carry must equal the metrics.Registry's window cycles for
// every (entity, tag) but "others". Scheduler-injected cycles (context
// switches, cache-cold refills) are charged to "others" in the registry and
// belong to no request, so there the traces may only fall short.
func TestBreakdownSpanRegistryAgreement(t *testing.T) {
	for _, fig := range []struct {
		name      string
		scenario  Scenario
		transport core.Transport
	}{
		{"fig6", Colocated, core.TransportRDMA},
		{"fig7", Remote, core.TransportRDMA},
		{"fig8", Remote, core.TransportTCP},
	} {
		for _, vread := range []bool{true, false} {
			o := tiny().withDefaults()
			o.Transport, o.VRead = fig.transport, vread
			o.Traces, o.TraceEvery = &trace.Collector{}, 1
			reg, _, err := breakdownCell(o, fig.name, fig.scenario)
			if err != nil {
				t.Fatal(err)
			}
			type key struct{ entity, tag string }
			spans := map[key]int64{}
			for _, tr := range o.Traces.Traces {
				for _, c := range tr.Charges {
					spans[key{c.Entity, c.Tag}] += c.Cycles
				}
			}
			keys := map[key]bool{}
			for k := range spans {
				keys[k] = true
			}
			for _, e := range reg.Entities() {
				for _, tag := range reg.Tags(e) {
					if reg.WindowCycles(e, tag) > 0 {
						keys[key{e, tag}] = true
					}
				}
			}
			if len(spans) == 0 {
				t.Fatalf("%s/%s: no trace charges", fig.name, sysName(vread))
			}
			for k := range keys {
				span, win := spans[k], reg.WindowCycles(k.entity, k.tag)
				bad := span != win
				if k.tag == metrics.TagOthers {
					bad = span > win
				}
				if bad {
					t.Errorf("%s/%s %s/%s: traces carry %d cycles, registry window %d",
						fig.name, sysName(vread), k.entity, k.tag, span, win)
				}
			}
		}
	}
}

// TestBreakdownRowsIgnoreTracing: the bars read the registry, so tracing
// every request, every 4th or none must give the same rows, and the
// caller's sampling rate decides how many requests are traced.
func TestBreakdownRowsIgnoreTracing(t *testing.T) {
	want, err := RunFig7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	traced := map[int]int{}
	for _, every := range []int{1, 4} {
		o := tiny()
		o.Traces, o.TraceEvery = &trace.Collector{}, every
		got, err := RunFig7(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace-every %d: rows %v, untraced %v", every, got, want)
		}
		traced[every] = len(o.Traces.Traces)
	}
	if traced[4] == 0 || traced[4] >= traced[1] {
		t.Errorf("trace-every 4 kept %d traces, trace-every 1 kept %d", traced[4], traced[1])
	}
}

// TestBreakdownTraceDeterminism: two same-seed breakdown runs must produce
// byte-identical Chrome trace JSON — the -trace flag's contract.
func TestBreakdownTraceDeterminism(t *testing.T) {
	export := func() []byte {
		opt := tiny()
		opt.Traces = &trace.Collector{}
		if _, err := runBreakdown(opt, "fig6", Colocated, core.TransportRDMA); err != nil {
			t.Fatal(err)
		}
		if len(opt.Traces.Traces) == 0 {
			t.Fatal("no traces collected")
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, opt.Traces.Traces); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := export()
	b := export()
	if !bytes.Equal(a, b) {
		t.Fatal("Chrome trace JSON differs between identical seeded runs")
	}
	t.Logf("deterministic trace export: %d bytes", len(a))
}

// TestDelayStages exercises the per-stage percentile reducer end to end on
// the Figure 9 workload.
func TestDelayStages(t *testing.T) {
	stats, err := RunDelayStages(tiny(), 1<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no stages")
	}
	found := map[string]bool{}
	for _, s := range stats {
		t.Logf("stage %-7s %-16s n=%-5d p50=%-12v p95=%-12v p99=%v", s.Layer, s.Name, s.Count, s.P50, s.P95, s.P99)
		found[s.Layer.String()+"/"+s.Name] = true
		if s.Count <= 0 {
			t.Errorf("stage %s/%s has no samples", s.Layer, s.Name)
		}
		if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
			t.Errorf("stage %s/%s percentiles not monotonic: %+v", s.Layer, s.Name, s)
		}
	}
	// The vRead read path's stages must be present.
	for _, want := range []string{"client/read1", "lib/vread-read", "ring/ring-drain", "daemon/read-local", "hostfs/host-read"} {
		if !found[want] {
			t.Errorf("stage %s missing (got %v)", want, found)
		}
	}
}
