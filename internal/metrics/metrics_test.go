package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestAddAndQueryCycles(t *testing.T) {
	r := NewRegistry()
	r.AddCycles("client", TagClientApp, 100)
	r.AddCycles("client", TagClientApp, 50)
	r.AddCycles("client", TagVhostNet, 25)
	r.AddCycles("datanode", TagDiskRead, 10)

	if got := r.Cycles("client", TagClientApp); got != 150 {
		t.Fatalf("Cycles = %d, want 150", got)
	}
	if got := r.EntityCycles("client"); got != 175 {
		t.Fatalf("EntityCycles = %d, want 175", got)
	}
	if got := r.TotalCycles(); got != 185 {
		t.Fatalf("TotalCycles = %d, want 185", got)
	}
	if got := r.Cycles("nobody", "nothing"); got != 0 {
		t.Fatalf("missing entity Cycles = %d, want 0", got)
	}
}

func TestNegativeCyclesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRegistry().AddCycles("e", "t", -1)
}

func TestEntitiesAndTagsSorted(t *testing.T) {
	r := NewRegistry()
	r.AddCycles("zeta", "b", 1)
	r.AddCycles("alpha", "c", 1)
	r.AddCycles("alpha", "a", 1)
	es := r.Entities()
	if len(es) != 2 || es[0] != "alpha" || es[1] != "zeta" {
		t.Fatalf("Entities = %v", es)
	}
	ts := r.Tags("alpha")
	if len(ts) != 2 || ts[0] != "a" || ts[1] != "c" {
		t.Fatalf("Tags = %v", ts)
	}
}

func TestWindowAndUtilization(t *testing.T) {
	r := NewRegistry()
	const freq = 1_000_000_000 // 1 GHz: 1 cycle = 1 ns
	r.AddCycles("vm", "work", 12345)
	r.MarkWindow(10 * time.Second)
	r.AddCycles("vm", "work", 500_000_000) // 0.5s of CPU at 1GHz

	if got := r.WindowCycles("vm", "work"); got != 500_000_000 {
		t.Fatalf("WindowCycles = %d", got)
	}
	u := r.Utilization("vm", "work", 11*time.Second, freq)
	if math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("Utilization = %v, want 0.5", u)
	}
	eu := r.EntityUtilization("vm", 11*time.Second, freq)
	if math.Abs(eu-0.5) > 1e-9 {
		t.Fatalf("EntityUtilization = %v, want 0.5", eu)
	}
	// Zero-length window reports 0 rather than dividing by zero.
	if got := r.Utilization("vm", "work", 10*time.Second, freq); got != 0 {
		t.Fatalf("zero-window Utilization = %v", got)
	}
}

func TestBreakdownOmitsZero(t *testing.T) {
	r := NewRegistry()
	r.MarkWindow(0)
	r.AddCycles("vm", "busy", 1000)
	r.AddCycles("vm", "idle-tag", 0)
	b := r.Breakdown("vm", time.Second, 1_000_000)
	if _, ok := b["idle-tag"]; ok {
		t.Fatal("zero-cycle tag present in breakdown")
	}
	if _, ok := b["busy"]; !ok {
		t.Fatal("busy tag missing from breakdown")
	}
	s := FormatBreakdown(b)
	if s == "" {
		t.Fatal("empty formatted breakdown")
	}
}

func TestLatencyRecorderStats(t *testing.T) {
	l := NewLatencyRecorder()
	if l.Mean() != 0 || l.Min() != 0 || l.Max() != 0 || l.Percentile(50) != 0 {
		t.Fatal("empty recorder should report zeros")
	}
	for _, ms := range []int{5, 1, 3, 2, 4} {
		l.Record(time.Duration(ms) * time.Millisecond)
	}
	if l.Count() != 5 {
		t.Fatalf("Count = %d", l.Count())
	}
	if l.Mean() != 3*time.Millisecond {
		t.Fatalf("Mean = %v", l.Mean())
	}
	if l.Min() != time.Millisecond || l.Max() != 5*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", l.Min(), l.Max())
	}
	if p := l.Percentile(50); p != 3*time.Millisecond {
		t.Fatalf("P50 = %v", p)
	}
	if p := l.Percentile(100); p != 5*time.Millisecond {
		t.Fatalf("P100 = %v", p)
	}
	// Record after sorting still works.
	l.Record(10 * time.Millisecond)
	if l.Max() != 10*time.Millisecond {
		t.Fatalf("Max after re-record = %v", l.Max())
	}
}

func TestThroughputAndRate(t *testing.T) {
	if got := Throughput(100e6, time.Second); math.Abs(got-100) > 1e-9 {
		t.Fatalf("Throughput = %v, want 100", got)
	}
	if got := Throughput(1e6, 0); got != 0 {
		t.Fatalf("Throughput with zero time = %v", got)
	}
	if got := Rate(500, 2*time.Second); math.Abs(got-250) > 1e-9 {
		t.Fatalf("Rate = %v, want 250", got)
	}
}

// Property: mean of a recorder lies between min and max, and percentiles are
// monotone in p.
func TestLatencyPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		l := NewLatencyRecorder()
		for _, v := range raw {
			l.Record(time.Duration(v) * time.Microsecond)
		}
		if l.Mean() < l.Min() || l.Mean() > l.Max() {
			return false
		}
		prev := time.Duration(0)
		for p := 1.0; p <= 100; p += 7 {
			v := l.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: window accounting equals total minus pre-window counts for any
// interleaving of charges.
func TestWindowAccountingProperty(t *testing.T) {
	f := func(pre, post []uint8) bool {
		r := NewRegistry()
		var preSum int64
		for _, v := range pre {
			r.AddCycles("e", "t", int64(v))
			preSum += int64(v)
		}
		r.MarkWindow(time.Second)
		var postSum int64
		for _, v := range post {
			r.AddCycles("e", "t", int64(v))
			postSum += int64(v)
		}
		return r.WindowCycles("e", "t") == postSum && r.Cycles("e", "t") == preSum+postSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A ledger resolved up front (as cpusched.NewThread does) lists its entity
// only once charged, and charging a known tag does not allocate.
func TestLedger(t *testing.T) {
	r := NewRegistry()
	l := r.Ledger("vm")
	if es := r.Entities(); len(es) != 0 {
		t.Fatalf("uncharged ledger listed: %v", es)
	}
	if r.Ledger("vm") != l {
		t.Fatal("Ledger resolved twice to different ledgers")
	}
	l.Charge("work", 10)
	r.MarkWindow(time.Second)
	l.Charge("io", 3)
	if allocs := testing.AllocsPerRun(100, func() { l.Charge("work", 1) }); allocs != 0 {
		t.Fatalf("Charge of a known tag: %v allocs", allocs)
	}
	if es := r.Entities(); len(es) != 1 || es[0] != "vm" {
		t.Fatalf("Entities = %v", es)
	}
	if got := r.WindowCycles("vm", "work"); got != 101 {
		t.Fatalf("WindowCycles(work) = %d, want 101", got)
	}
	if got, want := r.WindowEntityCycles("vm"), int64(104); got != want {
		t.Fatalf("WindowEntityCycles = %d, want %d", got, want)
	}
	if got := r.Cycles("vm", "work"); got != 111 {
		t.Fatalf("Cycles(work) = %d, want 111", got)
	}
}
