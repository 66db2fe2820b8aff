package core

// White-box tests for the hostReader's readahead-window bookkeeping: the
// two-window pipeline, waitInflight on overlapping windows, and the raSeq
// reset on non-sequential (backwards) reads.

import (
	"testing"

	"vread/internal/cluster"
	"vread/internal/sim"
	"vread/internal/trace"
)

const (
	hrChunk    = 256 << 10 // request size driving the reader
	hrFileSize = 8 << 20
	hrObj      = int64(42)
)

var hrKey = raKey{dn: "dn42", path: "blk_42"}

type hrFixture struct {
	c  *cluster.Cluster
	hr *hostReader
	tc *trace.Tracer
}

func newHRFixture(t *testing.T) *hrFixture {
	t.Helper()
	c := cluster.New(1, cluster.Params{})
	h := c.AddHost("host1")
	th := h.CPU.NewThread("hr-test", "hr-test")
	return &hrFixture{
		c:  c,
		hr: newHostReader(Config{}.WithDefaults(), h, th),
		tc: trace.NewTracer(c.Env, 1),
	}
}

// run drives fn as a simulated process and then lets the env drain (so
// outstanding readahead windows complete before the test returns).
func (f *hrFixture) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	f.c.Env.Go("hr-test", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	if err := f.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test process did not finish")
	}
}

// read performs one traced hostReader read and returns its trace.
func (f *hrFixture) read(p *sim.Proc, off int64) *trace.Trace {
	tr := f.tc.Request("hr-read")
	f.hr.read(p, tr, hrObj, hrKey, hrFileSize, off, hrChunk)
	tr.Finish(hrChunk)
	return tr
}

func countEvents(tr *trace.Trace, name string) int {
	n := 0
	for _, s := range tr.Spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// TestHostReaderWindowPipeline: a sequential reader keeps two readahead
// windows in flight, contiguous and non-overlapping, and stops issuing once
// two full windows are ahead of the cursor.
func TestHostReaderWindowPipeline(t *testing.T) {
	f := newHRFixture(t)
	ra := f.hr.cfg.HostReadaheadBytes
	f.run(t, func(p *sim.Proc) {
		f.read(p, 0)
		if got := len(f.hr.raFlight[hrKey]); got != 1 {
			t.Fatalf("after first read: %d windows in flight, want 1", got)
		}
		first := f.hr.raFlight[hrKey][0]
		if first.start != hrChunk || first.end != hrChunk+ra {
			t.Fatalf("first window = [%d,%d), want [%d,%d)", first.start, first.end, hrChunk, int64(hrChunk)+ra)
		}

		// Second read overlaps the in-flight window: waitInflight drains it,
		// and the next window is issued from where the first left off.
		f.read(p, hrChunk)
		f.read(p, 2*hrChunk)
		wins := f.hr.raFlight[hrKey]
		if len(wins) != 2 {
			t.Fatalf("pipeline depth = %d windows, want 2 (%+v)", len(wins), wins)
		}
		if wins[0].end != wins[1].start {
			t.Errorf("windows not contiguous: [%d,%d) then [%d,%d)",
				wins[0].start, wins[0].end, wins[1].start, wins[1].end)
		}
		if wins[0].start < wins[1].end && wins[1].start < wins[0].end {
			t.Errorf("in-flight windows overlap: %+v", wins)
		}
		issued := f.hr.raIssued[hrKey]

		// With two full windows ahead, the next read must not issue more.
		f.read(p, 3*hrChunk)
		if f.hr.raIssued[hrKey] != issued {
			t.Errorf("throttle failed: issued advanced %d → %d with 2 windows ahead",
				issued, f.hr.raIssued[hrKey])
		}
		if f.hr.raSeq[hrKey] != 4*hrChunk {
			t.Errorf("raSeq = %d, want %d", f.hr.raSeq[hrKey], 4*hrChunk)
		}
	})
	// All windows complete once the env drains.
	if got := len(f.hr.raFlight[hrKey]); got != 0 {
		t.Errorf("windows leaked after drain: %d", got)
	}
}

// TestHostReaderWaitInflight: a read overlapping an in-flight readahead
// window blocks on it instead of issuing a duplicate disk read, then hits
// the freshly filled cache.
func TestHostReaderWaitInflight(t *testing.T) {
	f := newHRFixture(t)
	f.run(t, func(p *sim.Proc) {
		tr1 := f.read(p, 0) // cold: misses, issues window [chunk, chunk+ra)
		if countEvents(tr1, "host-cache-miss") != 1 {
			t.Errorf("first read: miss events = %d, want 1", countEvents(tr1, "host-cache-miss"))
		}
		// The window covering [chunk, ...) is still in flight (1 MiB of disk
		// time has not elapsed); this read overlaps it.
		if len(f.hr.raFlight[hrKey]) != 1 || f.hr.raFlight[hrKey][0].finished {
			t.Fatalf("precondition: window not in flight: %+v", f.hr.raFlight[hrKey])
		}
		tr2 := f.read(p, hrChunk)
		if countEvents(tr2, "host-cache-miss") != 0 {
			t.Errorf("overlapping read re-read the disk instead of waiting")
		}
		if countEvents(tr2, "host-cache-hit") != 1 {
			t.Errorf("overlapping read: hit events = %d, want 1", countEvents(tr2, "host-cache-hit"))
		}
	})
}

// TestHostReaderBackwardsSeekResetsSeq: a non-sequential read re-arms the
// sequential detector — raSeq follows the new cursor, the issue high-water
// mark drops, and no window is issued for the seek itself.
func TestHostReaderBackwardsSeekResetsSeq(t *testing.T) {
	f := newHRFixture(t)
	f.run(t, func(p *sim.Proc) {
		f.read(p, 0)
		f.read(p, hrChunk)
		if f.hr.raIssued[hrKey] == 0 {
			t.Fatal("precondition: sequential run issued nothing")
		}
		inFlight := len(f.hr.raFlight[hrKey])

		// Seek back to the start: reset, but never cancels in-flight I/O.
		f.read(p, 0)
		if got := f.hr.raSeq[hrKey]; got != hrChunk {
			t.Errorf("raSeq after backwards seek = %d, want %d", got, hrChunk)
		}
		if got := f.hr.raIssued[hrKey]; got != 0 {
			t.Errorf("raIssued after backwards seek = %d, want 0", got)
		}
		if got := len(f.hr.raFlight[hrKey]); got != inFlight {
			t.Errorf("backwards seek changed in-flight windows: %d → %d", inFlight, got)
		}

		// Resuming sequentially re-issues from the new cursor, not from the
		// stale pre-seek high-water mark.
		f.read(p, hrChunk)
		wins := f.hr.raFlight[hrKey]
		if len(wins) == 0 {
			t.Fatal("no window issued after resuming the sequential run")
		}
		last := wins[len(wins)-1]
		if last.start != 2*hrChunk {
			t.Errorf("resumed window starts at %d, want %d (cursor), not the stale mark", last.start, 2*hrChunk)
		}
		if f.hr.raIssued[hrKey] != last.end {
			t.Errorf("raIssued = %d, want %d", f.hr.raIssued[hrKey], last.end)
		}
	})
}
