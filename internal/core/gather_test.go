package core_test

import (
	"testing"
	"time"

	"vread/internal/cluster"
	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/metrics"
	"vread/internal/sim"
)

// readBed is a vRead deployment with no HDFS: the block file is written
// straight into a datanode's image before the mounts snapshot it. client and
// dn1 share host1; dn2 is on host2, reached over RDMA.
type readBed struct {
	c       *cluster.Cluster
	mgr     *core.Manager
	lib     *core.Lib
	plan    *faults.Plan // armed at every vRead faultpoint; no rules yet
	content data.Pattern
}

const bedBlock = "/blk"

func newReadBed(t *testing.T, vcfg core.Config) *readBed {
	t.Helper()
	c := cluster.New(1, cluster.Params{})
	plan := faults.NewPlan(c.Env)
	vcfg.Faults = plan
	h1 := c.AddHost("host1")
	h2 := c.AddHost("host2")
	h1.AddVM("client", metrics.TagClientApp)
	dn1 := h1.AddVM("dn1", metrics.TagDatanodeApp)
	dn2 := h2.AddVM("dn2", metrics.TagDatanodeApp)
	content := data.Pattern{Seed: 77, Size: 4 << 20}
	for _, vm := range []*cluster.VM{dn1, dn2} {
		if err := vm.FS.WriteFile(bedBlock, content); err != nil {
			t.Fatal(err)
		}
	}
	mgr := core.NewManager(c, nil, vcfg)
	mgr.MountDatanode("dn1")
	mgr.MountDatanode("dn2")
	return &readBed{c: c, mgr: mgr, lib: mgr.EnableClient("client"), plan: plan, content: content}
}

// TestWholeReadZeroAlloc holds a warm vRead_read at zero allocations end to
// end: the descriptor, the daemon's host read and slot fill, the slot drain
// and the gather, over several doorbell batches (512 KiB is four batches of
// 32 4 KiB slots) — and, for dn2, the RDMA window request, eight 64 KiB
// chunk posts and their completions.
func TestWholeReadZeroAlloc(t *testing.T) {
	const off, n = 12288, 512 << 10
	for _, dn := range []string{"dn1", "dn2"} {
		t.Run(dn, func(t *testing.T) {
			b := newReadBed(t, core.Config{Transport: core.TransportRDMA})
			defer b.c.Close()
			var kick sim.Signal
			var got data.Slice
			var err error
			reads := 0
			b.c.Go("reader", func(p *sim.Proc) {
				vfd, ok := b.lib.OpenPath(p, nil, dn, bedBlock, dn+bedBlock)
				if !ok {
					t.Error("open failed")
					return
				}
				for {
					got, err = vfd.ReadAt(p, nil, off, n)
					reads++
					kick.Wait(p)
				}
			})
			step := func() {
				before := reads
				kick.Signal()
				if err := b.c.Env.RunFor(20 * time.Millisecond); err != nil {
					t.Fatal(err)
				}
				if reads != before+1 {
					t.Fatalf("step finished %d reads, want 1", reads-before)
				}
			}
			if err := b.c.Env.RunFor(20 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			// Warm up: the host cache, the pools, and the event heap, which
			// keeps its capacity once it has grown to the working set.
			for i := 0; i < 200; i++ {
				step()
			}
			if err != nil || !data.Equal(got, data.NewSlice(b.content).Sub(off, n)) {
				t.Fatalf("warm read returned wrong bytes (err %v)", err)
			}
			if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
				t.Fatalf("warm %s read allocates %v objects per read, want 0", dn, allocs)
			}
			st := b.mgr.DaemonStats("client")
			if dn == "dn1" && st.BytesLocal == 0 || dn == "dn2" && st.BytesRemote == 0 {
				t.Fatalf("read did not take the %s path: %+v", dn, st)
			}
		})
	}
}

// TestRetriedReadsKeepOffsets: reads that retry after a torn host read —
// libvread re-issuing the whole range locally, the daemon re-requesting the
// rest of a remote window — return exactly the pattern's bytes at the read's
// offset, never a prefix twice or a gap.
func TestRetriedReadsKeepOffsets(t *testing.T) {
	const off, n = 300001, 1<<20 + 12345
	for _, dn := range []string{"dn1", "dn2"} {
		t.Run(dn, func(t *testing.T) {
			b := newReadBed(t, core.Config{Transport: core.TransportRDMA})
			defer b.c.Close()
			// Tear the second host read: a doorbell batch locally, a 64 KiB
			// chunk on the serving host remotely.
			b.plan.Set(faults.Rule{Point: faults.DiskReadTorn, Prob: 1, AfterN: 1, MaxFires: 1})
			done := false
			b.c.Go("reader", func(p *sim.Proc) {
				vfd, ok := b.lib.OpenPath(p, nil, dn, bedBlock, dn+bedBlock)
				if !ok {
					t.Error("open failed")
					return
				}
				got, err := vfd.ReadAt(p, nil, off, n)
				if err != nil {
					t.Error(err)
					return
				}
				if !data.Equal(got, data.NewSlice(b.content).Sub(off, n)) {
					t.Error("retried read returned wrong bytes")
				}
				done = true
			})
			if err := b.c.Env.RunFor(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if !done {
				t.Fatal("read did not finish")
			}
			if fired := b.plan.Fired(faults.DiskReadTorn); fired != 1 {
				t.Fatalf("torn reads fired %d times, want 1", fired)
			}
			retries, st := b.lib.Stats().Retries, b.mgr.DaemonStats("client")
			if dn == "dn1" && retries != 1 || dn == "dn2" && st.RemoteRetries != 1 {
				t.Fatalf("%s: lib retries %d, remote retries %d; want the torn read retried once", dn, retries, st.RemoteRetries)
			}
		})
	}
}

// TestPreadAcrossBlocksSpills: a pread spanning two blocks gathers windows
// of two block files, so it is the one read shape that spills into a
// Concat; with a torn read retried inside it, the bytes are still exactly
// the file's at the pread's offset.
func TestPreadAcrossBlocksSpills(t *testing.T) {
	fx, plan := newFaultFixture(t, core.Config{})
	defer fx.c.Close()
	content := data.Pattern{Seed: 61, Size: 6 << 20}
	fx.write(t, "/f", content)
	plan.Set(faults.Rule{Point: faults.DiskReadTorn, Prob: 1, AfterN: 1, MaxFires: 1})
	const off, n = 4<<20 - 200000, 450000
	fx.run(t, 240*time.Second, "reader", func(p *sim.Proc) {
		r, err := fx.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		got, err := r.ReadAt(p, off, n)
		if err != nil {
			t.Error(err)
			return
		}
		if parts, ok := got.C.(data.Concat); !ok || len(parts) != 2 {
			t.Errorf("pread across a block boundary gathered %T, want a Concat of 2 runs", got.C)
		}
		if !data.Equal(got, data.NewSlice(content).Sub(off, n)) {
			t.Error("pread across blocks returned wrong bytes")
		}
	})
	if plan.Fired(faults.DiskReadTorn) != 1 || fx.lib.Stats().Retries != 1 {
		t.Fatalf("torn fired %d, lib retries %d; want 1 and 1", plan.Fired(faults.DiskReadTorn), fx.lib.Stats().Retries)
	}
}
