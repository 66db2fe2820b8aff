package faults

import (
	"math"
	"testing"
)

// FuzzParseSpec: ParseSpec never panics, every rule it accepts is one a
// Plan can run (no negative count or delay, a probability that is a number),
// and rendering an accepted spec parses back to the same rules, so a printed
// reproducer replays exactly.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		// The chaos storms' plans.
		"disk.read.slow:p=0.4,delay=2ms",
		"disk.read.error:p=0.08;disk.read.torn:p=0.12",
		"net.frame.drop:p=0.04;net.frame.delay:p=0.3,delay=1ms",
		"rdma.qp.teardown:p=0.03",
		"ring.doorbell.lost:p=0.4;ring.stall:p=0.3,delay=500us",
		"daemon.crash:p=0.05",
		"disk.read.slow:p=0.2,delay=1ms;disk.read.error:p=0.03;disk.read.torn:p=0.05;" +
			"net.frame.drop:p=0.02;net.frame.delay:p=0.2,delay=500us;" +
			"rdma.qp.teardown:p=0.02;ring.doorbell.lost:p=0.2;ring.stall:p=0.2,delay=200us;" +
			"daemon.crash:p=0.02",
		"ring.badslot:p=0.3",
		"ring.stalekey:p=0.3",
		"ring.doorbellstorm:p=0.25",
		"ring.slotheld:p=0.3,delay=500us",
		"ring.badslot:p=0.15;ring.stalekey:p=0.15;ring.doorbellstorm:p=0.1;ring.slotheld:p=0.1,delay=200us",
		"ring.badslot:p=0.15;ring.stalekey:p=0.15;mount.migrate:p=0.2",
		"mount.migrate:p=0.3",
		"rack.kill:p=0.05;mount.migrate:p=0.2",
		"rack.kill:after=10,max=1",
		"shard.kill:p=0.05",
		"domain.partition:p=0.08,delay=2ms",
		"rack.kill:after=8,max=1;shard.kill:p=0.04;domain.partition:p=0.05,delay=1ms;net.frame.drop:p=0.02",
		// Edges of the grammar.
		"ring.stall:p=0",
		"disk.read.slow:delay=-5s",
		"daemon.crash:p=NaN",
		"  ;; ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		for _, r := range spec {
			if r.Delay < 0 || r.AfterN < 0 || r.MaxFires < 0 || math.IsNaN(r.Prob) {
				t.Fatalf("ParseSpec(%q) accepted an unrunnable rule %+v", s, r)
			}
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) rejects the render %q of an accepted spec: %v", s, spec.String(), err)
		}
		if len(again) != len(spec) {
			t.Fatalf("render %q of %q reparses to %d rules, want %d", spec.String(), s, len(again), len(spec))
		}
		for i := range spec {
			if again[i] != spec[i] {
				t.Fatalf("render %q of %q: rule %d reparses as %+v, want %+v", spec.String(), s, i, again[i], spec[i])
			}
		}
	})
}
