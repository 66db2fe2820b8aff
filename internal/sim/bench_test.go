package sim

import (
	"testing"
	"time"
)

// The in-package twins of the vread-bench engine rows, here so the hot path
// can be profiled with -cpuprofile without going through the facade binary.

func BenchmarkScheduleFire(b *testing.B) {
	const batch = 1024
	fn := func() {}
	env := NewEnv(1)
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
}

func BenchmarkScheduleCancel(b *testing.B) {
	const batch = 1024
	fn := func() {}
	env := NewEnv(1)
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
}

// BenchmarkTimerWheel is the twin of the engine/timer-wheel row: timers
// 1–200 µs out, the NIC pacing, softirq and disk-completion profile, served
// by the heap like every other event. The name is the row's, kept so the
// BENCH trajectory stays comparable.
func BenchmarkTimerWheel(b *testing.B) {
	const batch = 1024
	fn := func() {}
	env := NewEnv(1)
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
}

// BenchmarkProcSwitch measures one bare resume/park round trip: the engine
// dispatches a parked process, which parks again at once. No event is
// scheduled, so the row is the coroutine switch alone.
func BenchmarkProcSwitch(b *testing.B) {
	env := NewEnv(1)
	defer env.Close()
	p := env.Go("switcher", func(p *Proc) {
		for {
			p.park()
		}
	})
	if err := env.Run(); err != nil { // start it; it parks at once
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		env.dispatch(p)
	}
}
