package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// The Sleep, Signal and Queue paths must allocate nothing once their slices
// have grown to the working set, like the Schedule/fire cycle in
// engine_test.go. Each test warms up with a few steps, then measures one
// step of virtual time per run.

func assertZeroAllocs(t *testing.T, env *Env, what string, step func()) {
	t.Helper()
	for i := 0; i < 64; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("%s allocates %v objects per step at steady state, want 0", what, allocs)
	}
	env.Close()
}

func runFor(t *testing.T, env *Env, d time.Duration) {
	if err := env.RunFor(d); err != nil {
		t.Fatal(err)
	}
}

// TestProcSleepZeroAlloc asserts the proc-sleep fast path: a park/sleep/wake
// cycle of a long-lived proc performs zero heap allocations at steady state.
// BENCH_2 recorded 1 alloc/op because its benchmark loop rebuilt the env and
// proc per batch; the steady-state contract is what the engine guarantees.
func TestProcSleepZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	env.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	assertZeroAllocs(t, env, "Proc sleep cycle", func() { runFor(t, env, time.Microsecond) })
}

func TestSignalZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	sig, idle := NewSignal(env), NewSignal(env)
	wakes, timeouts := 0, 0
	env.Go("waiter", func(p *Proc) {
		for {
			sig.Wait(p)
			wakes++
		}
	})
	env.Go("timed", func(p *Proc) {
		for {
			// Woken by the Signal/Broadcast below, which cancels its timer.
			if !sig.WaitTimeout(p, time.Hour) {
				t.Error("hour-long WaitTimeout timed out")
			}
		}
	})
	env.Go("idler", func(p *Proc) {
		for {
			// Nobody signals idle: every wait times out and leaves a stale
			// entry behind.
			if !idle.WaitTimeout(p, time.Microsecond/2) {
				timeouts++
			}
		}
	})
	n := 0
	step := func() {
		if n++; n%2 == 0 {
			sig.Broadcast()
		} else {
			sig.Signal()
			sig.Signal()
		}
		runFor(t, env, time.Microsecond)
	}
	assertZeroAllocs(t, env, "Signal wait/wake", step)
	if wakes == 0 || timeouts == 0 {
		t.Fatalf("wakes = %d, timeouts = %d: a path was not exercised", wakes, timeouts)
	}
	if len(idle.waiters) > 2 {
		t.Fatalf("stale timed-out waits piled up: %d entries", len(idle.waiters))
	}
}

func TestQueueZeroAlloc(t *testing.T) {
	env := NewEnv(1)
	bounded := NewQueue[int](env, 3)
	unbounded := NewQueue[int](env, 0)
	got := 0
	env.Go("producer", func(p *Proc) {
		for i := 0; ; i++ {
			bounded.Put(p, i)
			unbounded.Put(p, i)
			if i%4 == 0 {
				p.Sleep(time.Microsecond)
			}
		}
	})
	env.Go("consumer", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
			for k := 0; k < 4; k++ {
				v, _ := bounded.Get(p)
				w, _ := unbounded.Get(p)
				if v != w {
					t.Errorf("queues diverged: %d vs %d", v, w)
				}
				got++
			}
		}
	})
	assertZeroAllocs(t, env, "Queue Put/Get", func() { runFor(t, env, time.Microsecond) })
	if got == 0 {
		t.Fatal("consumer got nothing")
	}
}

// TestProcPanicIsRunError: a panicking Proc stops Run with a procPanic
// error; the panic does not propagate out of the coroutine switch.
func TestProcPanicIsRunError(t *testing.T) {
	env := NewEnv(1)
	env.Go("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("exploded")
	})
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Run re-panicked with %v", r)
			}
		}()
		err = env.Run()
	}()
	var pp *procPanic
	if !errors.As(err, &pp) || pp.proc != "boom" || pp.value != "exploded" {
		t.Fatalf("Run error = %v, want the procPanic of boom", err)
	}
	if env.Live() != 0 {
		t.Fatalf("Live() = %d after the panic", env.Live())
	}
	env.Close()
}

// settleGoroutines waits briefly for exiting goroutines to be reaped and
// returns the final count.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestCompletions: a wait parks until Fire's event and wakes one event
// later, at the same instant; a completion fired before Wait returns at once
// without parking; and the pool reuses completions, so a steady stream of
// waits allocates nothing.
func TestCompletions(t *testing.T) {
	env := NewEnv(1)
	var pool Completions
	woke := time.Duration(-1)
	env.Go("waiter", func(p *Proc) {
		c := pool.Get()
		env.Schedule(5*time.Microsecond, c.Fire)
		pool.Wait(p, c)
		woke = env.Now()

		c = pool.Get()
		c.Fire()
		fired := env.Fired()
		pool.Wait(p, c)
		if env.Fired() != fired || env.Now() != woke {
			t.Error("Wait on a fired completion parked")
		}
		for {
			c := pool.Get()
			env.Schedule(time.Microsecond, c.Fire)
			pool.Wait(p, c)
		}
	})
	runFor(t, env, 10*time.Microsecond)
	if woke != 5*time.Microsecond {
		t.Fatalf("woke at %v, want 5µs", woke)
	}
	assertZeroAllocs(t, env, "Completions wait", func() { runFor(t, env, time.Microsecond) })
}
