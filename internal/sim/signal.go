package sim

import "time"

// Signal is a reusable wake-up point: processes Wait on it, other code
// (processes or event callbacks) Signals or Broadcasts it. There is no
// memory: a Broadcast with no waiters is a no-op, exactly like a condition
// variable. Use Gate for level-triggered conditions.
//
// The zero Signal is ready to use: wake-ups are scheduled on the waiting
// process's own Env.
type Signal struct {
	// waiters[head:] are the queued waits in arrival order. An entry whose
	// seq no longer matches its Proc's waitSeq is stale (the wait ended by
	// timeout) and is skipped.
	waiters []waiter
	head    int
}

type waiter struct {
	p   *Proc
	seq uint64
}

func (w waiter) live() bool { return w.seq == w.p.waitSeq }

// NewSignal returns a Signal for the processes of env.
func NewSignal(env *Env) *Signal { return &Signal{} }

// Wait suspends p until the next Signal or Broadcast.
//
//lint:hotpath
func (s *Signal) Wait(p *Proc) {
	p.checkContext()
	s.enqueue(p)
	p.park()
}

// WaitTimeout suspends p until the next Signal/Broadcast or until d elapses.
// It reports false on timeout.
//
//lint:hotpath
func (s *Signal) WaitTimeout(p *Proc, d time.Duration) bool {
	p.checkContext()
	s.enqueue(p)
	p.armedSeq = p.waitSeq
	p.timedOut = false
	timer := p.env.Schedule(d, p.timeout)
	p.park()
	timer.Cancel()
	return !p.timedOut
}

// enqueue appends p's current wait. When the backing array is full and at
// least half of it is consumed or stale, it compacts in place instead of
// growing, so timed-out waits cannot grow the array without bound.
func (s *Signal) enqueue(p *Proc) {
	if n := len(s.waiters); n > 0 && n == cap(s.waiters) && 2*(s.head+s.stale()) >= n {
		s.compact()
	}
	s.waiters = append(s.waiters, waiter{p: p, seq: p.waitSeq}) //lint:allow hotalloc(amortized: compaction keeps capacity proportional to the live waiters)
}

// stale counts the queued entries whose wait already ended.
func (s *Signal) stale() int {
	n := 0
	for _, w := range s.waiters[s.head:] {
		if !w.live() {
			n++
		}
	}
	return n
}

// compact moves the live entries to the front, preserving their order.
func (s *Signal) compact() {
	kept := s.waiters[:0]
	for _, w := range s.waiters[s.head:] {
		if w.live() {
			kept = append(kept, w) //lint:allow hotalloc(filters in place: capacity bounded by the source slice, never grows)
		}
	}
	clear(s.waiters[len(kept):])
	s.waiters = kept
	s.head = 0
}

// Signal wakes exactly one waiting process (the longest-waiting one). It
// reports whether a process was woken. The wake-up schedules the process's
// prebound wake closure, so signalling allocates nothing.
//
//lint:hotpath
func (s *Signal) Signal() bool {
	for s.head < len(s.waiters) {
		w := s.waiters[s.head]
		s.waiters[s.head] = waiter{}
		s.head++
		if s.head == len(s.waiters) {
			s.waiters = s.waiters[:0]
			s.head = 0
		}
		if !w.live() {
			continue
		}
		w.p.waitSeq++
		w.p.env.Schedule(0, w.p.wake)
		return true
	}
	return false
}

// Broadcast wakes every currently waiting process.
//
//lint:hotpath
func (s *Signal) Broadcast() {
	ws := s.waiters[s.head:]
	s.waiters = s.waiters[:0]
	s.head = 0
	for i, w := range ws {
		ws[i] = waiter{}
		if !w.live() {
			continue
		}
		w.p.waitSeq++
		w.p.env.Schedule(0, w.p.wake)
	}
}

// Waiters returns the number of processes currently waiting.
func (s *Signal) Waiters() int {
	return len(s.waiters) - s.head - s.stale()
}

// Gate is a level-triggered condition: Open lets all present and future
// waiters through until Close. It replaces the common "check flag, maybe
// wait" pattern.
type Gate struct {
	open bool
	sig  *Signal
}

// NewGate returns a Gate in the given initial state.
func NewGate(env *Env, open bool) *Gate {
	return &Gate{open: open, sig: NewSignal(env)}
}

// Wait blocks p until the gate is open.
func (g *Gate) Wait(p *Proc) {
	for !g.open {
		g.sig.Wait(p)
	}
}

// Open opens the gate and wakes all waiters.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	g.sig.Broadcast()
}

// Close closes the gate; subsequent Wait calls block.
func (g *Gate) Close() { g.open = false }

// IsOpen reports the gate state.
func (g *Gate) IsOpen() bool { return g.open }

// Mutex is a simulated mutual-exclusion lock. Lock order is FIFO.
type Mutex struct {
	locked bool
	sig    *Signal
}

// NewMutex returns an unlocked mutex.
func NewMutex(env *Env) *Mutex { return &Mutex{sig: NewSignal(env)} }

// Lock blocks p until the mutex is acquired.
//
//lint:hotpath
func (m *Mutex) Lock(p *Proc) {
	for m.locked {
		m.sig.Wait(p)
	}
	m.locked = true
}

// Unlock releases the mutex. Unlocking an unlocked mutex panics.
//
//lint:hotpath
func (m *Mutex) Unlock() {
	if !m.locked {
		panic("sim: unlock of unlocked Mutex")
	}
	m.locked = false
	m.sig.Signal()
}

// TryLock acquires the mutex if it is free, reporting success.
func (m *Mutex) TryLock() bool {
	if m.locked {
		return false
	}
	m.locked = true
	return true
}
