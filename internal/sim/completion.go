package sim

// Completions pools one-shot completions for the wait-for-a-callback pattern
// of the device and CPU models: submit work with an onDone callback, then
// park until it runs. A wait costs no fresh Signal or closure: each pooled
// Completion's Fire is bound once. The zero Completions is ready to use;
// keep one per thread or device, and the pool grows to the number of
// processes waiting on it at once.
type Completions struct {
	free []*Completion
}

// Completion is one pending wait taken from a Completions pool.
type Completion struct {
	// Fire marks the wait complete and wakes the waiting process. Hand it to
	// exactly one callback, which must call it at most once.
	Fire func()
	sig  Signal
	done bool
}

// Get takes an idle completion from the pool, or makes one when every pooled
// completion is in use.
func (cs *Completions) Get() *Completion {
	if n := len(cs.free); n > 0 {
		c := cs.free[n-1]
		cs.free[n-1] = nil
		cs.free = cs.free[:n-1]
		return c
	}
	c := &Completion{} //lint:allow hotalloc(pool refill: once per concurrent waiter, zero at steady state)
	c.Fire = func() {  //lint:allow hotalloc(bound once per pooled completion)
		c.done = true
		c.sig.Broadcast()
	}
	return c
}

// Wait parks p until c fires, then returns c to the pool. The wake-up is the
// Signal broadcast's: the firing event schedules p's wake at the same
// instant. A completion that fired before Wait returns at once.
//
//lint:hotpath
func (cs *Completions) Wait(p *Proc, c *Completion) {
	for !c.done {
		c.sig.Wait(p)
	}
	c.done = false
	cs.free = append(cs.free, c) //lint:allow hotalloc(pool growth amortized: one slot per concurrent waiter)
}
