package sim

// eventHeap is a monomorphic 4-ary min-heap of *event ordered by (at, seq).
// It replaces container/heap's interface-boxed API on the engine's hottest
// path: push and pop are direct slice operations with no interface
// conversions, and the branching factor of 4 halves the tree depth (fewer
// cache lines touched per sift) while the four-way child comparison stays
// register-resident.
//
// seq is unique per event, so the order is total and pop order — and
// therefore the whole simulation — is deterministic whatever the internal
// layout history (growth, compaction) was.
type eventHeap []*event

// push appends ev and restores the heap property.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev) //lint:allow hotalloc(heap growth amortized: capacity tracks the pending working set)
	h.up(len(*h) - 1)
}

// pop removes and returns the minimum event.
//
//lint:hotpath
func (h *eventHeap) pop() *event {
	old := *h
	n := len(old)
	ev := old[0]
	old[0] = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	if n > 1 {
		h.down(0)
	}
	return ev
}

// init establishes the heap property over arbitrary contents (used after
// compaction filters cancelled events out in place).
func (h eventHeap) init() {
	if len(h) < 2 {
		// (len(h)-2)/4 truncates toward zero, so an empty heap would still
		// enter the loop at i=0 and index out of range; 0- and 1-element
		// heaps are trivially valid.
		return
	}
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		h.down(i)
	}
}

func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !lessEv(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

func (h eventHeap) down(i int) {
	n := len(h)
	ev := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if lessEv(h[c], h[min]) {
				min = c
			}
		}
		if !lessEv(h[min], ev) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = ev
}

// lessEv is the scalar comparison behind less, on events directly so the
// sift loops can hold the moving event in a register.
func lessEv(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
