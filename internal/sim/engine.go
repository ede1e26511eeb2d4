// Package sim implements the paper's simulation study (Section IV): a
// pattern-level Monte-Carlo simulator of the VC protocol (the exact
// stochastic process of Fig. 1), an independent machine-level
// discrete-event simulator that models each of the P processors as its own
// exponential failure source, and a parallel Monte-Carlo runner that
// reproduces the paper's methodology (500 runs of at least 500 patterns,
// averaged).
//
// Having two simulators of different granularity is deliberate: the
// pattern-level simulator is the fast oracle used by the experiment
// drivers, and the machine-level simulator validates the platform-rate
// abstraction λ_P = P·λ_ind that both the analysis and the fast simulator
// rely on.
package sim

import "container/heap"

// Engine is a minimal discrete-event simulation kernel: a clock and a
// time-ordered queue of scheduled actions. Ties are broken by scheduling
// order, which keeps runs deterministic.
type Engine struct {
	now float64
	pq  eventHeap
	seq uint64

	// blocks is the event arena: Scheduled values are carved out of
	// fixed-size chunks instead of being heap-allocated one by one, and
	// Reset reclaims every chunk wholesale. This is what makes a reused
	// engine (sim.Workspace) allocation-free: a machine-level run
	// schedules hundreds of events, and with the arena none of them
	// escapes to the garbage collector after the first run.
	blocks [][]Scheduled
	block  int // chunk currently being filled
	used   int // entries used in blocks[block]
}

// arenaChunk sizes the event arena's chunks: one chunk covers a typical
// machine-level run (procs + patterns×segments), so steady-state runs
// touch a single preallocated block.
const arenaChunk = 512

// maxArenaBlocks bounds what the arena retains (and what a pooled
// workspace pins) to ~64×512 events. The arena only reclaims at Reset,
// so an unbounded arena would turn one very long run — a
// billion-pattern campaign is within the service's request budget —
// from the historical O(outstanding events) memory into O(total events
// scheduled). Beyond the cap, events fall back to individual heap
// allocations and the garbage collector reclaims them after they fire,
// exactly as before the arena existed.
const maxArenaBlocks = 64

// alloc carves the next event out of the arena, or heap-allocates once
// the arena is at capacity.
func (e *Engine) alloc() *Scheduled {
	if e.block == len(e.blocks) {
		if e.block == maxArenaBlocks {
			return &Scheduled{}
		}
		e.blocks = append(e.blocks, make([]Scheduled, arenaChunk))
	}
	ev := &e.blocks[e.block][e.used]
	e.used++
	if e.used == arenaChunk {
		e.block++
		e.used = 0
	}
	return ev
}

// Reset returns the engine to time zero with an empty queue, retaining
// the heap's and the arena's capacity for the next run. It invalidates
// every *Scheduled handle obtained before the call: the arena recycles
// their memory, so a stale Cancel could silently hit an unrelated event.
// Callers must drop all handles when they reset (sim.Workspace does).
func (e *Engine) Reset() {
	for i := range e.pq {
		e.pq[i] = nil
	}
	e.pq = e.pq[:0]
	e.now = 0
	e.seq = 0
	e.block, e.used = 0, 0
}

// Scheduled is a handle to a pending event; it can be cancelled.
type Scheduled struct {
	time    float64
	seq     uint64
	action  func()
	stopped bool
	index   int // position in the heap, -1 once popped
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (s *Scheduled) Cancel() { s.stopped = true }

// Time returns the simulated time the event is scheduled for.
func (s *Scheduled) Time() float64 { return s.time }

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of events still queued (including cancelled
// ones not yet drained).
func (e *Engine) Pending() int { return e.pq.Len() }

// Schedule enqueues action to run after delay simulated seconds. A
// negative delay is clamped to zero (fires "now", after the current
// event). It panics on a nil action.
func (e *Engine) Schedule(delay float64, action func()) *Scheduled {
	if action == nil {
		panic("sim: Schedule with nil action")
	}
	if delay < 0 {
		delay = 0
	}
	e.seq++
	ev := e.alloc()
	*ev = Scheduled{time: e.now + delay, seq: e.seq, action: action}
	heap.Push(&e.pq, ev)
	return ev
}

// Step fires the next non-cancelled event. It reports false when the
// queue is exhausted.
func (e *Engine) Step() bool {
	for e.pq.Len() > 0 {
		ev := heap.Pop(&e.pq).(*Scheduled)
		if ev.stopped {
			continue
		}
		e.now = ev.time
		ev.action()
		return true
	}
	return false
}

// Run fires events until the queue empties. Actions may schedule more
// events; the caller is responsible for eventual quiescence.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// eventHeap is a min-heap on (time, seq).
type eventHeap []*Scheduled

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Scheduled)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
