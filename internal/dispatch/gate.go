package dispatch

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Gate bounds how many sessions render on the shared GPU backend at
// once, and decides which session renders next — the fleet-side
// complement of Eq. 4's device picking. Where dispatch.Pick spreads one
// user's requests over many service devices, Gate schedules many users'
// requests onto one service device's rasterizer: admission beyond the
// configured width queues instead of oversubscribing the render workers
// and thrashing every session's latency. CrystalGPU's batching insight
// applies: a bounded number of large, back-to-back rasterizer runs
// beats an unbounded number of interleaved ones.
//
// Admission order is the paper's §VIII scheduling choice: waiters are
// admitted by priority (higher first) and first-come-first-served
// within a priority, so with every priority equal the gate is exactly
// FCFS. Leave hands its slot straight to the head waiter — a newcomer
// can never barge past the queue — and a waiter whose cancel races
// that hand-off passes the slot on instead of dropping it.
//
// The zero-width Gate is unlimited: Enter/Leave become counters only,
// so a fleet can run ungated and still report occupancy.
type Gate struct {
	width int // 0 = unlimited

	mu     sync.Mutex
	inside int           // slots held
	queue  []*gateWaiter // admission order: priority desc, arrival asc

	entries atomic.Int64 // total Enter calls admitted
	waits   atomic.Int64 // Enter calls that found the gate full
	active  atomic.Int64 // sessions currently inside
}

// gateWaiter is one queued Enter; ready is closed when Leave hands it
// the slot.
type gateWaiter struct {
	priority int
	ready    chan struct{}
}

// NewGate builds a gate admitting at most width concurrent renders;
// width <= 0 means unlimited.
func NewGate(width int) *Gate {
	return &Gate{width: max(width, 0)}
}

// Enter blocks until a render slot is free (or immediately if the gate
// is unlimited), or until cancel is closed, in which case it reports
// false and the caller must not render. A nil cancel never aborts.
// While the gate is full, waiters with a higher priority are admitted
// first; equal priorities are admitted in arrival order.
func (g *Gate) Enter(cancel <-chan struct{}, priority int) bool {
	if g.width > 0 && !g.wait(cancel, priority) {
		return false
	}
	g.entries.Add(1)
	g.active.Add(1)
	return true
}

// wait takes a slot, queueing behind a full gate until Leave hands one
// over. It reports false, holding nothing, if cancel closes first.
func (g *Gate) wait(cancel <-chan struct{}, priority int) bool {
	g.mu.Lock()
	if g.inside < g.width {
		g.inside++
		g.mu.Unlock()
		return true
	}
	w := &gateWaiter{priority: priority, ready: make(chan struct{})}
	// Behind every waiter of the same or a higher priority.
	i := sort.Search(len(g.queue), func(i int) bool { return g.queue[i].priority < priority })
	g.queue = slices.Insert(g.queue, i, w)
	g.waits.Add(1)
	g.mu.Unlock()
	select {
	case <-w.ready:
		return true
	case <-cancel:
	}
	g.mu.Lock()
	if i := slices.Index(g.queue, w); i >= 0 {
		g.queue = slices.Delete(g.queue, i, i+1)
		g.mu.Unlock()
		return false
	}
	g.mu.Unlock()
	// Leave handed us the slot as cancel closed: pass it on.
	g.release()
	return false
}

// Leave releases the slot taken by a successful Enter.
func (g *Gate) Leave() {
	g.active.Add(-1)
	if g.width > 0 {
		g.release()
	}
}

// release gives a held slot to the head waiter, or frees it when no one
// waits.
func (g *Gate) release() {
	g.mu.Lock()
	if len(g.queue) == 0 {
		g.inside--
		g.mu.Unlock()
		return
	}
	w := g.queue[0]
	g.queue = slices.Delete(g.queue, 0, 1)
	g.mu.Unlock()
	close(w.ready)
}

// GateStats is a point-in-time occupancy snapshot.
type GateStats struct {
	// Width is the configured concurrency bound (0 = unlimited).
	Width int
	// Entries counts renders admitted; Waits how many of those had to
	// queue behind a full gate first — the fleet's GPU-contention
	// signal.
	Entries, Waits int64
	// Active is the number of sessions rendering right now; Queued the
	// number waiting for a slot right now.
	Active, Queued int64
}

// Stats returns the gate's counters.
func (g *Gate) Stats() GateStats {
	g.mu.Lock()
	queued := len(g.queue)
	g.mu.Unlock()
	return GateStats{
		Width:   g.width,
		Entries: g.entries.Load(),
		Waits:   g.waits.Load(),
		Active:  g.active.Load(),
		Queued:  int64(queued),
	}
}
