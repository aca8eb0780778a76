package rudp

import (
	"math"
	"sync"
	"time"
)

// wheelTick is the wheel's timer resolution: an expiry is noticed
// within one tick of its deadline, a fifth of the smallest default RTO.
const wheelTick = time.Millisecond

// Wheel is a hashed timer wheel driving the retransmission timers of
// many connections from a single goroutine. A fleet of demuxed Conns
// (NewDemuxed) shares one Wheel — with a thousand sessions that is one
// timer goroutine rather than a thousand. A Conn from New owns a
// one-slot wheel of its own.
//
// Scheduling is earliest-wins and at-or-after: a connection occupies at
// most one slot, keyed by the absolute tick just past its deadline, and
// re-arming with a later deadline is a no-op (the early firing simply
// observes an unexpired timer and re-schedules itself for the real
// deadline). Connections with no timer armed occupy no slot at all.
// The goroutine sleeps until the earliest occupied tick, not tick by
// tick: an idle wheel costs nothing, and a busy one wakes only at ticks
// where some connection's timer may have expired.
type Wheel struct {
	// now is the clock the wheel ticks by and its Conns read.
	now   func() time.Time
	start time.Time

	mu sync.Mutex
	// slots[i] holds the connections scheduled for any absolute tick t
	// with t % len(slots) == i (the "hashed" part: far-future deadlines
	// share a slot with near ones and are skipped until their tick
	// comes around). The map value is the connection's absolute tick.
	slots []map[*Conn]int64
	sched map[*Conn]int64 // conn -> absolute tick it occupies
	cur   int64           // last absolute tick already fired
	fired []*Conn         // advance's scratch; only the driver touches it
	// armed is the tick the goroutine sleeps until (noTick: none); a
	// schedule sooner than that wakes it to re-arm. A wheel without a
	// goroutine keeps it at math.MinInt64, so nothing ever signals.
	armed int64
	wake  chan struct{}

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewWheel starts a timer wheel on the wall clock with the given slot
// count (rounded up to a power of two; slots <= 0 selects 512). Close
// must be called to stop its goroutine.
func NewWheel(slots int) *Wheel {
	w := newWheel(slots, time.Now)
	w.wg.Add(1)
	go w.run()
	return w
}

// newWheel builds a wheel on clock now without starting a goroutine:
// the caller drives it by calling advance.
func newWheel(slots int, now func() time.Time) *Wheel {
	if slots <= 0 {
		slots = 512
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	w := &Wheel{
		now:   now,
		start: now(),
		slots: make([]map[*Conn]int64, n),
		sched: make(map[*Conn]int64),
		armed: math.MinInt64,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	for i := range w.slots {
		w.slots[i] = make(map[*Conn]int64)
	}
	return w
}

// Close stops the wheel goroutine, if it has one. Connections still
// registered are simply no longer driven; close them first.
func (w *Wheel) Close() {
	w.closeOnce.Do(func() {
		close(w.done)
		w.wg.Wait()
	})
}

// Len reports how many connections currently have a timer scheduled —
// the wheel's live footprint, for tests and stats.
func (w *Wheel) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sched)
}

// tickIndex maps an instant to an absolute tick number.
func (w *Wheel) tickIndex(t time.Time) int64 {
	d := t.Sub(w.start)
	if d < 0 {
		d = 0
	}
	return int64(d / wheelTick)
}

// schedule arms c's next expiry check at or just after deadline.
// Earliest wins: if c is already scheduled sooner (or at the same
// tick), nothing changes — the earlier firing re-schedules for the
// true deadline if the timer hasn't actually expired yet.
func (w *Wheel) schedule(c *Conn, deadline time.Time) {
	idx := w.tickIndex(deadline) + 1 // first tick past the deadline
	w.mu.Lock()
	if idx <= w.cur {
		idx = w.cur + 1
	}
	if old, ok := w.sched[c]; ok {
		if old <= idx {
			w.mu.Unlock()
			return
		}
		delete(w.slots[old&int64(len(w.slots)-1)], c)
	}
	w.sched[c] = idx
	w.slots[idx&int64(len(w.slots)-1)][c] = idx
	if idx < w.armed {
		w.armed = idx
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	w.mu.Unlock()
}

// remove drops c from the wheel (connection closing).
func (w *Wheel) remove(c *Conn) {
	w.mu.Lock()
	if old, ok := w.sched[c]; ok {
		delete(w.sched, c)
		delete(w.slots[old&int64(len(w.slots)-1)], c)
	}
	w.mu.Unlock()
}

// noTick is nextLocked's answer for a wheel with nothing scheduled.
const noTick = math.MaxInt64

func (w *Wheel) run() {
	defer w.wg.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		w.mu.Lock()
		w.armed = w.nextLocked()
		next := w.armed
		w.mu.Unlock()
		var fire <-chan time.Time
		if next != noTick {
			timer.Reset(w.start.Add(time.Duration(next) * wheelTick).Sub(w.now()))
			fire = timer.C
		}
		select {
		case <-w.done:
			return
		case <-w.wake:
			// Re-arm for the sooner tick; a timer that already fired
			// must not leave its value behind for the next sleep.
			if fire != nil && !timer.Stop() {
				<-timer.C
			}
			continue
		case <-fire:
		}
		w.advance(w.now())
	}
}

// nextLocked returns the earliest tick any connection occupies, or
// noTick. Every occupied tick is past cur, so walking the slots from
// cur+1 finds it at its own slot unless it lies a revolution or more
// ahead, in which case the walk has seen every entry. Caller holds mu.
func (w *Wheel) nextLocked() int64 {
	if len(w.sched) == 0 {
		return noTick
	}
	mask := int64(len(w.slots) - 1)
	best := int64(noTick)
	for t := w.cur + 1; t <= w.cur+mask+1; t++ {
		for _, at := range w.slots[t&mask] {
			if at == t {
				return t
			}
			best = min(best, at)
		}
	}
	return best
}

// advance fires every tick up to now: each connection whose tick has
// come runs its timerCheck at now and is rescheduled for the deadline
// it reports. Only one goroutine may drive a wheel.
func (w *Wheel) advance(now time.Time) {
	target := w.tickIndex(now)
	w.fired = w.fired[:0]
	w.mu.Lock()
	// Catch up every tick since the last advance: each slot those ticks
	// hash to is visited once (at most one revolution), and entries in
	// it due by target fire; entries for a later revolution stay put.
	mask := int64(len(w.slots) - 1)
	for t := w.cur + 1; t <= target && t <= w.cur+mask+1; t++ {
		slot := w.slots[t&mask]
		for c, at := range slot {
			if at <= target {
				delete(slot, c)
				delete(w.sched, c)
				w.fired = append(w.fired, c)
			}
		}
	}
	if target > w.cur {
		w.cur = target
	}
	w.mu.Unlock()
	// Expiry processing runs outside the wheel lock: timerCheck takes
	// the connection's own lock and may write to the socket.
	for _, c := range w.fired {
		if next := c.timerCheck(now); !next.IsZero() {
			w.schedule(c, next)
		}
	}
}
