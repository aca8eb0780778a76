package dispatch

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGateBoundsConcurrency(t *testing.T) {
	const width = 3
	g := NewGate(width)
	var inside, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !g.Enter(nil, 0) {
				t.Error("Enter with nil cancel aborted")
				return
			}
			n := inside.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond) // hold the slot
			inside.Add(-1)
			g.Leave()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > width {
		t.Fatalf("observed %d concurrent renders through a width-%d gate", p, width)
	}
	st := g.Stats()
	if st.Entries != 24 || st.Active != 0 || st.Width != width {
		t.Fatalf("stats %+v", st)
	}
	if st.Waits == 0 {
		t.Fatal("24 renders through 3 slots recorded zero waits")
	}
}

func TestGateUnlimited(t *testing.T) {
	g := NewGate(0)
	for i := 0; i < 100; i++ {
		if !g.Enter(nil, 0) {
			t.Fatal("unlimited gate blocked")
		}
	}
	if st := g.Stats(); st.Active != 100 || st.Width != 0 {
		t.Fatalf("stats %+v", st)
	}
	for i := 0; i < 100; i++ {
		g.Leave()
	}
	if st := g.Stats(); st.Active != 0 {
		t.Fatalf("active after drain = %d", st.Active)
	}
}

func TestGateCancelWhileQueued(t *testing.T) {
	g := NewGate(1)
	if !g.Enter(nil, 0) {
		t.Fatal("first Enter failed")
	}
	cancel := make(chan struct{})
	aborted := make(chan bool, 1)
	go func() { aborted <- g.Enter(cancel, 0) }()
	time.Sleep(10 * time.Millisecond) // let it queue behind the full gate
	close(cancel)
	select {
	case ok := <-aborted:
		if ok {
			t.Fatal("cancelled Enter reported admission")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Enter never returned")
	}
	g.Leave()
	// The aborted waiter must not have consumed the slot.
	if !g.Enter(nil, 0) {
		t.Fatal("slot leaked to a cancelled waiter")
	}
	g.Leave()
}

// waitQueued spins until exactly n waiters are queued at g.
func waitQueued(t *testing.T, g *Gate, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Queued != n {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d", g.Stats().Queued, n)
		}
		runtime.Gosched()
	}
}

// admitOrder holds a width-1 gate, queues one waiter per priority in
// slice order (each queued before the next arrives), then releases the
// slot once per waiter and returns the waiters' indices in the order
// the gate admitted them.
func admitOrder(t *testing.T, priorities []int) []int {
	t.Helper()
	g := NewGate(1)
	if !g.Enter(nil, 0) {
		t.Fatal("first Enter failed")
	}
	admitted := make(chan int)
	for i, p := range priorities {
		go func() {
			if g.Enter(nil, p) {
				admitted <- i
			}
		}()
		waitQueued(t, g, int64(i+1))
	}
	order := make([]int, 0, len(priorities))
	for range priorities {
		g.Leave() // hands the slot to the head waiter
		select {
		case i := <-admitted:
			order = append(order, i)
		case <-time.After(5 * time.Second):
			t.Fatalf("no admission after Leave; admitted so far %v", order)
		}
	}
	g.Leave()
	if st := g.Stats(); st.Active != 0 || st.Queued != 0 {
		t.Fatalf("stats after drain %+v", st)
	}
	return order
}

func TestGateAdmitsInArrivalOrder(t *testing.T) {
	order := admitOrder(t, make([]int, 16))
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order %v, want arrival order", order)
		}
	}
}

func TestGatePriorityOrder(t *testing.T) {
	// The last arrival has the highest priority and goes first; within
	// a priority, arrival order holds.
	order := admitOrder(t, []int{0, 0, 5, 0, 5, 10})
	want := []int{5, 2, 4, 0, 1, 3}
	if !slices.Equal(order, want) {
		t.Fatalf("admission order %v, want %v", order, want)
	}
}

// TestGateCancelRacingLeave: a queued waiter's cancel races the Leave
// that hands it the slot. Whichever wins, the slot is neither lost nor
// duplicated: afterwards exactly width Enters get in without blocking.
func TestGateCancelRacingLeave(t *testing.T) {
	const width, iters = 2, 10000
	g := NewGate(width)
	closed := make(chan struct{})
	close(closed)
	for it := 0; it < iters; it++ {
		for j := 0; j < width; j++ {
			g.Enter(nil, 0)
		}
		cancel := make(chan struct{})
		got := make(chan bool, 1)
		go func() { got <- g.Enter(cancel, 0) }()
		waitQueued(t, g, 1)
		// The waiter wakes to a closed cancel and, as often as not, a
		// slot already handed to it.
		close(cancel)
		g.Leave()
		if <-got {
			g.Leave()
		}
		for j := 1; j < width; j++ {
			g.Leave()
		}
		// A closed cancel makes Enter return false instead of blocking.
		for j := 0; j < width; j++ {
			if !g.Enter(closed, 0) {
				t.Fatalf("iteration %d: slot %d lost", it, j)
			}
		}
		if g.Enter(closed, 0) {
			t.Fatalf("iteration %d: slot duplicated", it)
		}
		for j := 0; j < width; j++ {
			g.Leave()
		}
	}
	if st := g.Stats(); st.Active != 0 || st.Queued != 0 {
		t.Fatalf("stats after the race %+v", st)
	}
}
