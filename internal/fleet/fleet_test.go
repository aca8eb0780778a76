package fleet_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/fleet"
	"github.com/gbooster/gbooster/internal/rudp"
)

func TestFleetSmoke(t *testing.T) {
	hub, leaves := newStar(t, 2, 101)
	cfg := newFleetConfig()
	m, err := fleet.New(hub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	clients := make([]*testClient, 2)
	for i := range clients {
		clients[i] = newTestClient(leaves[i], hub.Addr(), uint64(i+1)<<32)
		defer clients[i].close()
	}
	const frames = 5
	for f := 0; f < frames; f++ {
		for i, c := range clients {
			sent, err := c.sendFrame(float32(i) * 0.5)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.recvFrame(10 * time.Second)
			if err != nil {
				t.Fatalf("client %d frame %d: %v", i, f, err)
			}
			if got != sent {
				t.Fatalf("client %d: reply seq %d for request %d", i, got, sent)
			}
		}
	}
	st := m.Stats()
	if st.Sessions != 2 || st.Admitted != 2 {
		t.Fatalf("sessions=%d admitted=%d, want 2/2", st.Sessions, st.Admitted)
	}
	if st.Frames != 2*frames {
		t.Fatalf("frames=%d, want %d", st.Frames, 2*frames)
	}
	if st.Gate.Entries != 2*frames {
		t.Fatalf("gate entries=%d, want %d", st.Gate.Entries, 2*frames)
	}
}

func TestFleetAdmissionOverCapacity(t *testing.T) {
	hub, leaves := newStar(t, 3, 7)
	cfg := newFleetConfig()
	cfg.MaxSessions = 2
	cfg.IdleTimeout = 2 * time.Second
	m, err := fleet.New(hub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Two clients fill the fleet.
	admitted := make([]*testClient, 2)
	for i := range admitted {
		admitted[i] = newTestClient(leaves[i], hub.Addr(), uint64(i+1)<<32)
		defer admitted[i].close()
		if _, err := admitted[i].sendFrame(0.3); err != nil {
			t.Fatal(err)
		}
		if _, err := admitted[i].recvFrame(10 * time.Second); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	// A third is over capacity: its datagrams are dropped and counted,
	// no session exists for it, and it hears nothing back.
	late := newTestClient(leaves[2], hub.Addr(), 3<<32)
	defer late.close()
	if _, err := late.sendFrame(0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := late.recvFrame(300 * time.Millisecond); !errors.Is(err, rudp.ErrTimeout) {
		t.Fatalf("over-capacity client got %v, want timeout", err)
	}
	st := m.Stats()
	if st.Sessions != 2 {
		t.Fatalf("sessions=%d, want the cap of 2", st.Sessions)
	}
	if st.Rejected == 0 {
		t.Fatal("over-capacity datagrams not counted in Stats.Rejected")
	}
	// Once the admitted sessions idle out, capacity frees and the late
	// client's own retransmissions get it admitted — no new dial needed.
	deadline := time.Now().Add(10 * time.Second)
	for m.Sessions() > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got, err := late.recvFrame(10 * time.Second); err != nil {
		t.Fatalf("late client after capacity freed: %v", err)
	} else if !late.ownSeq(got) {
		t.Fatalf("late client got foreign seq %d", got)
	}
}

func TestFleetDropsNonProtocolDatagrams(t *testing.T) {
	hub, leaves := newStar(t, 1, 13)
	m, err := fleet.New(hub, newFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer leaves[0].Close()

	for _, junk := range [][]byte{
		[]byte("GET / HTTP/1.1"),
		{0x00, 0x01, 0x02},
		{0xB7}, // right magic, truncated header
	} {
		if _, err := leaves[0].WriteTo(junk, hub.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.Stats().NonProtocol < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("non-protocol datagrams counted %d/3", m.Stats().NonProtocol)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := m.Stats(); st.Sessions != 0 || st.Admitted != 0 {
		t.Fatalf("junk datagrams created sessions: %+v", st)
	}
}

// TestFleetCloseDuringAdmission races Close against a first-datagram
// admission. If admit registers a session after signalClose's shard
// sweep, nothing ever closes that session's conn: its goroutine parks
// in Recv for the full IdleTimeout (2 minutes at defaults) and
// Close/Wait stall behind it. With the done re-check under the shard
// lock, Close must return promptly on every phase of the race.
func TestFleetCloseDuringAdmission(t *testing.T) {
	iters := 50
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		hub, leaves := newStar(t, 1, uint64(900+i))
		m, err := fleet.New(hub, newFleetConfig())
		if err != nil {
			t.Fatal(err)
		}
		c := newTestClient(leaves[0], hub.Addr(), 1<<32)
		if _, err := c.sendFrame(0.5); err != nil {
			t.Fatal(err)
		}
		// Vary the phase between the datagram hitting the demux loop and
		// the close, so the sweep lands before, during, and after admit.
		time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
		closed := make(chan struct{})
		go func() {
			_ = m.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(20 * time.Second):
			t.Fatalf("iter %d: Close stalled: session admitted past signalClose's sweep", i)
		}
		c.close()
	}
}

// TestFleetChurnSoak is the race-detector fleet soak: 64 concurrent
// sessions on one shared listener with churn — clients connect, stream,
// and either drain cleanly or crash mid-session — while every reply is
// checked against the receiving client's private sequence partition.
// One leaked message across sessions fails the test.
func TestFleetChurnSoak(t *testing.T) {
	workers, lives, frames := 64, 2, 6
	if testing.Short() {
		workers, lives, frames = 16, 2, 4
	}
	hub, leaves := newStar(t, workers*lives, 4040)
	cfg := newFleetConfig()
	cfg.MaxSessions = workers * lives
	// The idle timeout must dominate any inter-frame gap a loaded demux
	// can introduce: a session reaped between two frames of a live
	// client is unrecoverable (the replacement session's transport
	// state can't resync mid-stream), so reaping is for genuinely dead
	// peers only. 3s is still short enough to drain every crashed
	// incarnation within the test's deadline.
	cfg.IdleTimeout = 3 * time.Second
	m, err := fleet.New(hub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for life := 0; life < lives; life++ {
				// Every incarnation is a fresh session from a fresh
				// source address with its own sequence partition.
				leaf := leaves[w*lives+life]
				c := newTestClient(leaf, hub.Addr(), uint64(w*lives+life+1)<<32)
				crash := (w+life)%3 == 0 // every third incarnation dies mid-stream
				for f := 0; f < frames; f++ {
					if _, err := c.sendFrame(float32(w%7) / 7); err != nil {
						errs <- fmt.Errorf("worker %d life %d send: %w", w, life, err)
						c.close()
						return
					}
					if crash && f == frames/2 {
						break // vanish without draining replies
					}
					got, err := c.recvFrame(30 * time.Second)
					if err != nil {
						errs <- fmt.Errorf("worker %d life %d recv %d: %w", w, life, f, err)
						c.close()
						return
					}
					if !c.ownSeq(got) {
						errs <- fmt.Errorf("worker %d life %d: LEAKED reply seq %#x", w, life, got)
						c.close()
						return
					}
				}
				c.close()
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Every crashed and drained session must idle-reap: the fleet
	// drains to zero sessions and its goroutines go with them.
	deadline := time.Now().Add(30 * time.Second)
	for m.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions never reaped", m.Sessions())
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := m.Stats()
	if want := int64(workers * lives); st.Admitted != want {
		t.Fatalf("admitted %d sessions, want %d", st.Admitted, want)
	}
	if st.PeakSessions > int64(workers*lives) {
		t.Fatalf("peak %d above population %d", st.PeakSessions, workers*lives)
	}
	if st.TimersArmed != 0 {
		t.Fatalf("wheel still tracks %d reaped sessions", st.TimersArmed)
	}
	runtime.GC()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+4 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d, baseline %d: session goroutines leaked", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetGoroutinesBoundedAndReleased pins the fleet's goroutine
// budget: one serve goroutine per session plus exactly two of the
// manager's own (the demux pump and the shared wheel), and none left
// once Close returns. The baseline is taken after the test clients
// exist, so their transport goroutines are not counted.
func TestFleetGoroutinesBoundedAndReleased(t *testing.T) {
	const sessions = 8
	hub, leaves := newStar(t, sessions, 808)
	clients := make([]*testClient, sessions)
	for i := range clients {
		clients[i] = newTestClient(leaves[i], hub.Addr(), uint64(i+1)<<32)
		defer clients[i].close()
	}
	baseline := runtime.NumGoroutine()
	m, err := fleet.New(hub, newFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		if _, err := c.sendFrame(0.5); err != nil {
			t.Fatal(err)
		}
		if _, err := c.recvFrame(10 * time.Second); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if got := m.Sessions(); got != sessions {
		t.Fatalf("sessions=%d, want %d", got, sessions)
	}
	// Every session is parked in Recv once its reply is out; allow the
	// last reply's goroutine a moment to get back there.
	want := baseline + sessions + 2
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() != want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got != want {
		t.Fatalf("serving %d sessions: %d goroutines over the baseline, want sessions + 2 = %d",
			sessions, got-baseline, sessions+2)
	}

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("after Close: %d goroutines, baseline %d", got, baseline)
	}
}
