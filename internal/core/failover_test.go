package core

import (
	"sync"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/dispatch"
	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/netsim"
	"github.com/gbooster/gbooster/internal/rudp"
	"github.com/gbooster/gbooster/internal/workload"
)

// failoverCfg is a tight-deadline client config for fast, deterministic
// failure detection in tests (renders here take single-digit ms).
func failoverCfg(arrays *glwireArrays) ClientConfig {
	return ClientConfig{
		Width: testW, Height: testH, Arrays: arrays.table(),
		FailoverInterval: 5 * time.Millisecond,
		FailoverMinWait:  40 * time.Millisecond,
		FailoverMaxWait:  400 * time.Millisecond,
	}
}

// linkRig wires a client to n servers over packet-level emulated links
// so tests can crash a device with the blackhole fault injector.
type linkRig struct {
	client  *Client
	servers []*Server
	ports   []*netsim.HubPort // the client end of each server's link
	wg      sync.WaitGroup
}

// crash emulates the death of server i: nothing it sends gets out, and
// nothing sent to it arrives.
func (r *linkRig) crash(i int) {
	r.ports[i].Blackhole()
}

func newLinkRig(t *testing.T, n int, arrays *glwireArrays) *linkRig {
	t.Helper()
	client, err := NewClient(failoverCfg(arrays))
	if err != nil {
		t.Fatal(err)
	}
	r := &linkRig{client: client}
	opts := rudp.DefaultOptions()
	opts.RTO = 10 * time.Millisecond
	for i := 0; i < n; i++ {
		srv, err := NewServer(ServerConfig{Width: testW, Height: testH})
		if err != nil {
			t.Fatal(err)
		}
		ls, lc := netsim.NewPair(netsim.LinkConfig{Delay: 200 * time.Microsecond}, uint64(50+i))
		connC := rudp.New(lc, ls.Addr(), opts)
		connS := rudp.New(ls, lc.Addr(), opts)
		if err := client.AddService(srv.String(i), connC, 1000, 2*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		r.servers = append(r.servers, srv)
		r.ports = append(r.ports, lc)
		r.wg.Add(1)
		go func(s *Server, c *rudp.Conn) {
			defer r.wg.Done()
			_ = s.ServeWithTimeout(c, 2*time.Second)
			_ = c.Close()
		}(srv, connS)
	}
	t.Cleanup(func() {
		_ = client.Close()
		r.wg.Wait()
	})
	return r
}

// TestFailoverRedispatchOnDeviceCrash is the §VI-C fault-tolerance
// soak: 3 servers, one blackholed mid-session. The player must keep
// receiving every frame in order — orphaned frames re-dispatched to
// the surviving replicas, the dead device evicted — with no sink
// error. Pre-failover code wedged Reorder on the lost sequence number
// and never displayed another frame.
func TestFailoverRedispatchOnDeviceCrash(t *testing.T) {
	p, err := workload.ByID("G5")
	if err != nil {
		t.Fatal(err)
	}
	game := workload.NewGame(p, 7)
	r := newLinkRig(t, 3, &glwireArrays{game: game})
	sink := r.client.Sink()

	const frames = 30
	const crashAt = 8
	for f := 0; f < frames; f++ {
		if f == crashAt {
			r.crash(0)
		}
		for _, cmd := range game.NextFrame().Commands {
			sink(cmd)
		}
		got, err := r.client.NextFrame(10 * time.Second)
		if err != nil {
			t.Fatalf("frame %d after crash: %v", f, err)
		}
		if got.Seq != uint64(f) {
			t.Fatalf("frame seq = %d, want %d (display order broken)", got.Seq, f)
		}
	}
	if err := r.client.Err(); err != nil {
		t.Fatalf("sink poisoned by device crash: %v", err)
	}
	st := r.client.Stats()
	if st.ReDispatched == 0 {
		t.Fatal("no orphaned frame was re-dispatched")
	}
	if st.Evictions == 0 {
		t.Fatal("dead device never evicted")
	}
	if st.FramesSkipped != 0 {
		t.Fatalf("%d frames skipped despite healthy replicas", st.FramesSkipped)
	}
	if st.FramesDisplayed != frames {
		t.Fatalf("displayed %d of %d frames", st.FramesDisplayed, frames)
	}
	// The survivors carried the load.
	rendered := int64(0)
	for _, srv := range r.servers[1:] {
		rendered += srv.Stats().FramesRendered
	}
	if rendered < frames-crashAt {
		t.Fatalf("survivors rendered %d frames, want >= %d", rendered, frames-crashAt)
	}
}

// TestFailoverGapSkipWhenAllDevicesDead drives the degraded path: the
// only device dies, so overdue frames must be gap-skipped — failing
// just those frames — rather than poisoning sinkErr or wedging the
// display forever.
func TestFailoverGapSkipWhenAllDevicesDead(t *testing.T) {
	p, err := workload.ByID("G5")
	if err != nil {
		t.Fatal(err)
	}
	game := workload.NewGame(p, 3)
	r := newLinkRig(t, 1, &glwireArrays{game: game})
	sink := r.client.Sink()

	// Healthy warm-up: 4 frames displayed.
	for f := 0; f < 4; f++ {
		for _, cmd := range game.NextFrame().Commands {
			sink(cmd)
		}
		got, err := r.client.NextFrame(5 * time.Second)
		if err != nil || got.Seq != uint64(f) {
			t.Fatalf("warm-up frame %d: seq=%d err=%v", f, got.Seq, err)
		}
	}
	r.crash(0)
	// Frames generated after the crash are lost on the only device.
	const lost = 3
	for f := 0; f < lost; f++ {
		for _, cmd := range game.NextFrame().Commands {
			sink(cmd)
		}
	}
	// They must be abandoned within the failover deadline, not wedge.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := r.client.Stats(); st.FramesSkipped >= lost {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lost frames never gap-skipped: %+v", r.client.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := r.client.Err(); err != nil {
		t.Fatalf("sink poisoned by total device loss: %v", err)
	}
	// The display is not wedged: NextFrame times out cleanly instead of
	// blocking forever on the lost sequence numbers.
	if _, err := r.client.NextFrame(50 * time.Millisecond); err != rudp.ErrTimeout {
		t.Fatalf("NextFrame after total loss = %v, want timeout", err)
	}
	// Further frames keep failing individually — still no sink error —
	// and the repeat offender is eventually evicted.
	for f := 0; f < 2; f++ {
		for _, cmd := range game.NextFrame().Commands {
			sink(cmd)
		}
		if err := r.client.Err(); err != nil {
			t.Fatalf("flush with no live devices poisoned sink: %v", err)
		}
		skipDeadline := time.Now().Add(5 * time.Second)
		for r.client.Stats().FramesSkipped < lost+int64(f)+1 {
			if time.Now().After(skipDeadline) {
				t.Fatalf("post-crash frame %d never abandoned: %+v", f, r.client.Stats())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	states := r.client.DeviceStates()
	if len(states) != 1 || states[0].Health != dispatch.Evicted {
		t.Fatalf("device states = %+v, want evicted", states)
	}
	if states[0].Queued != 0 {
		t.Fatalf("evicted device still holds %v queued workload", states[0].Queued)
	}
}

// TestFlushRollbackOnSendFailure is the regression test for the
// inflight/queue leak: when Send fails, the seq must not stay in
// c.inflight and the workload must come off the device's queue. With
// failover, a dead-conn flush now degrades to a skipped frame instead
// of an error.
func TestFlushRollbackOnSendFailure(t *testing.T) {
	c, err := NewClient(ClientConfig{Width: testW, Height: testH})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pcS, pcC := netsim.NewPair(netsim.LinkConfig{}, 1)
	connC := rudp.New(pcC, pcS.Addr(), rudp.DefaultOptions())
	if err := c.AddService("dead", connC, 1000, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_ = connC.Close() // every Send will now fail
	_ = pcS.Close()

	sink := c.Sink()
	sink(gles.CmdSwapBuffers())

	c.mu.Lock()
	inflight := len(c.inflight)
	queued := c.services[0].dev.Queued()
	quarantined := c.services[0].dev.Quarantined()
	c.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("inflight leaked %d entries after send failure", inflight)
	}
	if queued != 0 {
		t.Fatalf("device queue leaked %v workload after send failure", queued)
	}
	if !quarantined {
		t.Fatal("dead-conn device not quarantined")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("send failure poisoned sink: %v", err)
	}
	if st := c.Stats(); st.FramesSkipped != 1 {
		t.Fatalf("stats = %+v, want 1 skipped frame", st)
	}
}

// TestAddServicePreservesSchedulerStats is the regression test for
// AddService rebuilding the scheduler and silently zeroing its
// accumulated assignment statistics.
func TestAddServicePreservesSchedulerStats(t *testing.T) {
	p, err := workload.ByID("G5")
	if err != nil {
		t.Fatal(err)
	}
	game := workload.NewGame(p, 5)
	r := newRig(t, 1, &glwireArrays{game: game}, 0)
	sink := r.client.Sink()

	const frames = 3
	for f := 0; f < frames; f++ {
		for _, cmd := range game.NextFrame().Commands {
			sink(cmd)
		}
		if _, err := r.client.NextFrame(5 * time.Second); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
	}
	// Attach a second service mid-session.
	srv, err := NewServer(ServerConfig{Width: testW, Height: testH})
	if err != nil {
		t.Fatal(err)
	}
	pcS, pcC := netsim.NewPair(netsim.LinkConfig{}, 9)
	connC := rudp.New(pcC, pcS.Addr(), rudp.DefaultOptions())
	connS := rudp.New(pcS, pcC.Addr(), rudp.DefaultOptions())
	go func() {
		_ = srv.ServeWithTimeout(connS, 500*time.Millisecond)
		_ = connS.Close()
	}()
	if err := r.client.AddService("late", connC, 1000, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	r.client.mu.Lock()
	stats := r.client.sched.Stats
	devices := len(r.client.sched.Devices())
	r.client.mu.Unlock()
	if stats.Assigned != frames {
		t.Fatalf("scheduler stats zeroed by AddService: assigned = %d, want %d", stats.Assigned, frames)
	}
	if stats.TotalWork == 0 || len(stats.PerDevice) == 0 {
		t.Fatalf("scheduler stats zeroed by AddService: %+v", stats)
	}
	if devices != 2 {
		t.Fatalf("scheduler has %d devices, want 2", devices)
	}
}

// TestRecvLoopCountsDroppedMessages is the regression test for the
// receive loop silently discarding undecodable or unexpected messages.
func TestRecvLoopCountsDroppedMessages(t *testing.T) {
	c, err := NewClient(ClientConfig{Width: testW, Height: testH})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pcS, pcC := netsim.NewPair(netsim.LinkConfig{}, 2)
	connC := rudp.New(pcC, pcS.Addr(), rudp.DefaultOptions())
	connS := rudp.New(pcS, pcC.Addr(), rudp.DefaultOptions())
	defer connS.Close()
	if err := c.AddService("srv", connC, 1000, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// One undecodable message (too short to frame)...
	if err := connS.Send([]byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	// ...and one well-formed message of a type the client ignores.
	if err := connS.Send(encodeMsg(MsgStateUpdate, 0, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		st := c.Stats()
		if st.RecvBadMsgs == 1 && st.RecvUnexpected == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drops not counted: bad=%d unexpected=%d", st.RecvBadMsgs, st.RecvUnexpected)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
