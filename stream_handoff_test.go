package gbooster

import (
	"sync"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/netsim"
)

// TestPlayerCrashRecoverHotJoinSoak is the elastic-devices soak: a
// device crashes (blackholed both ways) mid-session and is evicted,
// the link is later restored and the device must be readmitted through
// a session-bootstrap handoff — not a cold probe — while a brand-new
// server hot-joins mid-session and another is administratively
// drained. Through all of it every frame must come out of StepFrame in
// order, with zero gap-skip tombstones.
func TestPlayerCrashRecoverHotJoinSoak(t *testing.T) {
	const w, h = 96, 64
	player, err := NewPlayer(PlayerConfig{Workload: "G5", Width: w, Height: h, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = player.Close() }()

	var wg sync.WaitGroup
	var servers []*StreamServer
	t.Cleanup(func() {
		for _, s := range servers {
			_ = s.Close()
		}
		wg.Wait()
	})
	start := func(name string, seed uint64) *netsim.HubPort {
		t.Helper()
		srv, err := NewStreamServer(StreamServerConfig{Width: w, Height: h})
		if err != nil {
			t.Fatal(err)
		}
		ls, lc := netsim.NewPair(netsim.LinkConfig{Delay: 200 * time.Microsecond}, seed)
		servers = append(servers, srv)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = srv.ServeConn(ls, lc.Addr())
		}()
		if err := player.ConnectConn(name, lc, ls.Addr(), 1000); err != nil {
			t.Fatal(err)
		}
		return lc
	}

	crashPort := start("dev-A", 40)
	start("dev-B", 41)
	start("dev-C", 42)

	frames := 0
	step := func() {
		t.Helper()
		img, err := player.StepFrame(15 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		if img.Bounds().Dx() != w || img.Bounds().Dy() != h {
			t.Fatalf("frame %d bounds %v", frames, img.Bounds())
		}
		frames++
	}

	// Warm up, then crash dev-A mid-session.
	for i := 0; i < 10; i++ {
		step()
	}
	crashPort.Blackhole()
	for i := 0; i < 15; i++ {
		step()
	}
	if fs := player.Snapshot().FailoverStats; fs.Evictions == 0 {
		t.Fatalf("crashed device never evicted: %+v", fs)
	}

	// The device comes back. Readmission is gated on the bootstrap
	// handoff: the client must wait out the probe cool-down, drain the
	// dead window via retransmits, ship the checkpoint, and see a
	// matching fingerprint ack. Keep playing until that completes.
	crashPort.Restore()
	deadline := time.Now().Add(30 * time.Second)
	for player.Snapshot().HandoffStats.Completed == 0 {
		if time.Now().After(deadline) {
			snap := player.Snapshot()
			t.Fatalf("restored device never readmitted: handoff=%+v failover=%+v devices=%+v",
				snap.HandoffStats, snap.FailoverStats, snap.Devices)
		}
		step()
		time.Sleep(10 * time.Millisecond)
	}
	if fs := player.Snapshot().FailoverStats; fs.Readmissions == 0 {
		t.Fatalf("handoff completed but device not readmitted: %+v", fs)
	}

	// Hot-join a brand-new server mid-session...
	start("dev-D", 43)
	deadline = time.Now().Add(15 * time.Second)
	for player.Snapshot().HandoffStats.Completed < 2 {
		if time.Now().After(deadline) {
			snap := player.Snapshot()
			t.Fatalf("hot-join never completed: handoff=%+v devices=%+v",
				snap.HandoffStats, snap.Devices)
		}
		step()
		time.Sleep(5 * time.Millisecond)
	}

	// ...and drain another, migrating its in-flight work.
	if err := player.Drain("dev-B"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		step()
	}

	snap := player.Snapshot()
	if snap.FramesSent != int64(frames) || snap.FramesShown != int64(frames) {
		t.Fatalf("sent=%d shown=%d, want %d each", snap.FramesSent, snap.FramesShown, frames)
	}
	fs := snap.FailoverStats
	if fs.FramesSkipped != 0 {
		t.Fatalf("gap-skip tombstones after recovery: %+v", fs)
	}
	hs := snap.HandoffStats
	if hs.Completed < 2 || hs.BootstrapsSent < 2 || hs.BootstrapBytes <= 0 {
		t.Fatalf("handoff stats %+v", hs)
	}
	if hs.MeanLatency <= 0 {
		t.Fatalf("mean handoff latency not recorded: %+v", hs)
	}
}
