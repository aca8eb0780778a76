package gbooster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/netsim"
)

// TestPlayerSurvivesDeviceCrash exercises the public API's §VI-C fault
// tolerance: three StreamServers over emulated links, one of which
// crashes (blackholed in both directions) mid-session. Every frame
// must still come out of StepFrame, in order, with the failover
// counters recording the recovery.
func TestPlayerSurvivesDeviceCrash(t *testing.T) {
	const w, h = 96, 64
	player, err := NewPlayer(PlayerConfig{Workload: "G5", Width: w, Height: h, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = player.Close() }()

	var wg sync.WaitGroup
	var servers []*StreamServer
	var ports []*netsim.HubPort
	t.Cleanup(func() {
		for _, s := range servers {
			_ = s.Close()
		}
		wg.Wait()
	})
	for i := 0; i < 3; i++ {
		srv, err := NewStreamServer(StreamServerConfig{Width: w, Height: h})
		if err != nil {
			t.Fatal(err)
		}
		ls, lc := netsim.NewPair(netsim.LinkConfig{Delay: 200 * time.Microsecond}, uint64(30+i))
		ports = append(ports, lc)
		servers = append(servers, srv)
		wg.Add(1)
		go func(s *StreamServer) {
			defer wg.Done()
			_ = s.ServeConn(ls, lc.Addr())
		}(srv)
		if err := player.ConnectConn("dev-"+string(rune('A'+i)), lc, ls.Addr(), 1000); err != nil {
			t.Fatal(err)
		}
	}

	const frames = 40
	const crashAt = 10
	for f := 0; f < frames; f++ {
		if f == crashAt {
			ports[0].Blackhole()
		}
		img, err := player.StepFrame(15 * time.Second)
		if err != nil {
			t.Fatalf("frame %d (crash at %d): %v", f, crashAt, err)
		}
		if img.Bounds().Dx() != w || img.Bounds().Dy() != h {
			t.Fatalf("frame %d bounds %v", f, img.Bounds())
		}
	}
	snap := player.Snapshot()
	if snap.FramesSent != frames || snap.FramesShown != frames {
		t.Fatalf("stats sent=%d shown=%d, want %d", snap.FramesSent, snap.FramesShown, frames)
	}
	fs := snap.FailoverStats
	if fs.ReDispatched == 0 {
		t.Fatalf("crash did not trigger a re-dispatch: %+v", fs)
	}
	if fs.Evictions == 0 {
		t.Fatalf("crashed device never evicted: %+v", fs)
	}
	if fs.FramesSkipped != 0 {
		t.Fatalf("frames skipped despite live replicas: %+v", fs)
	}
	// The dead device shows up in the health report.
	unhealthy := 0
	for _, ds := range snap.Devices {
		if ds.Health != "healthy" {
			unhealthy++
		}
	}
	if unhealthy == 0 {
		t.Fatalf("no device reported unhealthy after a crash: %+v", snap.Devices)
	}
}

// TestServeConnAfterCloseRefused is the regression test for the
// shutdown race: a session offered to an already-closed StreamServer
// must be refused instead of silently resurrecting the server.
func TestServeConnAfterCloseRefused(t *testing.T) {
	srv, err := NewStreamServer(StreamServerConfig{Width: 32, Height: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	a, b := netsim.NewPair(netsim.LinkConfig{}, 99)
	defer a.Close()
	if err := srv.ServeConn(a, b.Addr()); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("ServeConn after Close = %v, want ErrServerClosed", err)
	}
	// The refused session must not have installed a connection.
	if _, ok := srv.TransportStats(); ok {
		t.Fatal("refused session overwrote the server's connection")
	}
}

// TestValidateFrameSize is the regression test for the display path
// blindly copying a mis-sized pixel buffer into the output image.
func TestValidateFrameSize(t *testing.T) {
	if err := validateFrameSize(96*64*4, 96, 64); err != nil {
		t.Fatalf("exact RGBA size rejected: %v", err)
	}
	for _, n := range []int{0, 1, 96 * 64, 96*64*4 - 1, 96*64*4 + 4} {
		err := validateFrameSize(n, 96, 64)
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("validateFrameSize(%d) = %v, want ErrBadFrame", n, err)
		}
	}
}
