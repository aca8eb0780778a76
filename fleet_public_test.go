package gbooster

import (
	"errors"
	"net"
	"testing"
	"time"
)

// TestFleetServesTwoPlayersOverUDP drives the public fleet surface end
// to end: one shared UDP listener, two independent Players, each
// getting its own rendered stream.
func TestFleetServesTwoPlayersOverUDP(t *testing.T) {
	probe, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	addr := probe.LocalAddr().String()
	_ = probe.Close()

	const w, h = 96, 64
	fl, err := NewFleet(FleetConfig{Width: w, Height: h, MaxSessions: 8})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- fl.Serve(addr) }()
	defer func() { _ = fl.Close() }()
	time.Sleep(100 * time.Millisecond)

	players := make([]*Player, 2)
	for i := range players {
		p, err := NewPlayer(PlayerConfig{Workload: "G5", Width: w, Height: h, Seed: uint64(31 + i)})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = p.Close() }()
		if err := p.Connect(addr); err != nil {
			t.Fatalf("player %d connect: %v", i, err)
		}
		players[i] = p
	}
	for f := 0; f < 4; f++ {
		for i, p := range players {
			img, err := p.StepFrame(10 * time.Second)
			if err != nil {
				t.Fatalf("player %d frame %d: %v", i, f, err)
			}
			if img.Bounds().Dx() != w || img.Bounds().Dy() != h {
				t.Fatalf("player %d bounds %v", i, img.Bounds())
			}
		}
	}

	st := fl.Snapshot().FleetStats
	if st.Sessions != 2 || st.Admitted != 2 {
		t.Fatalf("sessions=%d admitted=%d, want 2/2", st.Sessions, st.Admitted)
	}
	if st.Frames < 8 {
		t.Fatalf("frames=%d, want >= 8", st.Frames)
	}
	if st.Rejected != 0 {
		t.Fatalf("rejected=%d, want 0", st.Rejected)
	}
	if st.GateEntries < st.Frames {
		t.Fatalf("gate entries %d < frames %d", st.GateEntries, st.Frames)
	}

	if err := fl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve after Close = %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still blocked after Close")
	}
}

// TestDefaultFleetServesDefaultPlayer is the regression test for the
// cmdcache-bound mismatch: a zero-value FleetConfig.CacheBytes must
// mirror the bound every Player uses, or the two caches diverge at the
// fleet side's first eviction (frame 333 of this session when the fleet
// defaulted to 1 MiB) and the session dies on a receive timeout.
func TestDefaultFleetServesDefaultPlayer(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	const w, h = 320, 240
	fl, err := NewFleet(FleetConfig{Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = fl.ServeConn(pc) }()
	defer func() { _ = fl.Close() }()

	player, err := NewPlayer(PlayerConfig{Workload: "G5", Width: w, Height: h, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = player.Close() }()
	if err := player.Connect(pc.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 600; f++ {
		if _, err := player.StepFrame(5 * time.Second); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
	}
}
