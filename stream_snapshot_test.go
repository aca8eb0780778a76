package gbooster

import (
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/netsim"
)

// TestSnapshotEquivalence checks that one Snapshot of a quiesced
// session carries every block — counters, device and transport views,
// session age, frame latency — and that they agree with each other.
func TestSnapshotEquivalence(t *testing.T) {
	const w, h = 64, 48
	player, err := NewPlayer(PlayerConfig{Workload: "G6", Width: w, Height: h, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()

	srv, err := NewStreamServer(StreamServerConfig{Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pcS, pcC := netsim.NewPair(netsim.LinkConfig{}, 11)
	go func() { _ = srv.ServeConn(pcS, pcC.Addr()) }()
	if err := player.ConnectConn("mem", pcC, pcS.Addr(), 1000); err != nil {
		t.Fatal(err)
	}

	for f := 0; f < 8; f++ {
		if _, err := player.StepFrame(5 * time.Second); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
	}

	// The session is quiesced (no frame in flight), so every block of
	// one snapshot describes the same eight frames on the same device.
	s := player.Snapshot()
	if s.FramesSent != 8 || s.FramesShown != 8 {
		t.Errorf("frames sent=%d shown=%d, want 8/8", s.FramesSent, s.FramesShown)
	}
	if len(s.Devices) != 1 || s.Devices[0].Service != "mem" {
		t.Errorf("Devices = %+v, want one entry for mem", s.Devices)
	}
	if len(s.Transports) != 1 || s.Transports[0].Service != "mem" || s.Transports[0].DataSent == 0 {
		t.Errorf("Transports = %+v, want one live entry for mem", s.Transports)
	}

	// The snapshot-only extras must be live: session age, and the frame
	// latency StepFrame accumulated.
	if s.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", s.Elapsed)
	}
	if s.FrameLatencyCount != 8 {
		t.Errorf("FrameLatencyCount = %d, want 8", s.FrameLatencyCount)
	}
	if s.FrameLatencyTotal <= 0 || s.FrameLatencyMax <= 0 {
		t.Errorf("frame latency total=%v max=%v, want > 0", s.FrameLatencyTotal, s.FrameLatencyMax)
	}
	if s.MeanFrameLatency() > s.FrameLatencyMax {
		t.Errorf("mean %v > max %v", s.MeanFrameLatency(), s.FrameLatencyMax)
	}
	if fps := s.DeliveredFPS(); fps <= 0 {
		t.Errorf("DeliveredFPS = %v, want > 0", fps)
	}
	if s.Fleet != nil {
		t.Errorf("standalone player snapshot carries a fleet rider: %+v", s.Fleet)
	}
}

// TestFleetSnapshotEquivalence: a fleet that never served snapshots
// as the zero value.
func TestFleetSnapshotEquivalence(t *testing.T) {
	fl, err := NewFleet(FleetConfig{Width: 32, Height: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if (fl.Snapshot().FleetStats != FleetStats{}) {
		t.Fatalf("unserved fleet snapshot not zero: %+v", fl.Snapshot().FleetStats)
	}
}
