package gbooster

import (
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/metrics"
	"github.com/gbooster/gbooster/internal/netsim"
)

// TestPredictiveControlSnapshot runs a real session with
// WithPredictiveControl and pins the acceptance criterion: the
// prediction/energy/thermal block rides Player.Snapshot into a
// metrics.Registry, and its collector reports without disturbing the
// other collectors.
func TestPredictiveControlSnapshot(t *testing.T) {
	const w, h = 64, 48
	player, err := NewPlayer(PlayerConfig{Workload: "G6", Width: w, Height: h, Seed: 7},
		WithPredictiveControl())
	if err != nil {
		t.Fatal(err)
	}

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

	for f := 0; f < 12; f++ {
		if _, err := player.StepFrame(5 * time.Second); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
	}
	// Let the wall-clock control tick run at least one window so the
	// controller has observed the session's traffic.
	time.Sleep(250 * time.Millisecond)

	s := player.Snapshot()
	if s.Predict == nil {
		t.Fatal("Snapshot().Predict is nil with predictive control enabled")
	}
	if s.Predict.Frames == 0 {
		t.Errorf("predict block saw no frames (want the 12 stepped)")
	}

	reg := metrics.NewStandardRegistry()
	reg.Observe(s)
	reports := reg.Reports()
	var predictReport *metrics.Report
	for i := range reports {
		if reports[i].Collector == "predict" {
			predictReport = &reports[i]
		}
	}
	if predictReport == nil {
		t.Fatal("standard registry has no predict collector")
	}
	if v, ok := predictReport.Get("windows"); !ok || v <= 0 {
		t.Errorf("predict report windows = %v ok=%v, want > 0", v, ok)
	}

	// Close settles the radio energy accounts; the final snapshot must
	// carry total modeled energy.
	if err := player.Close(); err != nil {
		t.Fatal(err)
	}
	final := player.Snapshot()
	if final.Predict == nil || final.Predict.EnergyJoules <= 0 {
		t.Fatalf("post-close predict energy = %+v, want > 0", final.Predict)
	}
	// Close is idempotent even with the predictive tick running.
	if err := player.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPredictDefaultOff: without the option the snapshot carries no
// predict block and dispatch stays purely reactive.
func TestPredictDefaultOff(t *testing.T) {
	player, err := NewPlayer(PlayerConfig{Workload: "G6", Width: 32, Height: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	if s := player.Snapshot(); s.Predict != nil {
		t.Fatalf("default player snapshot carries predict block: %+v", s.Predict)
	}
}
