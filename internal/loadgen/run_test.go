package loadgen

import (
	"testing"
	"time"

	"github.com/gbooster/gbooster"
	"github.com/gbooster/gbooster/internal/netsim"
)

// TestRunAgainstFleet is the end-to-end smoke: a small mixed-churn
// scenario against an in-process fleet on the hub. Every session must
// finish cleanly or via its scripted crash — no failures — and the
// aggregated SLO must show frames, fleet visibility, and per-session
// reports from the shared collector path.
func TestRunAgainstFleet(t *testing.T) {
	const w, h = 64, 48
	target, err := NewFleetTarget(gbooster.FleetConfig{
		Width: w, Height: h,
		// Idle reap well past the test horizon: crashed sessions leak
		// until reap by design, and live ones must never be reaped.
		IdleTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	sc := Scenario{
		Name:             "smoke",
		Sessions:         6,
		ArrivalWindow:    300 * time.Millisecond,
		FramesPerSession: 10,
		FrameTimeout:     10 * time.Second,
		Links:            []WeightedProfile{{Profile: netsim.Loopback, Weight: 1}},
		Crash:            0.2,
		HotJoin:          0.2,
		Seed:             9,
	}
	results, err := Run(RunConfig{Target: target, Width: w, Height: h, Workers: 4, Logf: t.Logf}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != sc.Sessions {
		t.Fatalf("%d results for %d sessions", len(results), sc.Sessions)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("session %s (%s churn=%q): %v", r.Plan.Name, r.Plan.Class, r.Plan.Churn, r.Err)
		}
		if r.Rejected {
			t.Errorf("session %s rejected — fleet has no cap this small", r.Plan.Name)
		}
		if !r.Crashed && r.FramesOK != sc.FramesPerSession {
			t.Errorf("session %s: %d/%d frames", r.Plan.Name, r.FramesOK, sc.FramesPerSession)
		}
		if r.Crashed && r.Plan.Churn != ChurnCrash {
			t.Errorf("session %s crashed without a crash script", r.Plan.Name)
		}
		if int64(r.FramesOK) != r.Latency.Count() {
			t.Errorf("session %s: %d frames but %d latency samples", r.Plan.Name, r.FramesOK, r.Latency.Count())
		}
		if len(r.Reports) == 0 {
			t.Errorf("session %s: no collector reports", r.Plan.Name)
		}
		if r.Snapshot.Fleet == nil {
			t.Errorf("session %s: snapshot missing the fleet rider", r.Plan.Name)
		}
	}

	slo := Summarize(sc.Name, results)
	if slo.Failed != 0 || slo.OK+slo.Crashed != sc.Sessions {
		t.Fatalf("accounting: %+v", slo)
	}
	if slo.Frames == 0 || slo.P50 <= 0 || slo.FPS <= 0 {
		t.Errorf("empty SLO: frames=%d p50=%v fps=%v", slo.Frames, slo.P50, slo.FPS)
	}
	if slo.FleetPeak == 0 {
		t.Errorf("fleet rider never observed: %+v", slo)
	}
	t.Logf("\n%s", slo.Table())
}

// TestRunCongestedQualityLadder drives the canned congested preset
// with adaptive quality on and requires the quality ladder to actually
// step: sustained WiFiCongested loss and delay must push at least one
// session down from the 85 ceiling toward the 25 floor, surfacing as
// quality_steps > 0 in the aggregated SLO.
func TestRunCongestedQualityLadder(t *testing.T) {
	// ~2 KB a frame at quality 85: multi-datagram frames are what
	// congests WiFiCongested (96x72 was that size before turbo's bit coder).
	const w, h = 160, 120
	opts := []gbooster.Option{
		gbooster.WithQuality(85),
		gbooster.WithAdaptiveQuality(25),
	}
	target, err := NewFleetTarget(gbooster.FleetConfig{
		Width: w, Height: h,
		IdleTimeout: 30 * time.Second,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	sc := CongestedScenario()
	sc.FrameTimeout = 30 * time.Second
	results, err := Run(RunConfig{Target: target, Width: w, Height: h, Workers: 4, Options: opts, Logf: t.Logf}, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("session %s: %v", r.Plan.Name, r.Err)
		}
	}
	slo := Summarize(sc.Name, results)
	if slo.Failed != 0 {
		t.Fatalf("sessions failed on the congested link: %+v", slo)
	}
	if slo.QualitySteps == 0 {
		t.Errorf("quality ladder never stepped under congestion: %+v", slo)
	}
	t.Logf("\n%s", slo.Table())
}

// TestRunHandoffChurn pins the lifecycle scripts against the fleet:
// hot-join and drain sessions must complete bootstrap handoffs.
func TestRunHandoffChurn(t *testing.T) {
	const w, h = 64, 48
	target, err := NewFleetTarget(gbooster.FleetConfig{
		Width: w, Height: h,
		IdleTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()

	sc := Scenario{
		Name:             "handoff-smoke",
		Sessions:         4,
		ArrivalWindow:    200 * time.Millisecond,
		FramesPerSession: 16,
		FrameTimeout:     10 * time.Second,
		Links:            []WeightedProfile{{Profile: netsim.Loopback, Weight: 1}},
		HotJoin:          1.0, // every session hot-joins
		Seed:             21,
	}
	results, err := Run(RunConfig{Target: target, Width: w, Height: h, Workers: 4}, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("session %s: %v", r.Plan.Name, r.Err)
			continue
		}
		if r.Plan.Churn != ChurnHotJoin {
			t.Fatalf("session %s: churn %q, scripted hotjoin for all", r.Plan.Name, r.Plan.Churn)
		}
		if r.Snapshot.HandoffStats.Completed == 0 {
			t.Errorf("session %s: hot-join completed no handoff: %+v", r.Plan.Name, r.Snapshot.HandoffStats)
		}
	}
	slo := Summarize(sc.Name, results)
	if slo.HandoffsOK < int64(sc.Sessions) {
		t.Errorf("handoffs_ok = %d, want >= %d", slo.HandoffsOK, sc.Sessions)
	}
}
