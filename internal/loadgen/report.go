package loadgen

import (
	"fmt"
	"sort"
	"strings"
)

// SLO is one scenario's service-level report, aggregated across every
// session the executor ran. Latency fields are milliseconds.
type SLO struct {
	Scenario string

	// Session accounting: OK ran their full frame budget, Crashed were
	// scripted to vanish, Rejected were refused admission, Failed hit a
	// terminal error.
	Sessions, OK, Crashed, Rejected, Failed int

	// Frames is the total displayed across all sessions.
	Frames int64
	// P50/P99/MeanLatency/MaxLatency summarize per-frame
	// issue-to-display latency over every successful frame.
	P50, P99, MeanLatency, MaxLatency float64
	// FPS is the mean delivered frame rate across sessions that got at
	// least one frame.
	FPS float64

	// Failover and lifecycle activity, summed over sessions.
	GapSkips, ReDispatched, Evictions int64
	HandoffsOK, HandoffsFailed        int64
	QualitySteps                      int64
	DownlinkBytes                     int64

	// Fleet counters at scenario end (zero when the target exposes
	// none).
	FleetPeak, FleetRejected, FleetGateWaits int64

	// PerClass counts sessions by device class, for the population
	// breakdown line.
	PerClass map[string]int
}

// Summarize aggregates per-session results into the scenario SLO:
// counter totals from each session's final snapshot, quantiles from
// the merged per-session digests.
func Summarize(name string, results []Result) SLO {
	slo := SLO{Scenario: name, Sessions: len(results), PerClass: map[string]int{}}
	merged := NewDigest()
	var fpsSum float64
	var fpsN int
	for _, r := range results {
		slo.PerClass[r.Plan.Class]++
		switch {
		case r.Err != nil:
			slo.Failed++
		case r.Rejected:
			slo.Rejected++
		case r.Crashed:
			slo.Crashed++
		default:
			slo.OK++
		}
		merged.Merge(r.Latency)
		s := r.Snapshot
		slo.Frames += int64(r.FramesOK)
		slo.GapSkips += s.FramesSkipped
		slo.ReDispatched += s.ReDispatched
		slo.Evictions += s.Evictions
		slo.HandoffsOK += s.HandoffStats.Completed
		slo.HandoffsFailed += s.HandoffStats.Failed
		slo.QualitySteps += s.QualityChanges
		slo.DownlinkBytes += s.DownlinkBytes
		if r.FramesOK > 0 {
			fpsSum += s.DeliveredFPS()
			fpsN++
		}
		if s.Fleet != nil {
			// Fleet counters are global and monotone; the last session
			// to finish carries the scenario-wide totals.
			if s.Fleet.PeakSessions > slo.FleetPeak {
				slo.FleetPeak = s.Fleet.PeakSessions
			}
			if s.Fleet.Rejected > slo.FleetRejected {
				slo.FleetRejected = s.Fleet.Rejected
			}
			if s.Fleet.GateWaits > slo.FleetGateWaits {
				slo.FleetGateWaits = s.Fleet.GateWaits
			}
		}
	}
	slo.P50 = merged.Quantile(0.50)
	slo.P99 = merged.Quantile(0.99)
	slo.MeanLatency = merged.Mean()
	slo.MaxLatency = merged.Max()
	if fpsN > 0 {
		slo.FPS = fpsSum / float64(fpsN)
	}
	return slo
}

// Table renders the SLO as a human-readable console block.
func (s SLO) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %-16s sessions=%d ok=%d crashed=%d rejected=%d failed=%d\n",
		s.Scenario, s.Sessions, s.OK, s.Crashed, s.Rejected, s.Failed)
	fmt.Fprintf(&b, "  latency  p50=%.2fms p99=%.2fms mean=%.2fms max=%.2fms (%d frames)\n",
		s.P50, s.P99, s.MeanLatency, s.MaxLatency, s.Frames)
	fmt.Fprintf(&b, "  delivery fps=%.1f gap_skips=%d redispatched=%d evictions=%d\n",
		s.FPS, s.GapSkips, s.ReDispatched, s.Evictions)
	fmt.Fprintf(&b, "  elastic  handoffs_ok=%d handoffs_failed=%d quality_steps=%d downlink=%.1fKB\n",
		s.HandoffsOK, s.HandoffsFailed, s.QualitySteps, float64(s.DownlinkBytes)/1024)
	fmt.Fprintf(&b, "  fleet    peak=%d rejected=%d gate_waits=%d\n",
		s.FleetPeak, s.FleetRejected, s.FleetGateWaits)
	classes := make([]string, 0, len(s.PerClass))
	for c := range s.PerClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	parts := make([]string, 0, len(classes))
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%s=%d", c, s.PerClass[c]))
	}
	fmt.Fprintf(&b, "  classes  %s\n", strings.Join(parts, " "))
	return b.String()
}
