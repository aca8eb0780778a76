package metrics

import "time"

// This file is the unified observability surface: the per-feature stat
// structs that accreted on gbooster.Player across PRs 1-7 (streaming
// counters, transport health, failover, device states, handoffs) now
// live here as one coherent set, and PlayerSnapshot / FleetSnapshot
// bundle them into a single consistent read. The public package aliases
// these types, so gbooster.PlayerStats and metrics.PlayerStats are the
// same type and a gbooster.PlayerSnapshot feeds a metrics.Registry
// directly.

// PlayerStats summarizes a session's streaming counters.
type PlayerStats struct {
	// FramesSent counts frame batches dispatched to service devices;
	// FramesShown counts frames delivered to the display in order.
	FramesSent, FramesShown int64
	// RawBytes is the serialized command volume before caching and
	// compression; WireBytes what actually crossed the network. Their
	// ratio is the paper's traffic-reduction metric.
	RawBytes, WireBytes int64
	// PreCompressBytes is the uplink volume after the mirrored command
	// cache but before stream compression: the compression ratio is
	// PreCompressBytes/WireBytes, and the cache's own reduction
	// RawBytes/PreCompressBytes.
	PreCompressBytes int64
	// CacheHits / CacheMisses count records the mirrored caches replaced
	// with a 9-byte reference vs. shipped in full.
	CacheHits, CacheMisses int64
	// DownlinkBytes counts encoded frame bytes received from the
	// servers (the downlink half of the traffic picture).
	DownlinkBytes int64
	// QualityNow is the encode quality of the most recently displayed
	// frame, read from the turbo packet headers (zero before the first
	// frame); QualityMin the lowest seen; QualityChanges the number of
	// mid-stream steps. A QualityMin below the configured quality means
	// a server-side adaptive ladder shed bytes under congestion.
	QualityNow, QualityMin int
	QualityChanges         int64
}

// CompressionRatio returns cache-encoded bytes over wire bytes — the
// inter-frame LZ4 dictionary's multiplicative reduction (1 means the
// compressor removed nothing). Zero with no traffic.
func (s PlayerStats) CompressionRatio() float64 {
	if s.WireBytes <= 0 {
		return 0
	}
	return float64(s.PreCompressBytes) / float64(s.WireBytes)
}

// CacheHitRate returns the fraction of encoded records the mirrored
// command caches deduplicated, in [0,1].
func (s PlayerStats) CacheHitRate() float64 {
	if total := s.CacheHits + s.CacheMisses; total > 0 {
		return float64(s.CacheHits) / float64(total)
	}
	return 0
}

// TransportHealth is one service connection's loss-recovery snapshot:
// the adaptive estimator's SRTT and current RTO, the fraction of data
// transmissions that were retransmissions, and send-window occupancy.
type TransportHealth struct {
	Service         string
	SRTT            time.Duration
	RTTVar          time.Duration
	RTO             time.Duration
	ResendRate      float64
	WindowOccupancy int
	WindowLimit     int
	DataSent        int64
	DataResent      int64
	FastResent      int64
	TimeoutResent   int64
}

// WindowUse returns occupancy over limit, in [0,1] (zero with no
// limit).
func (t TransportHealth) WindowUse() float64 {
	if t.WindowLimit <= 0 {
		return 0
	}
	return float64(t.WindowOccupancy) / float64(t.WindowLimit)
}

// FailoverStats summarizes the client's §VI-C fault tolerance over the
// session: orphaned frames re-dispatched to replicas, devices evicted
// and readmitted by the health state machine, frames abandoned on
// every device, duplicate results from slow devices, and messages the
// receive path dropped.
type FailoverStats struct {
	ReDispatched   int64
	FramesSkipped  int64
	LateFrames     int64
	Evictions      int64
	Readmissions   int64
	RecvBadMsgs    int64
	RecvUnexpected int64
}

// DeviceState is one attached service device's dispatch view.
type DeviceState struct {
	Service string
	// Health is "healthy", "suspect", "evicted", or "joining" (a
	// bootstrap handoff is in flight and the device is not yet in the
	// rotation).
	Health string
	// Queued is the device's outstanding Eq. 4 workload.
	Queued float64
}

// HandoffStats summarizes the session's elastic-device activity:
// checkpoint bootstrap streams shipped to joining or readmitted
// devices, handoffs admitted on a matching state-fingerprint ack, and
// handoffs aborted.
type HandoffStats struct {
	// BootstrapsSent counts session bootstrap streams shipped;
	// BootstrapBytes their total size on the wire.
	BootstrapsSent int64
	BootstrapBytes int64
	// Completed counts handoffs whose device was admitted to the
	// rotation; Failed those aborted on a fingerprint mismatch, a send
	// failure, or the handoff deadline.
	Completed int64
	Failed    int64
	// MeanLatency is the average checkpoint-to-admission time of the
	// completed handoffs (zero with none).
	MeanLatency time.Duration
}

// FleetStats is a point-in-time snapshot of a multi-tenant fleet.
// Admitted/Rejected/NonProtocol/Frames and the gate counters are
// cumulative; Sessions, TimersArmed, GateActive, and GateQueued are
// instantaneous.
type FleetStats struct {
	// Sessions is the live session count; PeakSessions the high-water
	// mark since the fleet started serving.
	Sessions, PeakSessions int64
	// Admitted counts sessions ever admitted; Rejected datagrams
	// dropped over capacity; NonProtocol datagrams dropped for not
	// carrying the protocol magic.
	Admitted, Rejected, NonProtocol int64
	// Frames counts rendering requests served across all sessions.
	Frames int64
	// TimersArmed is how many sessions currently hold a slot on the
	// shared retransmission timer wheel (in-flight data only).
	TimersArmed int
	// GateWidth is the render-concurrency bound (the fleet's gate is
	// always GOMAXPROCS wide); GateEntries counts renders admitted through the gate, GateWaits
	// how many of those had to queue, GateActive how many hold a slot
	// right now, and GateQueued how many wait for one right now.
	GateWidth                                      int
	GateEntries, GateWaits, GateActive, GateQueued int64
	// EgressDatagrams, EgressSyscalls and EgressDrops are always zero:
	// the fleet writes each datagram straight to its socket and has no
	// egress queue to count. They remain only for readers that still
	// compile against them.
	EgressDatagrams, EgressSyscalls, EgressDrops int64
}

// PredictStats is the per-session predictive control plane's snapshot
// (paper §V-B wired live): interface-switch activity, exceedance
// forecast quality, and the modeled energy/thermal state driven from
// frame/byte/radio activity. Attached to PlayerSnapshot only when
// predictive control is enabled.
type PredictStats struct {
	// Windows counts closed control windows (100 ms each by default);
	// Frames the frames observed by the controller.
	Windows, Frames int64
	// WakeUps/Sleeps count WiFi radio transitions commanded by the
	// switch; WakeStalls counts windows where demand exceeded the usable
	// path while WiFi was still waking (the realized wake-latency stall
	// the forecaster exists to prevent).
	WakeUps, Sleeps, WakeStalls int64
	// WiFiWindows/BTWindows count windows routed over each interface.
	WiFiWindows, BTWindows int64
	// TPExceed..TNExceed score the threshold-exceedance forecasts
	// (predicted vs. realized, horizon-aligned): a false negative is a
	// spike the model missed, a false positive a spurious wake.
	TPExceed, FPExceed, FNExceed, TNExceed int64
	// ForecastErrEWMA is the smoothed |h-step forecast − realized| in
	// Mbps; ForecastMbps and DemandMbps are the latest horizon forecast
	// and the latest closed window's realized demand.
	ForecastErrEWMA, ForecastMbps, DemandMbps float64
	// LoadForecast is the predicted near-future workload (record units)
	// currently biasing Eq. 4 dispatch.
	LoadForecast float64
	// EnergyJoules is the session's total modeled energy; EnergyWiFiJ,
	// EnergyBTJ, EnergyCPUJ, EnergyDisplayJ, and EnergyGPUJ its
	// components (radio integration + activity-driven CPU/display/GPU
	// draw).
	EnergyJoules                                                   float64
	EnergyWiFiJ, EnergyBTJ, EnergyCPUJ, EnergyDisplayJ, EnergyGPUJ float64
	// GPUTempC and ThermalScale are the thermal governor's state;
	// Throttled reports whether it ever throttled; ThermalSwaps counts
	// frequency swaps.
	GPUTempC, ThermalScale float64
	Throttled              bool
	ThermalSwaps           int64
}

// EnergyPerFrameJ returns modeled joules per observed frame (zero
// before the first frame).
func (p PredictStats) EnergyPerFrameJ() float64 {
	if p.Frames <= 0 {
		return 0
	}
	return p.EnergyJoules / float64(p.Frames)
}

// ExceedanceFPRate returns FP/(FP+TN): calm periods wrongly predicted
// to spike (cheap: WiFi woke for nothing).
func (p PredictStats) ExceedanceFPRate() float64 {
	if total := p.FPExceed + p.TNExceed; total > 0 {
		return float64(p.FPExceed) / float64(total)
	}
	return 0
}

// ExceedanceFNRate returns FN/(FN+TP): real spikes the forecast missed
// (costly: traffic queues behind a sleeping WiFi interface).
func (p PredictStats) ExceedanceFNRate() float64 {
	if total := p.FNExceed + p.TPExceed; total > 0 {
		return float64(p.FNExceed) / float64(total)
	}
	return 0
}

// PlayerSnapshot is one consistent observation of a whole session: the
// streaming, failover, and handoff counter blocks from a single
// underlying stats read, plus the per-device dispatch and transport
// views taken back-to-back with it. It is what a Collector observes
// and what Player.Snapshot returns.
type PlayerSnapshot struct {
	// Elapsed is the session age (time since the player was built) at
	// the moment of the snapshot, so collectors can difference
	// successive snapshots into rates.
	Elapsed time.Duration

	PlayerStats
	FailoverStats
	HandoffStats

	// Devices is each attached service device's failover health, in
	// attach order; Transports the per-service transport health in the
	// same order.
	Devices    []DeviceState
	Transports []TransportHealth

	// FrameLatencyTotal/Max/Count accumulate the caller-visible frame
	// span (StepFrame issue to display — the paper's Eq. 5 response
	// time) measured by the player itself. Zero before the first frame.
	FrameLatencyTotal time.Duration
	FrameLatencyMax   time.Duration
	FrameLatencyCount int64

	// Fleet carries the serving fleet's counters when the observer can
	// see them (the load harness's in-process mode, a server-side stats
	// loop); nil for a standalone player, which has no fleet view.
	Fleet *FleetStats

	// Predict carries the predictive control plane's stats when the
	// session runs with WithPredictiveControl; nil otherwise, so
	// existing collectors see no change.
	Predict *PredictStats
}

// DeliveredFPS returns display throughput over the session so far
// (frames shown per second of session age). Zero before any frame.
func (s PlayerSnapshot) DeliveredFPS() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.FramesShown) / s.Elapsed.Seconds()
}

// MeanFrameLatency returns the mean caller-visible frame span (zero
// with no timed frames).
func (s PlayerSnapshot) MeanFrameLatency() time.Duration {
	if s.FrameLatencyCount <= 0 {
		return 0
	}
	return s.FrameLatencyTotal / time.Duration(s.FrameLatencyCount)
}

// FleetSnapshot is the fleet-side mirror of PlayerSnapshot: one
// consistent read of a fleet's counters. It is what Fleet.Snapshot
// returns.
type FleetSnapshot struct {
	FleetStats
}
