package gbooster

import (
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/netsim"
)

// runConstrainedSession plays one workload session over a
// bandwidth-capped emulated link and returns the player stats plus the
// sorted per-frame StepFrame latencies.
func runConstrainedSession(t *testing.T, seed uint64, frames int, opts ...Option) (PlayerStats, []time.Duration) {
	t.Helper()
	// Big enough that a quality-85 G5 frame is ~2 KB, several datagrams:
	// the link below only congests under multi-datagram frames. (96x72
	// carried that many bytes before turbo packed coefficients in bits.)
	const w, h = 160, 120
	player, err := NewPlayer(PlayerConfig{Workload: "G5", Width: w, Height: h, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = player.Close() }()
	srv, err := NewStreamServer(StreamServerConfig{Width: w, Height: h}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// A link tight enough that multi-datagram frames queue behind each
	// other: serialization delay inflates RTT and overflows the shallow
	// emulated router buffer, producing drops and retransmits — the
	// congestion regime the quality ladder exists for. The parameters
	// live in the WiFiCongested profile, which pins this exact tuple.
	ls, lc := netsim.WiFiCongested.NewPair(seed)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.ServeConn(ls, lc.Addr())
	}()
	defer func() {
		_ = srv.Close()
		wg.Wait()
	}()
	if err := player.ConnectConn("dev", lc, ls.Addr(), 1000); err != nil {
		t.Fatal(err)
	}
	lat := make([]time.Duration, 0, frames)
	for f := 0; f < frames; f++ {
		start := time.Now()
		if _, err := player.StepFrame(30 * time.Second); err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		lat = append(lat, time.Since(start))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return player.Snapshot().PlayerStats, lat
}

// p99 returns the 99th-percentile of a sorted latency slice.
func p99(sorted []time.Duration) time.Duration {
	return sorted[len(sorted)*99/100]
}

// TestAdaptiveQualityTradesQualityNotLatency is the ladder's A/B
// acceptance gate: on the same congested link, an adaptive-quality
// server must shed encode quality (visible to the player through the
// packet headers) and downlink bytes, without making tail frame latency
// worse than the fixed-quality server's. Trading fidelity for latency is
// the point; trading latency for fidelity would mean the ladder failed.
func TestAdaptiveQualityTradesQualityNotLatency(t *testing.T) {
	const frames = 80
	const ceiling = 85
	fixed, fixedLat := runConstrainedSession(t, 41, frames, WithQuality(ceiling))
	adaptive, adaptiveLat := runConstrainedSession(t, 41, frames,
		WithQuality(ceiling), WithAdaptiveQuality(25))

	// The fixed server never moves off its configured quality.
	if fixed.QualityMin != ceiling || fixed.QualityChanges != 0 {
		t.Fatalf("fixed server moved quality: min=%d changes=%d",
			fixed.QualityMin, fixed.QualityChanges)
	}
	// The adaptive server must have stepped down under this much
	// congestion, and the player must have seen it in-band.
	if adaptive.QualityMin >= ceiling {
		t.Fatalf("adaptive ladder never engaged: QualityMin=%d", adaptive.QualityMin)
	}
	if adaptive.QualityChanges == 0 {
		t.Fatal("player observed no quality changes from the adaptive server")
	}
	// Shedding quality must shed downlink bytes.
	if adaptive.DownlinkBytes >= fixed.DownlinkBytes {
		t.Fatalf("adaptive downlink %d B >= fixed %d B", adaptive.DownlinkBytes, fixed.DownlinkBytes)
	}
	// And it must buy latency, not cost it: tail frame time no worse
	// than the fixed run's (with slack for scheduler noise).
	fp, ap := p99(fixedLat), p99(adaptiveLat)
	if ap > fp+fp/2 {
		t.Fatalf("adaptive p99 %v exceeds fixed p99 %v by >50%%", ap, fp)
	}
	t.Logf("fixed: p99=%v downlink=%dB; adaptive: p99=%v downlink=%dB qualityMin=%d changes=%d",
		fp, fixed.DownlinkBytes, ap, adaptive.DownlinkBytes,
		adaptive.QualityMin, adaptive.QualityChanges)
}
