// Loss-soak tests: drive the reliable transport over netsim's
// packet-level link emulator (delay + jitter + bandwidth + loss) and
// assert goodput and recovery-latency bounds — the §VII-B stability
// story depends on the transport not stalling the frame pipeline on a
// lossy radio.
package rudp_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/metrics"
	"github.com/gbooster/gbooster/internal/netsim"
	"github.com/gbooster/gbooster/internal/rudp"
)

// soakResult summarizes one unidirectional soak transfer.
type soakResult struct {
	elapsed    time.Duration
	goodputBps float64
	maxGap     time.Duration // worst inter-delivery stall (recovery latency)
	stats      rudp.Stats
	health     *metrics.TransportCollector
}

// soakPayload builds message i deterministically so the receiver can
// verify content byte-for-byte.
func soakPayload(i, size int) []byte {
	msg := make([]byte, size)
	for j := range msg {
		msg[j] = byte((i*131 + j*31) ^ (j >> 3))
	}
	return msg
}

// runSoak ships msgs messages of size bytes from a fresh sender to a
// fresh receiver across an emulated link and fails the test on any
// loss, reordering, or corruption of the message stream.
func runSoak(t *testing.T, opts rudp.Options, cfg netsim.LinkConfig, seed uint64, msgs, size int) soakResult {
	t.Helper()
	lb, la := netsim.NewPair(cfg, seed)
	a := rudp.New(la, lb.Addr(), opts)
	b := rudp.New(lb, la.Addr(), opts)
	defer a.Close()
	defer b.Close()

	health := &metrics.TransportCollector{}
	sampleDone := make(chan struct{})
	samplerExited := make(chan struct{})
	go func() {
		defer close(samplerExited)
		ticker := time.NewTicker(20 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-sampleDone:
				return
			case <-ticker.C:
				st := a.Stats()
				use := 0.0
				if st.WindowLimit > 0 {
					use = float64(st.WindowOccupancy) / float64(st.WindowLimit)
				}
				health.Add(metrics.TransportSample{
					SRTT:       st.SRTT,
					RTO:        st.RTO,
					ResendRate: st.ResendRate(),
					WindowUse:  use,
				})
			}
		}
	}()

	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := a.Send(soakPayload(i, size)); err != nil {
				sendErr <- fmt.Errorf("send %d: %w", i, err)
				return
			}
		}
		sendErr <- nil
	}()

	start := time.Now()
	last := start
	var maxGap time.Duration
	for i := 0; i < msgs; i++ {
		got, err := b.Recv(30 * time.Second)
		if err != nil {
			t.Fatalf("soak recv %d/%d: %v", i, msgs, err)
		}
		want := soakPayload(i, size)
		if len(got) != len(want) {
			t.Fatalf("soak message %d: %d bytes, want %d (stream corrupted)", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("soak message %d corrupt at byte %d (out-of-order delivery?)", i, j)
			}
		}
		now := time.Now()
		if gap := now.Sub(last); gap > maxGap {
			maxGap = gap
		}
		last = now
	}
	elapsed := time.Since(start)
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	close(sampleDone)
	<-samplerExited
	return soakResult{
		elapsed:    elapsed,
		goodputBps: float64(msgs*size) / elapsed.Seconds(),
		maxGap:     maxGap,
		stats:      a.Stats(),
		health:     health,
	}
}

// soakLink is the reference radio path: the Lossy5 profile — 30 ms
// RTT, 2 ms jitter, 1 MB/s each way with a 50 ms bottleneck queue —
// with the loss rate swapped per test. The bandwidth is chosen just
// below the window-limited send rate, so a transport that multiplies
// its offered load with spurious retransmissions congests its own
// bottleneck queue instead of hiding behind link headroom.
func soakLink(loss float64) netsim.LinkConfig {
	cfg := netsim.Lossy5.Link
	cfg.Loss = loss
	return cfg
}

// soakOptions sizes the window to the path's delay-bandwidth product
// (≈60 KB at 2 MB/s × 30 ms) so the un-congestion-controlled sender
// doesn't drown its own bottleneck queue and inflate every RTT.
func soakOptions() rudp.Options {
	opts := rudp.DefaultOptions()
	opts.Window = 32
	return opts
}

func TestSoakAdaptiveAcrossLossRates(t *testing.T) {
	msgs, size := 100, 4096
	rates := []float64{0.01, 0.05, 0.20}
	gapBound := map[float64]time.Duration{0.01: time.Second, 0.05: time.Second, 0.20: 2 * time.Second}
	if testing.Short() {
		msgs = 40
		rates = []float64{0.05}
	}
	for _, loss := range rates {
		loss := loss
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			cfg := soakLink(loss)
			res := runSoak(t, soakOptions(), cfg, 1000+uint64(loss*100), msgs, size)
			t.Logf("loss=%.0f%%: goodput %.0f KB/s, maxGap %v, resendRate %.3f, SRTT %v, RTO %v",
				loss*100, res.goodputBps/1024, res.maxGap, res.stats.ResendRate(), res.stats.SRTT, res.stats.RTO)
			// Recovery latency: a single loss must never stall the
			// in-order stream for longer than a few adapted RTOs.
			if res.maxGap > gapBound[loss] {
				t.Errorf("max delivery stall %v exceeds %v at %.0f%% loss", res.maxGap, gapBound[loss], loss*100)
			}
			// Goodput floor: at least a tenth of the raw link rate even
			// at 20% loss.
			if res.goodputBps < float64(cfg.Bandwidth)/10 {
				t.Errorf("goodput %.0f B/s below floor at %.0f%% loss", res.goodputBps, loss*100)
			}
			if res.stats.SRTT <= 0 {
				t.Error("estimator never produced an RTT sample")
			}
			if res.health.Count() > 0 && res.health.MaxRTO() > soakOptions().MaxRTO {
				t.Errorf("sampled RTO %v beyond MaxRTO", res.health.MaxRTO())
			}
		})
	}
}
