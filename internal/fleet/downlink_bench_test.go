package fleet_test

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/fleet"
)

// BenchmarkDownlinkServe measures the fleet's downlink over a real UDP
// socket pair — the configuration where every datagram costs a syscall,
// unlike the in-memory hub BenchmarkFleetServe uses. Frames are driven
// concurrently from every session, matching how a fleet actually loads
// the listener.
func BenchmarkDownlinkServe(b *testing.B) {
	for _, sessions := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			benchDownlinkServe(b, sessions)
		})
	}
}

func benchDownlinkServe(b *testing.B, sessions int) {
	loop := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	lc, err := net.ListenUDP("udp", loop)
	if err != nil {
		b.Fatal(err)
	}
	lc.SetReadBuffer(8 << 20)  // best effort: absorb admission bursts
	lc.SetWriteBuffer(8 << 20) // and reply bursts
	cfg := newFleetConfig()
	cfg.MaxSessions = sessions
	cfg.IdleTimeout = time.Hour // never reap mid-bench
	m, err := fleet.New(lc, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	addr := lc.LocalAddr()

	clients := make([]*testClient, sessions)
	for i := range clients {
		pc, err := net.ListenUDP("udp", loop)
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = newTestClient(pc, addr, uint64(i+1)<<32)
		defer clients[i].close()
	}

	// Warm every session concurrently — admission, keyframe, one delta
	// frame — so the measured loop sees only steady state.
	var wg sync.WaitGroup
	warmErr := make(chan error, sessions)
	for _, c := range clients {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := 0; w < 2; w++ {
				if _, err := c.sendFrame(0.25); err != nil {
					warmErr <- err
					return
				}
				if _, err := c.recvFrame(60 * time.Second); err != nil {
					warmErr <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-warmErr:
		b.Fatal(err)
	default:
	}
	if got := m.Sessions(); got != sessions {
		b.Fatalf("sessions admitted %d, want %d", got, sessions)
	}

	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	// b.N frames total, pulled from a shared counter by one goroutine
	// per session: every live session competes for the listener at
	// once.
	for _, c := range clients {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := c.sendFrame(0.25); err != nil {
					b.Error(err)
					return
				}
				if _, err := c.recvFrame(60 * time.Second); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
}
