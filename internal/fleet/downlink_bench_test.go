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
// socket pair — the configuration where syscall cost exists to be
// amortized, unlike the in-memory hub BenchmarkFleetServe uses. Each
// sub-benchmark reports datagrams/syscall for the egress path:
// batch=on runs the coalescing egress writer, batch=off the direct
// one-WriteTo-per-datagram path it replaced, so the pair quantifies the
// sendmmsg win at each fleet size. Frames are driven concurrently from
// every session, matching how a fleet actually loads the listener.
func BenchmarkDownlinkServe(b *testing.B) {
	for _, sessions := range []int{1, 64, 1024} {
		for _, batch := range []bool{true, false} {
			mode := "off"
			if batch {
				mode = "on"
			}
			b.Run(fmt.Sprintf("sessions=%d/batch=%s", sessions, mode), func(b *testing.B) {
				benchDownlinkServe(b, sessions, batch)
			})
		}
	}
}

func benchDownlinkServe(b *testing.B, sessions int, batched bool) {
	loop := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	lc, err := net.ListenUDP("udp", loop)
	if err != nil {
		b.Fatal(err)
	}
	lc.SetReadBuffer(8 << 20)  // best effort: absorb admission bursts
	lc.SetWriteBuffer(8 << 20) // and batched reply flushes
	cfg := newFleetConfig()
	cfg.MaxSessions = sessions
	cfg.IdleTimeout = time.Hour // never reap mid-bench
	if !batched {
		cfg.EgressBatch = -1
	}
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

	before := m.Stats()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	// b.N frames total, pulled from a shared counter by one goroutine
	// per session: every live session competes for the listener at
	// once, which is the load the egress writer exists to coalesce.
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

	st := m.Stats()
	if batched {
		dg := st.EgressDatagrams - before.EgressDatagrams
		sys := st.EgressSyscalls - before.EgressSyscalls
		if sys > 0 {
			b.ReportMetric(float64(dg)/float64(sys), "datagrams/syscall")
		}
		if drops := st.EgressDrops - before.EgressDrops; drops > 0 {
			b.ReportMetric(float64(drops)/float64(b.N), "egress-drops/op")
		}
	} else {
		// Direct path: every datagram is its own WriteTo syscall by
		// construction.
		b.ReportMetric(1.0, "datagrams/syscall")
	}
}
