package fleet_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/fleet"
)

// BenchmarkFleetServe measures the steady-state serve path — datagram
// demux, injection into per-session rudp state, gated render, encoded
// reply — as the session population grows 1 → 64 → 1024 on one shared
// listener. The numbers the fleet architecture must hold:
//
//   - ns/op (one frame served) roughly flat: a session's frame cost
//     must not grow with fleet size;
//   - allocs/op flat (±10%): the shared pools and injection path must
//     not introduce per-session steady-state allocation;
//   - goroutines/session O(1): one serve goroutine per session, zero
//     per-session transport goroutines (shared demux + timer wheel).
//
// The goroutines/session metric counts only fleet-side goroutines: the
// baseline is snapshotted after the bench clients (who run the legacy
// two-goroutine transport each) are fully constructed.
func BenchmarkFleetServe(b *testing.B) {
	for _, sessions := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			benchFleetServe(b, sessions)
		})
	}
}

func benchFleetServe(b *testing.B, sessions int) {
	hub, leaves := newStar(b, sessions, 99)
	cfg := newFleetConfig()
	cfg.MaxSessions = sessions
	cfg.IdleTimeout = time.Hour // never reap mid-bench
	m, err := fleet.New(hub, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()

	clients := make([]*testClient, sessions)
	for i := range clients {
		clients[i] = newTestClient(leaves[i], hub.Addr(), uint64(i+1)<<32)
		defer clients[i].close()
	}
	runtime.GC()
	gBefore := runtime.NumGoroutine()

	// Warm every session concurrently: admission, keyframe, and one
	// delta frame, so the measured loop sees only steady state.
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
	gAfter := runtime.NumGoroutine()
	if got := m.Sessions(); got != sessions {
		b.Fatalf("sessions admitted %d, want %d", got, sessions)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := clients[i%sessions]
		if _, err := c.sendFrame(0.25); err != nil {
			b.Fatal(err)
		}
		if _, err := c.recvFrame(60 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(gAfter-gBefore)/float64(sessions), "goroutines/session")
}
