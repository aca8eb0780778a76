// Command gbooster-server runs a GBooster service device over UDP. By
// default it accepts one client, replays its intercepted OpenGL ES
// command stream on the software GPU, and streams turbo-encoded frames
// back — the §IV-C server side on a real socket. With -fleet it serves
// many clients at once on the same listener: inbound datagrams are
// demultiplexed by source address onto per-session state, sessions past
// -max-sessions are refused, and idle sessions are reaped after -idle.
//
// Usage:
//
//	gbooster-server [-addr :4870] [-width 600] [-height 480]
//	                [-quality 60] [-adaptive-quality] [-quality-floor 20]
//	                [-parallelism 0]
//	                [-fleet] [-max-sessions 1024] [-idle 2m] [-stats 0]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/gbooster/gbooster"
	"github.com/gbooster/gbooster/internal/metrics"
)

func main() {
	addr := flag.String("addr", ":4870", "UDP address to listen on")
	width := flag.Int("width", 600, "stream width")
	height := flag.Int("height", 480, "stream height")
	quality := flag.Int("quality", 0, "turbo codec quality (0 = default)")
	adaptive := flag.Bool("adaptive-quality", false, "step quality down under transport congestion (-quality becomes the ceiling)")
	qualityFloor := flag.Int("quality-floor", 0, "adaptive quality lower bound (0 = default)")
	parallelism := flag.Int("parallelism", 0, "data-plane workers (0 = one per CPU, 1 = serial)")
	fleetMode := flag.Bool("fleet", false, "serve many clients on one listener (multi-tenant mode)")
	maxSessions := flag.Int("max-sessions", 0, "fleet admission cap (0 = default 1024)")
	idle := flag.Duration("idle", 0, "fleet idle-session reap timeout (0 = default 2m)")
	statsEvery := flag.Duration("stats", 0, "fleet stats report interval (0 = off)")
	flag.Parse()

	opts := []gbooster.Option{
		gbooster.WithQuality(*quality),
		gbooster.WithParallelism(*parallelism),
	}
	if *adaptive {
		opts = append(opts, gbooster.WithAdaptiveQuality(*qualityFloor))
	}

	if *fleetMode {
		if err := runFleet(*addr, *width, *height, *maxSessions, *idle, *statsEvery, opts); err != nil {
			fmt.Fprintln(os.Stderr, "gbooster-server:", err)
			os.Exit(1)
		}
		return
	}

	srv, err := gbooster.NewStreamServer(
		gbooster.StreamServerConfig{Width: *width, Height: *height},
		opts...,
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbooster-server:", err)
		os.Exit(1)
	}
	fmt.Printf("gbooster-server: serving %dx%d on %s (waiting for a client)\n", *width, *height, *addr)
	if err := srv.ServeUDP(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "gbooster-server:", err)
		os.Exit(1)
	}
}

// runFleet serves the multi-tenant mode, optionally sampling fleet
// counters every statsEvery and printing a running report — live
// session count plus the capacity-pressure signals (admission
// rejections, GPU-gate queueing).
func runFleet(addr string, width, height, maxSessions int, idle, statsEvery time.Duration, opts []gbooster.Option) error {
	fl, err := gbooster.NewFleet(
		gbooster.FleetConfig{
			Width:       width,
			Height:      height,
			MaxSessions: maxSessions,
			IdleTimeout: idle,
		},
		opts...,
	)
	if err != nil {
		return err
	}
	fmt.Printf("gbooster-server: fleet serving %dx%d on %s\n", width, height, addr)

	if statsEvery > 0 {
		go func() {
			tick := time.NewTicker(statsEvery)
			defer tick.Stop()
			var col metrics.FleetCollector
			for range tick.C {
				// The unified snapshot path: the fleet snapshot rides a
				// PlayerSnapshot into the same collector gbooster-load's
				// sessions feed.
				snap := fl.Snapshot()
				col.Observe(metrics.PlayerSnapshot{Fleet: &snap.FleetStats})
				tot := col.Totals()
				perSyscall := 0.0
				if snap.EgressSyscalls > 0 {
					perSyscall = float64(snap.EgressDatagrams) / float64(snap.EgressSyscalls)
				}
				fmt.Printf("fleet: sessions=%d peak=%d frames=%d fps=%.1f forecast_fps=%.1f reject_rate=%.3f gate_wait_rate=%.3f gate_queued=%d non_protocol=%d egress_dgrams=%d egress_per_syscall=%.1f egress_drops=%d\n",
					snap.Sessions, col.PeakSessions(), tot.Frames, snap.FrameRate, snap.ForecastFrameRate,
					col.RejectRate(), col.GateWaitRate(), snap.GateQueued, tot.NonProtocol,
					snap.EgressDatagrams, perSyscall, snap.EgressDrops)
			}
		}()
	}
	return fl.Serve(addr)
}
