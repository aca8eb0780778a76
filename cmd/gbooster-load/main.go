// Command gbooster-load drives scenario-shaped fleets of simulated
// players against a GBooster server and reports per-scenario SLOs:
// frame-latency quantiles, delivered FPS, failover and handoff
// activity, quality-ladder movement, and fleet capacity pressure.
//
// By default each scenario gets a fresh in-process fleet behind an
// emulated network (per-session loss/jitter/bandwidth from the
// scenario's link profiles), so a capacity study needs no running
// server. With -addr the same scenarios aim at a real gbooster-server
// over UDP instead; link profiles then don't apply and fleet counters
// aren't visible.
//
// Usage:
//
//	gbooster-load [-scenario all|production-day,spike,flash-crowd,churn,congested]
//	              [-sessions 0] [-frames 0] [-seed 0] [-workers 0]
//	              [-width 320] [-height 240] [-link profile]
//	              [-arrival-window 0] [-churn-fraction -1]
//	              [-max-sessions 0] [-idle 30s] [-quality 0]
//	              [-adaptive-quality] [-quality-floor 0] [-parallelism 1]
//	              [-addr host:port] [-predict]
//
// Each scenario's SLO table goes to stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/gbooster/gbooster"
	"github.com/gbooster/gbooster/internal/loadgen"
	"github.com/gbooster/gbooster/internal/netsim"
)

func main() {
	scenarios := flag.String("scenario", "all", "comma-separated scenario presets, or \"all\" ("+strings.Join(loadgen.ScenarioNames(), ", ")+")")
	sessions := flag.Int("sessions", 0, "override each scenario's session count (0 = preset)")
	frames := flag.Int("frames", 0, "override each scenario's frames per session (0 = preset)")
	seed := flag.Uint64("seed", 0, "override each scenario's seed (0 = preset)")
	workers := flag.Int("workers", 0, "concurrent session workers (0 = one per CPU)")
	width := flag.Int("width", 320, "stream width")
	height := flag.Int("height", 240, "stream height")
	link := flag.String("link", "", "force every session onto one link profile ("+strings.Join(netsim.ProfileNames(), ", ")+")")
	arrival := flag.Duration("arrival-window", 0, "override each scenario's session arrival window (0 = preset)")
	churn := flag.Float64("churn-fraction", -1, "override each scenario's total churn share 0..1, split across crash/drain/hot-join in the preset's proportions (negative = preset)")
	maxSessions := flag.Int("max-sessions", 0, "in-process fleet admission cap (0 = default)")
	idle := flag.Duration("idle", 30*time.Second, "in-process fleet idle-reap timeout")
	quality := flag.Int("quality", 0, "turbo codec quality (0 = default)")
	adaptive := flag.Bool("adaptive-quality", false, "step quality down under congestion")
	qualityFloor := flag.Int("quality-floor", 0, "adaptive quality lower bound (0 = default)")
	parallelism := flag.Int("parallelism", 1, "per-session data-plane workers (1 = serial; sessions already run concurrently)")
	addr := flag.String("addr", "", "aim at a real server at this UDP address instead of an in-process fleet")
	predict := flag.Bool("predict", false, "enable each session's predictive control plane (ARMAX forecast, radio pre-wake, energy accounting)")
	flag.Parse()

	names := loadgen.ScenarioNames()
	if *scenarios != "all" {
		names = strings.Split(*scenarios, ",")
	}
	opts := []gbooster.Option{
		gbooster.WithQuality(*quality),
		gbooster.WithParallelism(*parallelism),
	}
	if *adaptive {
		opts = append(opts, gbooster.WithAdaptiveQuality(*qualityFloor))
	}
	if *predict {
		opts = append(opts, gbooster.WithPredictiveControl())
	}

	failed := false
	for _, name := range names {
		sc, err := loadgen.ScenarioByName(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		sc, err = applyOverrides(sc, overrides{
			Sessions:      *sessions,
			Frames:        *frames,
			Seed:          *seed,
			Link:          *link,
			ArrivalWindow: *arrival,
			ChurnFraction: *churn,
		})
		if err != nil {
			fatal(err)
		}

		slo, err := runScenario(sc, *addr, *width, *height, *maxSessions, *idle, *workers, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(slo.Table())
		if slo.Failed > 0 {
			failed = true
		}
	}
	if failed {
		fatal(fmt.Errorf("some sessions failed (see tables)"))
	}
}

// overrides captures the per-scenario CLI knobs that rewrite a preset
// before it runs. Zero values (and a negative ChurnFraction) mean
// "keep the preset's setting".
type overrides struct {
	Sessions      int
	Frames        int
	Seed          uint64
	Link          string
	ArrivalWindow time.Duration
	ChurnFraction float64
}

// applyOverrides rewrites sc with the set overrides. ChurnFraction
// redistributes the total churn share across the preset's
// crash/drain/hot-join proportions — a preset with no churn at all
// splits the fraction evenly three ways, so -churn-fraction works on
// every preset, not only the churn-flavored ones.
func applyOverrides(sc loadgen.Scenario, o overrides) (loadgen.Scenario, error) {
	if o.Sessions > 0 {
		sc.Sessions = o.Sessions
	}
	if o.Frames > 0 {
		sc.FramesPerSession = o.Frames
	}
	if o.Seed != 0 {
		sc.Seed = o.Seed
	}
	if o.Link != "" {
		p, err := netsim.ProfileByName(o.Link)
		if err != nil {
			return sc, err
		}
		sc.Links = []loadgen.WeightedProfile{{Profile: p, Weight: 1}}
	}
	if o.ArrivalWindow > 0 {
		sc.ArrivalWindow = o.ArrivalWindow
	}
	if o.ChurnFraction >= 0 {
		if o.ChurnFraction > 1 {
			return sc, fmt.Errorf("churn-fraction %v out of range [0, 1]", o.ChurnFraction)
		}
		total := sc.Crash + sc.Drain + sc.HotJoin
		if total > 0 {
			scale := o.ChurnFraction / total
			sc.Crash *= scale
			sc.Drain *= scale
			sc.HotJoin *= scale
		} else {
			sc.Crash = o.ChurnFraction / 3
			sc.Drain = o.ChurnFraction / 3
			sc.HotJoin = o.ChurnFraction / 3
		}
	}
	return sc, nil
}

// runScenario builds a fresh target per scenario — each preset starts
// against an empty fleet, so results don't depend on run order — and
// executes it.
func runScenario(sc loadgen.Scenario, addr string, width, height, maxSessions int, idle time.Duration, workers int, opts []gbooster.Option) (loadgen.SLO, error) {
	var target loadgen.Target
	var err error
	if addr != "" {
		target, err = loadgen.NewUDPTarget(addr)
	} else {
		target, err = loadgen.NewFleetTarget(gbooster.FleetConfig{
			Width:       width,
			Height:      height,
			MaxSessions: maxSessions,
			IdleTimeout: idle,
		}, opts...)
	}
	if err != nil {
		return loadgen.SLO{}, err
	}
	defer func() { _ = target.Close() }()

	results, err := loadgen.Run(loadgen.RunConfig{
		Target:  target,
		Width:   width,
		Height:  height,
		Workers: workers,
		Options: opts,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}, sc)
	if err != nil {
		return loadgen.SLO{}, err
	}
	return loadgen.Summarize(sc.Name, results), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gbooster-load:", err)
	os.Exit(1)
}
