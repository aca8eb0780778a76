package gbooster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/gbooster/gbooster/internal/fleet"
	"github.com/gbooster/gbooster/internal/metrics"
)

// ErrFleetOverCapacity reports an admission refused because a Fleet is
// already serving its MaxSessions cap. Refused peers' datagrams are
// dropped and counted in FleetStats.Rejected; a client retrying after
// other sessions drain is admitted normally.
var ErrFleetOverCapacity = fleet.ErrOverCapacity

// FleetConfig identifies what a Fleet serves and how many tenants it
// admits. Zero values mean "library default" throughout.
type FleetConfig struct {
	// Width, Height is the streaming resolution every session renders
	// at (must match the clients').
	Width, Height int
	// MaxSessions caps the concurrently admitted session population;
	// datagrams from new peers beyond the cap are dropped rather than
	// allocating toward OOM. 0 selects the library default (1024).
	MaxSessions int
	// IdleTimeout reaps sessions with no inbound traffic. It must
	// comfortably exceed the longest expected inter-frame gap: reaping
	// a live session discards transport state the peer cannot resync.
	// 0 selects the library default (2 minutes).
	IdleTimeout time.Duration
	// CacheBytes bounds each session's mirrored command cache and must
	// equal the player's cache bound, or the mirrors diverge on the
	// first eviction. 0 selects the library default (32 MiB), which is
	// what every Player uses. A ceiling, not a reservation: the cache
	// allocates as records arrive.
	CacheBytes int
}

// FleetStats is a point-in-time snapshot of a Fleet.
// Admitted/Rejected/NonProtocol/Frames and the gate counters are
// cumulative; Sessions, TimersArmed, GateActive, and GateQueued are
// instantaneous.
// It is an alias of the internal/metrics definition so fleet snapshots
// feed the metrics collectors directly.
type FleetStats = metrics.FleetStats

// Fleet is the multi-tenant counterpart of StreamServer: one UDP
// listener, many concurrent clients. Inbound datagrams are demultiplexed
// by source address onto per-session transport state, every session's
// retransmission timer runs on one shared timer wheel, and renders are
// scheduled through one bounded GPU gate, so the steady-state cost of a
// session is a single goroutine. Build with NewFleet, start with Serve
// or ServeConn, stop with Close.
type Fleet struct {
	cfg fleet.Config

	mu     sync.Mutex
	mgr    *fleet.Manager
	closed bool
}

// NewFleet builds a fleet manager serving cfg's resolution, tuned by
// opts (quality, parallelism, adaptive quality). Per-session rendering is
// serial by default — with many tenants, the parallelism worth having
// is across sessions, which the GPU gate provides.
func NewFleet(cfg FleetConfig, opts ...Option) (*Fleet, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("%w: fleet resolution %dx%d", ErrBadOptions, cfg.Width, cfg.Height)
	}
	o := buildOptions(opts)
	return &Fleet{cfg: fleet.Config{
		Width:           cfg.Width,
		Height:          cfg.Height,
		Quality:         o.quality,
		Parallelism:     o.parallelism,
		AdaptiveQuality: o.adaptiveQuality,
		QualityFloor:    o.qualityFloor,
		CacheBytes:      cfg.CacheBytes,
		MaxSessions:     cfg.MaxSessions,
		IdleTimeout:     cfg.IdleTimeout,
	}}, nil
}

// Serve listens on the UDP address and serves clients until Close (or
// the listener dying). It blocks for the fleet's whole life and returns
// ErrServerClosed after a clean Close.
func (f *Fleet) Serve(addr string) error {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return fmt.Errorf("gbooster: fleet listen: %w", err)
	}
	return f.ServeConn(pc)
}

// ServeConn serves clients arriving on pc until Close. The fleet owns
// pc from here on and closes it on shutdown.
func (f *Fleet) ServeConn(pc net.PacketConn) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		_ = pc.Close()
		return ErrServerClosed
	}
	if f.mgr != nil {
		f.mu.Unlock()
		_ = pc.Close()
		return fmt.Errorf("gbooster: fleet already serving")
	}
	mgr, err := fleet.New(pc, f.cfg)
	if err != nil {
		f.mu.Unlock()
		_ = pc.Close()
		return fmt.Errorf("gbooster: %w", err)
	}
	f.mgr = mgr
	f.mu.Unlock()

	mgr.Wait()

	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return ErrServerClosed
	}
	// The listener died under the manager (fatal socket error).
	_ = mgr.Close()
	return fmt.Errorf("gbooster: fleet listener closed")
}

// Snapshot returns one consistent observation of the fleet's counters
// (zero before Serve/ServeConn) — the fleet-side mirror of
// Player.Snapshot.
func (f *Fleet) Snapshot() FleetSnapshot {
	f.mu.Lock()
	mgr := f.mgr
	f.mu.Unlock()
	if mgr == nil {
		return FleetSnapshot{}
	}
	s := mgr.Stats()
	return FleetSnapshot{FleetStats: FleetStats{
		Sessions:     s.Sessions,
		PeakSessions: s.PeakSessions,
		Admitted:     s.Admitted,
		Rejected:     s.Rejected,
		NonProtocol:  s.NonProtocol,
		Frames:       s.Frames,
		TimersArmed:  s.TimersArmed,
		GateWidth:    s.Gate.Width,
		GateEntries:  s.Gate.Entries,
		GateWaits:    s.Gate.Waits,
		GateActive:   s.Gate.Active,
		GateQueued:   s.Gate.Queued,
	}}
}

// Close shuts the fleet down — listener, every session, timer wheel —
// and unblocks Serve. It is idempotent and safe before Serve.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	mgr := f.mgr
	f.mu.Unlock()
	if mgr != nil {
		return mgr.Close()
	}
	return nil
}
