package main

import (
	"fmt"
	"image"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	gbooster "github.com/gbooster/gbooster"
	"github.com/gbooster/gbooster/internal/cmdcache"
	"github.com/gbooster/gbooster/internal/netsim"
)

// workload is one named set of inputs. Every workload is a closed
// loop: a session issues its next frame only after the previous one
// displayed, so at most one frame per driver goroutine is in flight.
type workload struct {
	Name string
	// Sessions is the number of Players; session i runs catalog
	// workload Games[i mod len(Games)] with seed base+i.
	Sessions      int
	Games         []string
	Width, Height int
	// Link names the netsim profile of the in-memory Hub link between
	// one Player and one StreamServer. Empty means a gbooster.Fleet on
	// a real UDP socket on 127.0.0.1 (the host's loopback interface).
	Link string
	// Frames is the timed frames per session, over all segments, when
	// no -seconds is given (fixed counts: byte metrics repeat exactly
	// for a seed).
	Frames int
	// VerifyFrames is how many frames per session an untraced run
	// replays to check the displayed output and take psnr_db_min.
	VerifyFrames int
	// Setups is how many segments an untraced run's timed phase has.
	// Each sets the workload up afresh with a seed of its own; setup_s
	// is the median over them.
	Setups int
}

// workloads is the benchmark's fixed set. Why each exists is in
// README.md and BENCHMARK.json, which lists the same names
// (TestBenchmarkJSONMatches holds the two together).
var workloads = []workload{
	{
		Name:     "solo-action",
		Sessions: 1, Games: []string{"G1"}, Width: 600, Height: 480,
		Link: "loopback", Frames: 1500, VerifyFrames: 60, Setups: 16,
	},
	{
		Name:     "solo-static",
		Sessions: 1, Games: []string{"A1"}, Width: 600, Height: 480,
		Link: "loopback", Frames: 6000, VerifyFrames: 200, Setups: 48,
	},
	{
		Name:     "solo-wifi",
		Sessions: 1, Games: []string{"G3"}, Width: 600, Height: 480,
		Link: "wifi-good", Frames: 1000, VerifyFrames: 40, Setups: 16,
	},
	{
		Name:     "fleet-64",
		Sessions: 64, Games: []string{"G5", "A1", "G1", "A2"}, Width: 320, Height: 240,
		Link: "", Frames: 150, VerifyFrames: 30, Setups: 3,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stepTimeout bounds one StepFrame. A frame that has not displayed by
// then counts as failed and its session is abandoned.
const stepTimeout = 10 * time.Second

// rig is one live instance of a workload: the server side, the
// players, and what it takes to tear both down.
type rig struct {
	w       workload
	seed    uint64
	players []*gbooster.Player
	srv     *gbooster.StreamServer // solo workloads
	fleet   *gbooster.Fleet        // fleet workloads
	close   func()
}

// buildRig constructs and connects a workload's server and players. No
// frame has been issued when it returns.
func buildRig(w workload, seed uint64) (*rig, error) {
	r := &rig{w: w, seed: seed}
	var err error
	if w.Link == "" {
		err = r.buildFleet()
	} else {
		err = r.buildSolo()
	}
	if err != nil {
		if r.close != nil {
			r.close()
		}
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return r, nil
}

func (r *rig) buildSolo() error {
	w := r.w
	prof, err := netsim.ProfileByName(w.Link)
	if err != nil {
		return err
	}
	hub := netsim.NewHub("server")
	// The link's loss/jitter stream is rooted in the run seed too, but
	// kept apart from the player's so the two never share draws.
	port, err := hub.Attach("player", prof.Link, r.seed^0x6c696e6b)
	if err != nil {
		return err
	}
	srv, err := gbooster.NewStreamServer(gbooster.StreamServerConfig{Width: w.Width, Height: w.Height})
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.ServeConn(hub, port.Addr()) // ends when close() closes the session
	}()
	r.srv = srv
	r.close = func() {
		for _, p := range r.players {
			_ = p.Close()
		}
		_ = srv.Close()
		<-served
		_ = hub.Close()
	}
	p, err := gbooster.NewPlayer(gbooster.PlayerConfig{Workload: w.Games[0], Width: w.Width, Height: w.Height, Seed: r.seed})
	if err != nil {
		return err
	}
	r.players = append(r.players, p)
	return p.ConnectConn("server", port, hub.Addr(), 1000)
}

func (r *rig) buildFleet() error {
	w := r.w
	// CacheBytes is pinned to the Player's own (fixed) cache size: a
	// default Fleet mirrors 1 MiB per session against the Player's
	// 32 MiB and wedges once the fleet side evicts (see README, known
	// defects).
	fl, err := gbooster.NewFleet(gbooster.FleetConfig{
		Width: w.Width, Height: w.Height,
		MaxSessions: w.Sessions,
		CacheBytes:  cmdcache.DefaultCapacity,
	})
	if err != nil {
		return err
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := pc.LocalAddr().String()
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = fl.ServeConn(pc) // returns ErrServerClosed after close()
	}()
	r.fleet = fl
	r.close = func() {
		for _, p := range r.players {
			_ = p.Close()
		}
		_ = fl.Close()
		<-served
	}
	for i := 0; i < w.Sessions; i++ {
		p, err := gbooster.NewPlayer(gbooster.PlayerConfig{
			Workload: w.Games[i%len(w.Games)],
			Width:    w.Width, Height: w.Height,
			Seed: r.seed + uint64(i),
		}, gbooster.WithParallelism(1))
		if err != nil {
			return err
		}
		r.players = append(r.players, p)
		if err := p.Connect(addr); err != nil {
			return err
		}
	}
	return nil
}

// drivers is the number of closed-loop generator goroutines: one per
// CPU, never more than there are sessions.
func (r *rig) drivers() int {
	n := runtime.GOMAXPROCS(0)
	if n > len(r.players) {
		n = len(r.players)
	}
	return n
}

// frameObserver sees every displayed frame of a phase. It is called on
// the driver goroutine that stepped the frame, outside the timed span;
// calls for one session never overlap.
type frameObserver func(session, frame int, start, end time.Time, img *image.RGBA)

// phase is what one stepping phase did.
type phase struct {
	latencyMS []float64 // one sample per displayed frame
	displayed int64
	failed    int64 // errored frames plus the planned frames abandoned with their session
	rounds    int   // fewest frames any surviving session displayed (-1: none survived)
	wall      time.Duration
	errs      []string
}

// step runs the closed loop. Sessions are taken round-robin from one
// shared sequence by drivers() goroutines, each of which steps the
// session it took to display before taking the next, so at most
// drivers() frames are in flight and every driver stays busy whatever
// the mix of light and heavy sessions. (Giving driver d the sessions
// d, d+D, ... would, with two CPUs and four catalog IDs, hand one driver
// every game and the other every app.) It stops after rounds rounds of
// all sessions when rounds > 0, else at the deadline. firstFrame is the
// frame index every session is at when the phase starts.
func (r *rig) step(firstFrame, rounds int, deadline time.Time, obs frameObserver) phase {
	n := len(r.players)
	type session struct {
		mu   sync.Mutex // one frame in flight per session
		done int
		dead bool
	}
	sessions := make([]session, n)
	var next, alive atomic.Int64
	alive.Store(int64(n))
	parts := make([]phase, r.drivers())
	var wg sync.WaitGroup
	begin := time.Now()
	for d := range parts {
		wg.Add(1)
		go func(ph *phase) {
			defer wg.Done()
			for alive.Load() > 0 {
				k := int(next.Add(1)) - 1
				if rounds > 0 && k >= rounds*n || rounds == 0 && !time.Now().Before(deadline) {
					return
				}
				s := k % n
				ss := &sessions[s]
				ss.mu.Lock()
				if ss.dead {
					if rounds > 0 {
						ph.failed++ // a planned frame of an abandoned session
					}
					ss.mu.Unlock()
					continue
				}
				frame := firstFrame + ss.done
				start := time.Now()
				img, err := r.players[s].StepFrame(stepTimeout)
				end := time.Now()
				if err != nil {
					ss.dead = true
					alive.Add(-1)
					ph.failed++
					ph.errs = append(ph.errs, fmt.Sprintf("session %d frame %d: %v", s, frame, err))
				} else {
					ss.done++
					ph.displayed++
					ph.latencyMS = append(ph.latencyMS, float64(end.Sub(start))/1e6)
					if obs != nil {
						obs(s, frame, start, end, img)
					}
				}
				ss.mu.Unlock()
			}
		}(&parts[d])
	}
	wg.Wait()
	total := phase{wall: time.Since(begin), rounds: -1}
	for _, ph := range parts {
		total.latencyMS = append(total.latencyMS, ph.latencyMS...)
		total.displayed += ph.displayed
		total.failed += ph.failed
		total.errs = append(total.errs, ph.errs...)
	}
	for i := range sessions {
		if ss := &sessions[i]; !ss.dead && (total.rounds < 0 || ss.done < total.rounds) {
			total.rounds = ss.done
		}
	}
	return total
}

// setUp builds a rig and displays every session's first frame (texture
// upload plus keyframe), which is where set-up ends.
func setUp(w workload, seed uint64) (*rig, time.Duration, error) {
	begin := time.Now()
	r, err := buildRig(w, seed)
	if err != nil {
		return nil, 0, err
	}
	ph := r.step(0, 1, time.Time{}, nil)
	if ph.failed > 0 {
		r.close()
		return nil, 0, fmt.Errorf("%s: set-up frame failed: %s", w.Name, ph.errs[0])
	}
	return r, time.Since(begin), nil
}
