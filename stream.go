package gbooster

import (
	"errors"
	"fmt"
	"image"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gbooster/gbooster/internal/core"
	"github.com/gbooster/gbooster/internal/hook"
	"github.com/gbooster/gbooster/internal/metrics"
	"github.com/gbooster/gbooster/internal/predict"
	"github.com/gbooster/gbooster/internal/rudp"
	"github.com/gbooster/gbooster/internal/workload"
)

// options collects the data-plane tunables shared by StreamServer and
// Player. Zero values mean "library default" throughout.
type options struct {
	quality         int
	parallelism     int
	adaptiveQuality bool
	qualityFloor    int
	predictive      bool
}

// Option tunes a StreamServer or Player beyond its config struct.
type Option func(*options)

// WithQuality sets the turbo codec quality: values above 100 clamp to
// 100, and q <= 0 keeps the library default (matching the rest of the
// options API, where zero means "default" — gbooster-server relies on
// it). With adaptive quality enabled this is the ladder's ceiling —
// the quality the server returns to on an uncongested link. The player
// needs no matching setting: each turbo packet carries its encode
// quality.
func WithQuality(q int) Option {
	return func(o *options) {
		if q <= 0 {
			q = 0 // library default
		}
		if q > 100 {
			q = 100
		}
		o.quality = q
	}
}

// WithAdaptiveQuality enables the server's congestion-aware quality
// ladder: encode quality steps down toward floor (clamped to 1..the
// configured quality; <= 0 selects the default floor) when the
// session's transport shows retransmits, receive-queue pushback, a
// half-full send window, or RTT inflation, and recovers gradually once
// the link runs clean. Server-side only; players ignore it.
func WithAdaptiveQuality(floor int) Option {
	return func(o *options) {
		o.adaptiveQuality = true
		if floor > 100 {
			floor = 100
		}
		o.qualityFloor = floor
	}
}

// WithParallelism sets the data-plane worker degree — rasterization
// bands and codec tiles on the server, codec tiles on the player.
// n <= 0 selects one worker per CPU, 1 forces the serial reference
// path. Output is byte-identical at every degree; only latency changes.
func WithParallelism(n int) Option {
	return func(o *options) {
		if n <= 0 {
			n = 0 // one worker per CPU
		}
		o.parallelism = n
	}
}

// WithPredictiveControl enables the player's predictive control plane:
// an online ARMAX model fed each frame's exogenous signals (touch
// events, texture count) and the session's observed traffic forecasts
// demand 500 ms ahead, pre-wakes the modeled WiFi radio before bursts,
// biases the dispatcher's Eq. 4 cost with predicted load so device
// selection anticipates rather than reacts, and closes the loop with
// per-session energy and thermal accounting surfaced through
// Snapshot().Predict. Player-side only; servers ignore it.
func WithPredictiveControl() Option {
	return func(o *options) { o.predictive = true }
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// StreamServerConfig identifies what a StreamServer renders.
type StreamServerConfig struct {
	// Width, Height is the streaming resolution (must match the
	// player's).
	Width, Height int
}

// StreamServer is a service-device daemon: it accepts one GBooster
// client over (reliable) UDP, replays the intercepted command stream on
// a software GPU, and streams turbo-encoded frames back.
type StreamServer struct {
	srv *core.Server

	// acceptTimeout bounds ServeUDP's total wait for the first client
	// datagram — total, not per-datagram: stray traffic rejected by the
	// protocol check must not keep pushing the deadline out forever.
	acceptTimeout time.Duration

	mu     sync.Mutex
	pc     net.PacketConn // ServeUDP's listener while awaiting a client
	conn   *rudp.Conn
	closed bool
}

// defaultAcceptTimeout is how long ServeUDP waits in total for the
// first protocol datagram before giving up.
const defaultAcceptTimeout = 5 * time.Minute

// NewStreamServer builds a server rendering at cfg's resolution,
// tuned by opts (quality, parallelism, adaptive quality).
func NewStreamServer(cfg StreamServerConfig, opts ...Option) (*StreamServer, error) {
	o := buildOptions(opts)
	srv, err := core.NewServer(core.ServerConfig{
		Width:           cfg.Width,
		Height:          cfg.Height,
		Quality:         o.quality,
		Parallelism:     o.parallelism,
		AdaptiveQuality: o.adaptiveQuality,
		QualityFloor:    o.qualityFloor,
	})
	if err != nil {
		return nil, fmt.Errorf("gbooster: %w", err)
	}
	return &StreamServer{srv: srv}, nil
}

// ServeConn serves one client over pc, treating peer as the client's
// address. It blocks until the connection closes.
func (s *StreamServer) ServeConn(pc net.PacketConn, peer net.Addr) error {
	return s.serveConn(pc, peer, nil)
}

// ErrServerClosed is returned when a session is offered to a
// StreamServer that has already been shut down.
var ErrServerClosed = errors.New("gbooster: stream server closed")

// serveConn runs the session; firstDatagram, if non-nil, is a datagram
// the accept path already read off the socket and is injected into the
// reliable layer so it isn't lost.
func (s *StreamServer) serveConn(pc net.PacketConn, peer net.Addr, firstDatagram []byte) error {
	s.mu.Lock()
	if s.closed {
		// A session racing Close must not start and overwrite s.conn —
		// it would resurrect a server the owner already tore down.
		s.mu.Unlock()
		return ErrServerClosed
	}
	conn := rudp.New(pc, peer, rudp.DefaultOptions())
	s.conn = conn
	s.mu.Unlock()
	if firstDatagram != nil {
		conn.Inject(firstDatagram)
	}
	err := s.srv.Serve(conn)
	_ = conn.Close()
	return err
}

// ServeUDP listens on addr ("host:port"), waits for the first client
// datagram to learn the peer, then serves it. It blocks for the life of
// the session. Close unblocks it even if no client ever connects.
func (s *StreamServer) ServeUDP(addr string) error {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return fmt.Errorf("gbooster: listen: %w", err)
	}
	// Register the listener before blocking on it so Close can reach
	// it: a server shut down while still waiting for its first client
	// must release the socket, not leak it until the deadline.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = pc.Close()
		return ErrServerClosed
	}
	s.pc = pc
	s.mu.Unlock()
	// Peek for the first *protocol* datagram to learn the client
	// address, then hand both the socket and the datagram to the
	// reliable layer — dropping it would open every session with a
	// guaranteed retransmit and a duplicate delivery. A datagram that
	// doesn't carry the GBooster magic must NOT adopt the sender as the
	// session peer: a UDP port scan or any stray packet arriving before
	// the real client would otherwise bind the session to the wrong
	// address and strand the client. Rejected datagrams are dropped and
	// the wait continues against one absolute deadline, so junk traffic
	// cannot extend the accept window indefinitely.
	timeout := s.acceptTimeout
	if timeout <= 0 {
		timeout = defaultAcceptTimeout
	}
	acceptBy := time.Now().Add(timeout)
	buf := make([]byte, 65536)
	for {
		if err := pc.SetReadDeadline(acceptBy); err != nil {
			return fmt.Errorf("gbooster: deadline: %w", err)
		}
		n, peer, err := pc.ReadFrom(buf)
		if err == nil && !rudp.IsProtocolDatagram(buf[:n]) {
			continue // not a client; keep waiting out the same deadline
		}
		s.mu.Lock()
		s.pc = nil // serveConn's reliable layer owns the socket from here
		closed := s.closed
		s.mu.Unlock()
		if err != nil {
			_ = pc.Close()
			if closed {
				return ErrServerClosed
			}
			return fmt.Errorf("gbooster: first packet: %w", err)
		}
		_ = pc.SetReadDeadline(time.Time{})
		return s.serveConn(pc, peer, buf[:n])
	}
}

// TransportStats returns the server-side transport health snapshot of
// the current session. ok is false before a client has connected.
func (s *StreamServer) TransportStats() (stats rudp.Stats, ok bool) {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	if conn == nil {
		return rudp.Stats{}, false
	}
	return conn.Stats(), true
}

// Close tears the server down: the active session's connection if one
// exists, and any ServeUDP listener still waiting for its first client
// (which would otherwise stay open until its accept deadline).
func (s *StreamServer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var err error
	if s.pc != nil {
		err = s.pc.Close()
		s.pc = nil
	}
	if s.conn != nil {
		if cerr := s.conn.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Player drives a catalog workload through the full GBooster client
// path — linker hooks, wrapper library, wire serialization, caching,
// compression, reliable UDP — against one or more StreamServers, and
// hands back the displayed frames.
type Player struct {
	w, h   int
	game   *workload.Game
	client *core.Client
	linker *hook.Linker
	calls  map[string]hook.GLFunc

	// predict is the session's predictive controller when
	// WithPredictiveControl is enabled (nil otherwise). predictStop ends
	// its wall-clock tick goroutine; predictDone confirms exit so Close
	// never races a final Tick against Finish.
	predict     *predict.Controller
	predictStop chan struct{}
	predictDone chan struct{}
	stopPredict sync.Once

	// start anchors Snapshot's Elapsed field.
	start time.Time

	// Caller-visible frame span (StepFrame issue to display — the
	// paper's Eq. 5 response time), accumulated by StepFrame itself so
	// every harness gets latency through Snapshot without timing frames
	// by hand. Atomics: StepFrame and Snapshot may race.
	latTotalNS int64
	latMaxNS   int64
	latCount   int64
}

// PlayerConfig identifies what a Player runs and displays.
type PlayerConfig struct {
	// Workload is the catalog workload ID (e.g. "G5").
	Workload string
	// Width, Height is the streaming resolution (must match the
	// servers').
	Width, Height int
	// Seed parameterizes the workload's deterministic frame stream.
	Seed uint64
}

// NewPlayer builds a player for a catalog workload, tuned by opts
// (quality, parallelism, pipeline depth). The GL call path is resolved
// through a simulated dynamic linker with the GBooster wrapper
// preloaded, exactly as §IV-A installs it on Android.
func NewPlayer(cfg PlayerConfig, opts ...Option) (*Player, error) {
	prof, err := workload.ByID(cfg.Workload)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorkload, cfg.Workload)
	}
	o := buildOptions(opts)
	game := workload.NewGame(prof, cfg.Seed)
	client, err := core.NewClient(core.ClientConfig{
		Width:       cfg.Width,
		Height:      cfg.Height,
		Quality:     o.quality,
		Arrays:      game.Arrays(),
		Parallelism: o.parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("gbooster: %w", err)
	}
	ln := hook.NewLinker()
	if err := client.Install(ln, "libgbooster.so"); err != nil {
		return nil, fmt.Errorf("gbooster: install hooks: %w", err)
	}
	p := &Player{
		w: cfg.Width, h: cfg.Height,
		game:   game,
		client: client,
		linker: ln,
		calls:  make(map[string]hook.GLFunc),
		start:  time.Now(),
	}
	if o.predictive {
		ctl, err := predict.New(predict.Config{Traffic: client.TrafficBytes})
		if err != nil {
			return nil, fmt.Errorf("gbooster: predictive control: %w", err)
		}
		p.predict = ctl
		client.SetLoadForecast(ctl.LoadForecast)
		p.predictStop = make(chan struct{})
		p.predictDone = make(chan struct{})
		// The controller advances on real wall-clock windows: each tick
		// differences the client's wire traffic into a demand sample,
		// drains the frame accumulators into the load model, and runs the
		// radio pre-wake decision.
		go func() {
			defer close(p.predictDone)
			t := time.NewTicker(ctl.Window())
			defer t.Stop()
			for {
				select {
				case <-p.predictStop:
					return
				case <-t.C:
					ctl.Tick()
				}
			}
		}()
	}
	return p, nil
}

// Connect attaches a service device at a UDP address.
func (p *Player) Connect(addr string) error {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("gbooster: resolve %q: %w", addr, err)
	}
	pc, err := net.ListenPacket("udp", ":0")
	if err != nil {
		return fmt.Errorf("gbooster: local socket: %w", err)
	}
	conn := rudp.New(pc, raddr, rudp.DefaultOptions())
	return p.client.AddService(addr, conn, 1000, 2*time.Millisecond)
}

// ConnectConn attaches a service device over an existing packet conn
// (for in-memory links in tests and examples).
func (p *Player) ConnectConn(name string, pc net.PacketConn, peer net.Addr, capability float64) error {
	conn := rudp.New(pc, peer, rudp.DefaultOptions())
	return p.client.AddService(name, conn, capability, 2*time.Millisecond)
}

// StepFrame generates the next game frame, pushes it through the hooked
// GL path, and returns the next displayed frame as an image. The
// issue-to-display span of each successful frame is accumulated into
// the snapshot's frame-latency counters.
func (p *Player) StepFrame(timeout time.Duration) (*image.RGBA, error) {
	begin := time.Now()
	frame := p.game.NextFrame()
	if p.predict != nil {
		p.predict.ObserveFrame(frame.Features)
	}
	for _, cmd := range frame.Commands {
		name := cmd.Op.String()
		fn, ok := p.calls[name]
		if !ok {
			resolved, err := hook.ResolveGL(p.linker, hook.LinkDirect, name)
			if err != nil {
				return nil, fmt.Errorf("gbooster: resolve %s: %w", name, err)
			}
			fn = resolved
			p.calls[name] = fn
		}
		fn(cmd)
	}
	if err := p.client.Err(); err != nil {
		return nil, err
	}
	displayed, err := p.client.NextFrame(timeout)
	if err != nil {
		return nil, fmt.Errorf("gbooster: next frame: %w", err)
	}
	if err := validateFrameSize(len(displayed.Pixels), p.w, p.h); err != nil {
		return nil, fmt.Errorf("gbooster: frame %d: %w", displayed.Seq, err)
	}
	// displayed.Pixels is already this frame's own copy out of the turbo
	// decoder (core.Client.decodeOne) and has no other reader, so the
	// image wraps it instead of copying it again.
	img := &image.RGBA{Pix: displayed.Pixels, Stride: 4 * p.w, Rect: image.Rect(0, 0, p.w, p.h)}
	p.recordFrameLatency(time.Since(begin))
	return img, nil
}

// recordFrameLatency folds one frame span into the Eq. 5 counters.
func (p *Player) recordFrameLatency(d time.Duration) {
	if d < 0 {
		return
	}
	atomic.AddInt64(&p.latTotalNS, int64(d))
	atomic.AddInt64(&p.latCount, 1)
	for {
		max := atomic.LoadInt64(&p.latMaxNS)
		if int64(d) <= max || atomic.CompareAndSwapInt64(&p.latMaxNS, max, int64(d)) {
			return
		}
	}
}

// ErrBadFrame is returned when a displayed frame's pixel buffer does
// not match the player's resolution.
var ErrBadFrame = errors.New("gbooster: malformed frame")

// validateFrameSize checks a pixel buffer against the w*h*4 RGBA size
// the display expects: a short or oversized frame would otherwise
// silently render garbage.
func validateFrameSize(n, w, h int) error {
	if want := w * h * 4; n != want {
		return fmt.Errorf("%w: %d pixel bytes, want %d (%dx%d RGBA)", ErrBadFrame, n, want, w, h)
	}
	return nil
}

// The session stat types live in internal/metrics — the collectors'
// home package — and are aliased here so the public names are the same
// types metrics.Collector consumes. Documentation is on the metrics
// definitions.
type (
	// PlayerStats summarizes a session's streaming counters.
	PlayerStats = metrics.PlayerStats
	// TransportHealth is one service connection's loss-recovery
	// snapshot.
	TransportHealth = metrics.TransportHealth
	// FailoverStats summarizes the client's §VI-C fault tolerance over
	// the session.
	FailoverStats = metrics.FailoverStats
	// DeviceState is one attached service device's dispatch view.
	DeviceState = metrics.DeviceState
	// HandoffStats summarizes the session's elastic-device activity.
	HandoffStats = metrics.HandoffStats
	// PlayerSnapshot is one consistent observation of a whole session:
	// every stat block read together. Feed it to metrics collectors via
	// a metrics.Registry.
	PlayerSnapshot = metrics.PlayerSnapshot
	// FleetSnapshot is one consistent observation of a Fleet.
	FleetSnapshot = metrics.FleetSnapshot
	// PredictStats is the predictive control plane's session block
	// (forecast quality, radio activity, energy and thermal accounting).
	PredictStats = metrics.PredictStats
)

// Snapshot returns one consistent observation of the session: the
// streaming, failover, and handoff counter blocks from a single
// underlying stats read, the per-device and per-transport views taken
// back-to-back with it, the session age, and the frame-latency
// accumulators StepFrame maintains. It is the input every metrics
// collector consumes.
func (p *Player) Snapshot() PlayerSnapshot {
	st := p.client.Stats()
	s := PlayerSnapshot{
		Elapsed: time.Since(p.start),
		PlayerStats: PlayerStats{
			FramesSent:       st.FramesSent,
			FramesShown:      st.FramesDisplayed,
			RawBytes:         st.RawBytes,
			WireBytes:        st.WireBytes,
			PreCompressBytes: st.PreCompressBytes,
			CacheHits:        st.CacheHits,
			CacheMisses:      st.CacheMisses,
			DownlinkBytes:    st.DownlinkBytes,
			QualityNow:       st.QualityNow,
			QualityMin:       st.QualityMin,
			QualityChanges:   st.QualityChanges,
		},
		FailoverStats: FailoverStats{
			ReDispatched:   st.ReDispatched,
			FramesSkipped:  st.FramesSkipped,
			LateFrames:     st.LateFrames,
			Evictions:      st.Evictions,
			Readmissions:   st.Readmissions,
			RecvBadMsgs:    st.RecvBadMsgs,
			RecvUnexpected: st.RecvUnexpected,
		},
		HandoffStats: HandoffStats{
			BootstrapsSent: st.BootstrapsSent,
			BootstrapBytes: st.BootstrapBytes,
			Completed:      st.HandoffsCompleted,
			Failed:         st.HandoffsFailed,
		},
		FrameLatencyTotal: time.Duration(atomic.LoadInt64(&p.latTotalNS)),
		FrameLatencyMax:   time.Duration(atomic.LoadInt64(&p.latMaxNS)),
		FrameLatencyCount: atomic.LoadInt64(&p.latCount),
	}
	if s.Completed > 0 {
		s.HandoffStats.MeanLatency = st.HandoffLatencyTotal / time.Duration(s.Completed)
	}
	for _, ds := range p.client.DeviceStates() {
		s.Devices = append(s.Devices, DeviceState{Service: ds.Service, Health: ds.Health.String(), Queued: ds.Queued})
	}
	for _, th := range p.client.TransportStats() {
		s.Transports = append(s.Transports, TransportHealth{
			Service:         th.Service,
			SRTT:            th.SRTT,
			RTTVar:          th.RTTVar,
			RTO:             th.RTO,
			ResendRate:      th.ResendRate(),
			WindowOccupancy: th.WindowOccupancy,
			WindowLimit:     th.WindowLimit,
			DataSent:        th.DataSent,
			DataResent:      th.DataResent,
			FastResent:      th.FastResent,
			TimeoutResent:   th.TimeoutResent,
		})
	}
	if p.predict != nil {
		snap := p.predict.Snapshot()
		s.Predict = &snap
	}
	return s
}

// Drain administratively removes a connected service device from the
// rotation: its in-flight frames migrate to the remaining replicas and
// it receives no further traffic. The device stays attached; if it
// remains reachable it is later readmitted automatically via a session
// bootstrap handoff.
func (p *Player) Drain(service string) error {
	return p.client.DrainService(service)
}

// Close shuts the player down. With predictive control enabled it
// stops the control tick, settles the radio energy accounts, and
// leaves the final prediction/energy block readable via Snapshot.
func (p *Player) Close() error {
	if p.predict != nil {
		p.stopPredict.Do(func() {
			close(p.predictStop)
			<-p.predictDone
			p.predict.Finish()
		})
	}
	return p.client.Close()
}
