// Package fleet is the multi-tenant session runtime: one process, one
// UDP listener, thousands of concurrent GBooster sessions. Where the
// single-session path (gbooster.StreamServer) binds one socket and
// three goroutines to one client, the fleet Manager demultiplexes a
// shared listener by peer address onto per-session rudp state driven by
// injection (rudp.NewDemuxed / Conn.Inject): one demux pump reads the
// listener for every session, and every session writes its replies and
// ACKs straight back to it. Every session's retransmission timer runs
// on one hashed timer wheel, and every session's renders go through one
// GPU gate of GOMAXPROCS slots (dispatch.Gate) so the shared backend
// batches work instead of thrashing. Admission control caps the session
// population: a datagram from an unknown peer beyond MaxSessions is
// dropped and counted rather than allocating toward OOM.
//
// A Manager runs two goroutines of its own (the demux pump and the
// wheel). Per session the steady-state footprint is one more goroutine
// (the serve loop), one wheel slot while data is in flight, and the
// session's own render/cache state bounded by Config.CacheBytes.
package fleet

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gbooster/gbooster/internal/core"
	"github.com/gbooster/gbooster/internal/dispatch"
	"github.com/gbooster/gbooster/internal/rudp"
)

// Errors.
var (
	// ErrOverCapacity reports an admission refused because the manager
	// is already serving MaxSessions sessions. The refused peer's
	// datagrams are dropped (and counted in Stats.Rejected); a client
	// retrying after other sessions drain is admitted normally.
	ErrOverCapacity = errors.New("fleet: over capacity")
	// ErrClosed reports an operation on a closed manager.
	ErrClosed = errors.New("fleet: manager closed")
)

// Defaults.
const (
	// DefaultMaxSessions bounds the session population when Config
	// leaves MaxSessions zero.
	DefaultMaxSessions = 1024
	// DefaultIdleTimeout reaps a session with no inbound traffic.
	DefaultIdleTimeout = 2 * time.Minute
)

// numShards spreads the peer->session table so the demux loop's
// lookups don't serialize against session teardown. Power of two.
const numShards = 32

// Config parameterizes a Manager.
type Config struct {
	// Width, Height is the streaming resolution every session renders
	// at (must match the clients').
	Width, Height int
	// Quality is the turbo codec quality (0 = library default).
	Quality int
	// Parallelism is the per-session render worker degree. The fleet
	// default is 1 (serial per session): with many sessions the
	// parallelism worth having is across sessions, which the GPU gate
	// provides, and per-session worker fan-out would multiply into
	// sessions x workers threads.
	Parallelism int
	// AdaptiveQuality enables each session's congestion-aware quality
	// ladder (Quality becomes the ceiling); QualityFloor is the
	// ladder's lower bound (0 = core.DefaultQualityFloor).
	AdaptiveQuality bool
	QualityFloor    int
	// CacheBytes bounds each session's mirrored command cache and must
	// equal the client's cache bound, or the mirrors diverge on the
	// first eviction (0 = cmdcache.DefaultCapacity, what a default
	// client uses). A ceiling, not a reservation: the cache allocates
	// as records arrive.
	CacheBytes int
	// MaxSessions is the admission cap (0 = DefaultMaxSessions).
	MaxSessions int
	// IdleTimeout reaps sessions with no inbound traffic
	// (0 = DefaultIdleTimeout).
	IdleTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.Parallelism == 0 {
		c.Parallelism = 1
	}
	return c
}

// Stats is a point-in-time fleet snapshot. Admitted/Rejected/
// NonProtocol/Frames are cumulative; Sessions and TimersArmed are
// instantaneous.
type Stats struct {
	// Sessions is the live session count; PeakSessions the high-water
	// mark since the manager started.
	Sessions, PeakSessions int64
	// Admitted counts sessions ever admitted; Rejected datagrams
	// dropped because admission was over capacity; NonProtocol
	// datagrams dropped for not carrying the protocol magic.
	Admitted, Rejected, NonProtocol int64
	// Frames counts rendering requests served across all sessions.
	Frames int64
	// TimersArmed is how many sessions currently occupy a slot on the
	// shared retransmission wheel (in-flight data only).
	TimersArmed int
	// Gate is the shared GPU gate's occupancy and contention.
	Gate dispatch.GateStats
}

// session is one admitted client: its demuxed transport state and its
// private render/cache/codec state. srv is nil until the peer's first
// complete framed message (lazy allocation — see admit) and is touched
// only by the session's own runSession goroutine.
type session struct {
	key  string
	conn *rudp.Conn
	srv  *core.Server
}

// newSessionServer builds one session's render/codec/cache state.
func (m *Manager) newSessionServer() (*core.Server, error) {
	return core.NewServer(core.ServerConfig{
		Width:           m.cfg.Width,
		Height:          m.cfg.Height,
		Quality:         m.cfg.Quality,
		CacheBytes:      m.cfg.CacheBytes,
		Parallelism:     m.cfg.Parallelism,
		AdaptiveQuality: m.cfg.AdaptiveQuality,
		QualityFloor:    m.cfg.QualityFloor,
	})
}

type shard struct {
	mu sync.RWMutex
	m  map[string]*session
}

// Manager serves a fleet of sessions on one shared PacketConn.
type Manager struct {
	cfg   Config
	pc    net.PacketConn
	wheel *rudp.Wheel
	gate  *dispatch.Gate

	shards [numShards]shard

	count    atomic.Int64
	peak     atomic.Int64
	admitted atomic.Int64
	rejected atomic.Int64
	nonProto atomic.Int64
	frames   atomic.Int64

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New starts a manager demultiplexing pc. The manager owns pc and
// closes it on Close; pc must carry no read deadline, because the demux
// pump blocks in ReadFrom until Close.
func New(pc net.PacketConn, cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("fleet: resolution %dx%d", cfg.Width, cfg.Height)
	}
	m := &Manager{
		cfg:   cfg,
		pc:    pc,
		wheel: rudp.NewWheel(2 * cfg.MaxSessions),
		gate:  dispatch.NewGate(runtime.GOMAXPROCS(0)),
		done:  make(chan struct{}),
	}
	for i := range m.shards {
		m.shards[i].m = make(map[string]*session)
	}
	m.wg.Add(1)
	go m.demuxLoop()
	return m, nil
}

// Sessions returns the live session count.
func (m *Manager) Sessions() int { return int(m.count.Load()) }

// Stats returns a fleet snapshot.
func (m *Manager) Stats() Stats {
	return Stats{
		Sessions:     m.count.Load(),
		PeakSessions: m.peak.Load(),
		Admitted:     m.admitted.Load(),
		Rejected:     m.rejected.Load(),
		NonProtocol:  m.nonProto.Load(),
		Frames:       m.frames.Load(),
		TimersArmed:  m.wheel.Len(),
		Gate:         m.gate.Stats(),
	}
}

// Wait blocks until the manager shuts down (Close, or the listener
// dying under it) and every session has drained.
func (m *Manager) Wait() {
	<-m.done
	m.wg.Wait()
}

// Close shuts the fleet down: the listener, every session, the wheel.
// It blocks until all session goroutines exit and is idempotent.
func (m *Manager) Close() error {
	m.signalClose()
	m.wg.Wait()
	m.wheel.Close()
	return nil
}

// signalClose makes every blocking path in the manager return: the
// demux loop (listener closed), each session loop (its conn closed),
// and gate waiters (done closed). Unlike Close it does not wait, so
// the demux loop itself may call it on a fatal socket error.
func (m *Manager) signalClose() {
	m.closeOnce.Do(func() {
		close(m.done)
		_ = m.pc.Close()
		for i := range m.shards {
			sh := &m.shards[i]
			sh.mu.Lock()
			for _, s := range sh.m {
				_ = s.conn.Close()
			}
			sh.mu.Unlock()
		}
	})
}

// fnv1a hashes a peer key onto a shard.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (m *Manager) shardFor(key string) *shard {
	return &m.shards[fnv1a(key)&(numShards-1)]
}

func (m *Manager) lookup(key string) *session {
	sh := m.shardFor(key)
	sh.mu.RLock()
	s := sh.m[key]
	sh.mu.RUnlock()
	return s
}

// demuxLoop is the fleet's single inbound pump: it reads the shared
// listener and routes each datagram to its session by source address —
// the validation the single-session readLoop does per connection
// happens here structurally, because routing *is* source matching. A
// datagram from an unknown peer is an admission request; one without
// the protocol magic is dropped before it can allocate anything.
//
// This goroutine must never block on a session: Conn.Inject refuses
// (rather than queues or waits on) data its Recv queue can't absorb,
// so a session whose consumer is stalled — even one wedged in Send
// waiting for window space only our ACK delivery can free — slows
// only itself while the pump keeps serving the other sessions.
func (m *Manager) demuxLoop() {
	defer m.wg.Done()
	buf := make([]byte, 65536)
	for {
		// One datagram per read, blocking until one arrives or Close
		// closes the listener under us.
		n, from, err := m.pc.ReadFrom(buf)
		if err != nil {
			// Listener gone: tear the fleet down rather than spin.
			m.signalClose()
			return
		}
		m.route(buf[:n], from)
	}
}

// route delivers one inbound datagram: drop non-protocol traffic,
// admit unknown peers, inject into the session's demuxed conn. Inject
// never blocks (it refuses what the session's Recv queue can't hold);
// the only place the pump can wait is its own ACK's WriteTo while the
// socket send buffer is full.
func (m *Manager) route(pkt []byte, from net.Addr) {
	if from == nil || !rudp.IsProtocolDatagram(pkt) {
		m.nonProto.Add(1)
		return
	}
	key := from.String()
	s := m.lookup(key)
	if s == nil {
		var err error
		s, err = m.admit(from, key)
		if err != nil {
			return // counted inside admit
		}
	}
	s.conn.Inject(pkt)
}

// admit creates and registers a session for a new peer, enforcing the
// MaxSessions cap. The session's serve goroutine starts here. Only
// transport state is allocated at admission: the heavy render/codec/
// cache server is built lazily in runSession once the peer completes a
// full framed message, so a single spoofed-source datagram costs the
// fleet a Conn, not a core.Server (see DESIGN.md §13 on the residual
// capacity exposure).
func (m *Manager) admit(peer net.Addr, key string) (*session, error) {
	if m.count.Load() >= int64(m.cfg.MaxSessions) {
		m.rejected.Add(1)
		return nil, ErrOverCapacity
	}
	s := &session{
		key: key,
		// Replies, the pump's ACKs and the wheel's retransmits all
		// write straight to the shared listener.
		conn: rudp.NewDemuxed(m.pc, peer, rudp.DefaultOptions(), m.wheel),
	}
	sh := m.shardFor(key)
	sh.mu.Lock()
	select {
	case <-m.done:
		// A concurrent Close may already have swept this shard;
		// registering now would leave a session signalClose never
		// closes, parking its goroutine in Recv until IdleTimeout and
		// stalling Close/Wait that whole time. The shard lock orders
		// this check against the sweep: either the sweep sees our entry,
		// or we see done closed.
		sh.mu.Unlock()
		_ = s.conn.Close()
		return nil, ErrClosed
	default:
	}
	sh.m[key] = s
	sh.mu.Unlock()
	n := m.count.Add(1)
	for {
		p := m.peak.Load()
		if n <= p || m.peak.CompareAndSwap(p, n) {
			break
		}
	}
	m.admitted.Add(1)
	// The demux goroutine is itself in wg, so the counter can't hit
	// zero between this Add and a concurrent Close's Wait.
	m.wg.Add(1)
	go m.runSession(s)
	return s, nil
}

// runSession is a session's whole life: receive, render under the GPU
// gate, reply; reap on idle, close, or protocol violation. One
// goroutine — the transport work (retransmit timers, inbound datagrams)
// lives on the shared wheel and demux loop.
func (m *Manager) runSession(s *session) {
	defer m.wg.Done()
	defer m.drop(s)
	for {
		msg, err := s.conn.Recv(m.cfg.IdleTimeout)
		if err != nil {
			return // closed, or idle past the reap deadline
		}
		if s.srv == nil {
			// First complete framed message: the peer has proven it
			// speaks the protocol end to end, so now pay for the render/
			// codec/cache state. Admission alone (one datagram bearing
			// the magic, source trivially spoofable) buys only the
			// session's transport state.
			srv, err := m.newSessionServer()
			if err != nil {
				return
			}
			s.srv = srv
		}
		if !m.gate.Enter(m.done, 0) {
			return // manager shutting down while queued for the GPU
		}
		reply, err := s.srv.Handle(msg)
		m.gate.Leave()
		if err != nil {
			return // protocol violation: drop the session, not the fleet
		}
		// Sample the transport for the adaptive-quality ladder (no-op
		// unless configured). The single-session serve loops do this
		// internally; this loop drives the server through Handle, so the
		// sampling hook is explicit here.
		s.srv.AdaptQuality(s.conn)
		m.frames.Add(1)
		if reply != nil {
			if err := s.conn.Send(reply); err != nil {
				return
			}
		}
		core.ReleaseMsg(s.conn, msg)
	}
}

// drop deregisters and closes a session. The shard entry is removed
// only if it still names this session, so a peer readmitted after an
// idle reap can't be torn down by its predecessor's goroutine.
func (m *Manager) drop(s *session) {
	sh := m.shardFor(s.key)
	sh.mu.Lock()
	if sh.m[s.key] == s {
		delete(sh.m, s.key)
	}
	sh.mu.Unlock()
	_ = s.conn.Close()
	m.count.Add(-1)
}
