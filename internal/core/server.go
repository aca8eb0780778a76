package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"github.com/gbooster/gbooster/internal/cmdcache"
	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/glwire"
	"github.com/gbooster/gbooster/internal/lz4"
	"github.com/gbooster/gbooster/internal/rudp"
	"github.com/gbooster/gbooster/internal/session"
	"github.com/gbooster/gbooster/internal/turbo"
)

// ServerConfig parameterizes a service-device endpoint.
type ServerConfig struct {
	// Width, Height is the streaming resolution (must match the
	// client).
	Width, Height int
	// Quality is the turbo codec quality (default turbo.DefaultQuality).
	Quality int
	// CacheBytes bounds the mirrored command cache (default
	// cmdcache.DefaultCapacity).
	CacheBytes int
	// Parallelism is the data-plane worker degree of a frame's fused
	// raster and encode (one band of tile rows per span): 0 selects one
	// worker per CPU, 1 the serial reference path. Output is
	// byte-identical at every degree.
	Parallelism int
	// AdaptiveQuality enables the congestion-aware quality ladder:
	// Quality becomes the ceiling, and the server steps encode quality
	// down toward QualityFloor when the connection's rudp stats show
	// retransmits, receive-queue pushback, a half-full send window, or
	// RTT inflation — recovering gradually once the link runs clean.
	AdaptiveQuality bool
	// QualityFloor is the lowest quality the ladder will select
	// (default DefaultQualityFloor, clamped to at most Quality).
	QualityFloor int
}

// DefaultQualityFloor is the quality ladder's lower bound when
// ServerConfig.QualityFloor is zero.
const DefaultQualityFloor = 20

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Quality <= 0 {
		c.Quality = turbo.DefaultQuality
	}
	if c.QualityFloor <= 0 {
		c.QualityFloor = DefaultQualityFloor
	}
	if c.QualityFloor > c.Quality {
		c.QualityFloor = c.Quality
	}
	return c
}

// ServerStats counts server work.
type ServerStats struct {
	FramesRendered  int64
	StateUpdates    int64
	BytesIn         int64
	BytesOut        int64
	FragmentsShaded int64
	ExecErrors      int64
	// Bootstraps counts session checkpoints successfully restored
	// (MsgBootstrap messages that replaced this server's state).
	Bootstraps int64
	// QualityNow is the encode quality currently in effect (the
	// configured quality when the adaptive ladder is off);
	// QualityStepsDown / QualityStepsUp count ladder moves.
	QualityNow       int
	QualityStepsDown int64
	QualityStepsUp   int64
}

// Server is one service device: it replays command streams on its GPU
// and returns turbo-encoded frames (§IV-C). A server handles one client
// connection; a multi-tenant service device runs one Server per session
// and orders their renders through a shared dispatch.Gate.
type Server struct {
	cfg   ServerConfig
	cache *cmdcache.Cache
	dec   glwire.Decoder

	// mu guards all mutable state, cache and dec included: a message is
	// rendered, encoded and framed under one hold, so Stats and Snapshot
	// see whole frames.
	mu       sync.Mutex
	gpu      *gles.GPU
	stats    ServerStats
	decomp   *lz4.Decompressor // mirrors the client compressors' dictionary window
	rawBuf   []byte            // decompression scratch, reused across batches
	fragBase int64             // FragmentsShaded carried over from pre-bootstrap GPUs
	enc      *turbo.Encoder
	forceKey bool   // next encoded frame must be a keyframe (post-bootstrap resync)
	replyBuf []byte // framed-reply staging, reused across encodes
	// Adaptive-quality state (nil ladder when the feature is off).
	// lastAdapt rate-limits transport sampling.
	ladder    *qualityLadder
	lastAdapt time.Time
	// renderRows resolves rows of the GPU's recorded frame; it is the
	// encoder's render hook, bound once so encoding allocates nothing.
	renderRows func(y0, y1 int)
}

// NewServer builds a server with a fresh GPU context.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("%w: resolution %dx%d", ErrBadMessage, cfg.Width, cfg.Height)
	}
	s := &Server{
		cfg:    cfg,
		gpu:    gles.NewGPU(cfg.Width, cfg.Height),
		enc:    turbo.NewEncoder(cfg.Width, cfg.Height, cfg.Quality),
		cache:  cmdcache.New(cfg.CacheBytes),
		decomp: lz4.NewDecompressor(),
	}
	s.gpu.SetParallelism(cfg.Parallelism)
	s.enc.SetParallelism(cfg.Parallelism)
	s.renderRows = func(y0, y1 int) { s.gpu.ResolveRows(y0, y1) }
	if cfg.AdaptiveQuality {
		s.ladder = newQualityLadder(cfg.Quality, cfg.QualityFloor)
	}
	return s, nil
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.FragmentsShaded = s.fragBase + s.gpu.FragmentsShaded
	st := s.stats
	if s.ladder != nil {
		st.QualityNow = s.ladder.current
		st.QualityStepsDown = s.ladder.stepsDown
		st.QualityStepsUp = s.ladder.stepsUp
	} else {
		st.QualityNow = s.cfg.Quality
	}
	return st
}

// qualityAdaptInterval rate-limits transport sampling for the adaptive
// ladder: one observation per interval is plenty at streaming frame
// rates, and keeps the ladder's step cadence independent of fps.
const qualityAdaptInterval = 100 * time.Millisecond

// AdaptQuality samples conn's transport stats and applies the ladder's
// quality choice to the encoder. The serve loop calls it after each
// received message; external message pumps that drive the server
// through Handle (the fleet's per-session loop) must call it themselves
// or the ladder never observes the transport. No-op when the adaptive
// ladder is off.
func (s *Server) AdaptQuality(conn *rudp.Conn) {
	if s.ladder == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if now.Sub(s.lastAdapt) < qualityAdaptInterval {
		return
	}
	s.lastAdapt = now
	s.enc.SetQuality(s.ladder.observe(conn.Stats()))
}

// Serve processes messages from conn until it closes. It replies to
// frame batches with encoded frames on the same connection: each
// message is rendered, encoded, and sent before the next recv.
func (s *Server) Serve(conn *rudp.Conn) error {
	return s.serve(conn, 0)
}

// ServeWithTimeout is Serve with an idle timeout, for tests that must
// terminate even if the peer forgets to close.
func (s *Server) ServeWithTimeout(conn *rudp.Conn, idle time.Duration) error {
	return s.serve(conn, idle)
}

func (s *Server) serve(conn *rudp.Conn, idle time.Duration) error {
	for {
		msg, err := conn.Recv(idle)
		if err != nil {
			if err == rudp.ErrClosed || err == rudp.ErrTimeout {
				return nil
			}
			return fmt.Errorf("core: server recv: %w", err)
		}
		s.AdaptQuality(conn)
		reply, err := s.Handle(msg)
		if err != nil {
			return err
		}
		if reply != nil {
			if err := conn.Send(reply); err != nil {
				return fmt.Errorf("core: server send: %w", err)
			}
		}
		ReleaseMsg(conn, msg)
	}
}

// ReleaseMsg recycles a delivered message buffer once a serve loop is
// done with it — Server.serve and the fleet's per-session loop both end
// each message here. Bootstrap payloads are exempt: session.Decode's
// checkpoint aliases the message bytes, and the restored cache and
// dictionary may keep referencing them after Handle returns.
func ReleaseMsg(conn *rudp.Conn, msg []byte) {
	if len(msg) > 0 && msg[0] == MsgBootstrap {
		return
	}
	conn.Release(msg)
}

// Handle processes one message and returns the reply to send (nil for
// state updates). Exposed so simulations and the fleet's per-session
// loop can drive a server without Serve. The reply is built in the
// server's reusable staging buffer: it stays valid only until the next
// Handle, so callers must send (rudp copies on Send) or copy it first.
//
// A batch's clears and draws are recorded, and a batch that ends a
// frame is rasterized inside its encode. Nothing recorded outlives the
// Handle that recorded it: every other batch resolves before Handle
// returns, so the recording is bounded by one batch.
func (s *Server) Handle(msg []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.BytesIn += int64(len(msg))
	msgType, seq, payload, err := decodeMsg(msg)
	if err != nil {
		return nil, err
	}
	switch msgType {
	case MsgFrameBatch:
		frameDone, err := s.executeBatch(payload)
		if err != nil || !frameDone {
			s.gpu.Resolve()
			return nil, err
		}
		return s.encodeReplyLocked(seq)
	case MsgStateUpdate:
		_, err := s.executeBatch(payload)
		s.gpu.Resolve()
		if err != nil {
			return nil, err
		}
		s.stats.StateUpdates++
		return nil, nil
	case MsgBootstrap:
		return encodeMsg(MsgBootstrapAck, seq, s.applyBootstrapLocked(payload)), nil
	default:
		return nil, fmt.Errorf("%w: type %d", ErrBadMessage, msgType)
	}
}

// applyBootstrapLocked restores a session checkpoint under s.mu and
// returns the 8-byte ack payload: the state fingerprint re-computed
// from the restored context, or zero when the stream was rejected (the
// server keeps its previous state untouched — Restore is atomic).
// After a successful restore the next encoded frame is forced to a
// keyframe: frames this server rendered before eviction may never have
// reached the client's decoder, so the delta codec's two ends could
// disagree; a keyframe resynchronizes them unconditionally.
func (s *Server) applyBootstrapLocked(payload []byte) []byte {
	var ack [8]byte
	cp, err := session.Decode(payload)
	if err == nil {
		var ctx *gles.Context
		var cache *cmdcache.Cache
		var decomp *lz4.Decompressor
		if ctx, cache, decomp, err = session.Restore(cp); err == nil {
			gpu := gles.NewGPU(s.cfg.Width, s.cfg.Height)
			gpu.SetParallelism(s.cfg.Parallelism)
			gpu.Ctx = ctx
			s.fragBase += s.gpu.FragmentsShaded
			s.gpu = gpu
			s.cache = cache
			s.decomp = decomp
			s.stats.Bootstraps++
			s.forceKey = true
			binary.LittleEndian.PutUint64(ack[:], gles.StateFingerprint(ctx))
		}
	}
	if err != nil {
		s.stats.ExecErrors++
	}
	return ack[:]
}

// encodeReplyLocked rasterizes and turbo-encodes the recorded frame in
// one pass — each encoder span resolves its own rows of the
// framebuffer, then encodes them — and wraps the packet in a reply
// message. Frames reach the encoder in render order — the closed-loop
// delta codec's prev state is order-sensitive — because Handle renders
// and encodes under one hold of s.mu.
func (s *Server) encodeReplyLocked(seq uint64) ([]byte, error) {
	key := s.forceKey
	s.forceKey = false
	pkt, err := s.enc.EncodeWith(s.gpu.FB.Pix, key, s.renderRows)
	if err != nil {
		s.gpu.Resolve() // the encoder refuses a frame before rendering any row
		return nil, fmt.Errorf("core: encode frame: %w", err)
	}
	s.gpu.Retire()
	reply := appendMsgHeader(s.replyBuf[:0], MsgEncodedFrame, seq)
	reply = append(reply, pkt...)
	s.replyBuf = reply
	s.stats.FramesRendered++
	s.stats.BytesOut += int64(len(reply))
	return reply, nil
}

// executeBatch decompresses, cache-decodes, deserializes, and records
// one batch on the GPU, leaving it for the caller to resolve. It
// reports whether the batch ended a frame. Records stream through
// decode→record one at a time: a record aliases cache storage that only
// the NEXT DecodeRecord's insert may evict, and the GL context and the
// recording copy anything they retain past Record, so no per-record
// copy (and no record list) is ever materialized.
func (s *Server) executeBatch(payload []byte) (bool, error) {
	raw, err := s.decomp.Decompress(s.rawBuf[:0], payload, lz4.MaxBlockSize)
	s.rawBuf = raw
	if err != nil {
		return false, fmt.Errorf("core: lz4: %w", err)
	}
	frameDone := false
	for i := 0; len(raw) > 0; i++ {
		rec, n, err := s.cache.DecodeRecord(raw)
		if err != nil {
			return false, fmt.Errorf("core: cache: item %d: %w", i, err)
		}
		raw = raw[n:]
		cmd, _, err := s.dec.DecodeNoCopy(rec)
		if err != nil {
			return false, fmt.Errorf("core: wire: %w", err)
		}
		res, err := s.gpu.Record(cmd)
		if err != nil {
			// Driver-style diagnostics: record and continue, like a
			// real GPU raising GL errors without dying.
			s.stats.ExecErrors++
		}
		if res.FrameDone {
			frameDone = true
		}
	}
	return frameDone, nil
}

// Snapshot exposes the server's GL context fingerprint for the §VI-B
// consistency checks.
func (s *Server) Snapshot() gles.StateSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gpu.Ctx.Snapshot()
}
