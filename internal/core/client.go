package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/gbooster/gbooster/internal/cmdcache"
	"github.com/gbooster/gbooster/internal/dispatch"
	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/glwire"
	"github.com/gbooster/gbooster/internal/hook"
	"github.com/gbooster/gbooster/internal/lz4"
	"github.com/gbooster/gbooster/internal/rudp"
	"github.com/gbooster/gbooster/internal/session"
	"github.com/gbooster/gbooster/internal/turbo"
)

// ClientConfig parameterizes the user-device runtime.
type ClientConfig struct {
	// Width, Height is the streaming resolution.
	Width, Height int
	// Quality is the turbo codec quality (must match the servers).
	Quality int
	// Arrays resolves deferred client vertex arrays (§IV-B); pass the
	// application's registry.
	Arrays glwire.ClientArrays
	// CacheBytes bounds each per-server command cache.
	CacheBytes int
	// Parallelism is the tile-parallel turbo decode degree: 0 selects
	// one worker per CPU, 1 the serial reference path. Output is
	// byte-identical at every degree.
	Parallelism int

	// Failover tuning (zero values take the defaults below). A device
	// whose head-of-line request stops making progress — no result
	// within a deadline derived from its transport SRTT/RTO and its
	// observed per-frame service time — is struck, its orphaned frames
	// re-dispatched to a healthy replica; a frame lost on every device
	// is gap-skipped so the display never wedges on a dead device.

	// FailoverInterval is the overdue-scan period (default 25ms).
	FailoverInterval time.Duration
	// FailoverMinWait floors the progress deadline (default 200ms) so
	// a cold transport estimator cannot trigger spurious failovers.
	FailoverMinWait time.Duration
	// FailoverMaxWait caps the client's patience per head-of-line
	// result (default 3s). It is also the full deadline for a device
	// that has never produced a result — there is no service-time
	// observation to scale from. Devices legitimately slower than this
	// per frame need a larger value.
	FailoverMaxWait time.Duration
}

// failoverAttempts bounds total dispatch attempts per frame, including
// the first.
const failoverAttempts = 3

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Quality <= 0 {
		c.Quality = turbo.DefaultQuality
	}
	if c.FailoverInterval <= 0 {
		c.FailoverInterval = 25 * time.Millisecond
	}
	if c.FailoverMinWait <= 0 {
		c.FailoverMinWait = 200 * time.Millisecond
	}
	if c.FailoverMaxWait <= 0 {
		c.FailoverMaxWait = 3 * time.Second
	}
	if c.FailoverMaxWait < c.FailoverMinWait {
		c.FailoverMaxWait = c.FailoverMinWait
	}
	return c
}

// Frame is one displayed frame.
type Frame struct {
	Seq    uint64
	Pixels []byte // RGBA copy, Width*Height*4
}

// ClientStats counts client-side work.
type ClientStats struct {
	FramesSent      int64
	FramesDisplayed int64
	RawBytes        int64 // serialized records before cache+LZ4
	WireBytes       int64 // bytes actually sent
	StateBytes      int64 // replication traffic to non-assigned servers
	// PreCompressBytes counts cache-encoded uplink bytes before stream
	// compression (frame batches and state updates). The uplink LZ4
	// ratio is WireBytes relative to it.
	PreCompressBytes int64
	// CacheHits / CacheMisses count records the mirrored command caches
	// replaced with a reference vs. shipped in full, across batch and
	// state-replication encodes.
	CacheHits   int64
	CacheMisses int64

	// Failover counters (§VI-C fault tolerance).

	// ReDispatched counts frame batches re-sent to a replacement
	// device after the assigned one missed its deadline.
	ReDispatched int64
	// FramesSkipped counts frames abandoned on every device and
	// gap-skipped so the display could advance.
	FramesSkipped int64
	// LateFrames counts results that arrived after their seq was
	// released or already buffered (duplicates from re-dispatch or a
	// slow-but-alive device).
	LateFrames int64
	// Evictions / Readmissions mirror the dispatch health state
	// machine's transitions.
	Evictions    int64
	Readmissions int64
	// RecvBadMsgs counts undecodable messages dropped by the receive
	// loop; RecvUnexpected counts well-formed messages of a type the
	// client does not handle.
	RecvBadMsgs    int64
	RecvUnexpected int64

	// Handoff counters (session checkpoint & live device handoff).

	// BootstrapsSent counts session bootstrap streams shipped to
	// joining or readmitting devices; BootstrapBytes their total size.
	BootstrapsSent int64
	BootstrapBytes int64
	// HandoffsCompleted counts handoffs admitted on a matching
	// fingerprint ack; HandoffsFailed counts handoffs aborted on a
	// mismatched ack, a send failure, or the handoff deadline.
	HandoffsCompleted int64
	HandoffsFailed    int64
	// HandoffLatencyTotal accumulates checkpoint-to-admission time over
	// completed handoffs (mean = total / HandoffsCompleted).
	HandoffLatencyTotal time.Duration

	// Downlink / adaptive-quality counters.

	// DownlinkBytes counts encoded frame payload bytes received and
	// decoded across all service connections.
	DownlinkBytes int64
	// QualityNow is the quality of the most recently decoded frame
	// (from the turbo packet header; zero before the first frame).
	// QualityMin is the lowest quality seen, and QualityChanges counts
	// mid-stream quality steps — both reveal a server-side adaptive
	// ladder at work.
	QualityNow     int
	QualityMin     int
	QualityChanges int64

	// Transport holds one health snapshot per attached service
	// connection, in attach order.
	Transport []TransportHealth
}

// TransportHealth is one service connection's reliable-UDP snapshot:
// the adaptive-RTO estimator state (SRTT/RTTVAR/RTO), resend counters,
// and window occupancy, tagged with the service name.
type TransportHealth struct {
	Service string
	rudp.Stats
}

// inflightReq tracks an outstanding rendering request: Eq. 4 queue
// accounting plus everything the failover path needs to re-dispatch it
// — the raw records (re-encoded through the replacement device's
// mirrored cache), the send time its deadline is measured from, and
// the devices that already failed it.
type inflightReq struct {
	svc      *service
	workload float64
	recs     [][]byte
	sentAt   time.Time
	attempts int
	tried    map[string]bool // device IDs that already failed this frame
}

// service is one connected service device.
type service struct {
	name  string
	conn  *rudp.Conn
	cache *cmdcache.Cache
	comp  *lz4.Compressor // inter-frame uplink stream state (guarded by Client.mu)
	dec   *turbo.Decoder
	dev   *dispatch.Device

	// Failure-detector state (guarded by Client.mu). A server works
	// its queue serially, so the client watches per-device progress,
	// not per-request wall time: lastReply marks the most recent
	// result, svcEWMA smooths the observed head-of-line service time.
	lastReply time.Time
	svcEWMA   time.Duration

	// lastQuality is the turbo quality of this service's most recent
	// decoded frame (guarded by Client.mu); changes feed
	// ClientStats.QualityChanges.
	lastQuality int

	// Handoff state (guarded by Client.mu). While a bootstrap handoff
	// is live the device is Joining: it gets state updates but no frame
	// batches. handoffSending marks the window where the handoff
	// goroutine still owns the send path — state updates encoded during
	// it are appended to joinQueue so the goroutine can ship them after
	// the bootstrap, preserving the cache/compressor stream order. The
	// epoch invalidates a superseded goroutine or late ack.
	handoffLive     bool
	handoffSending  bool
	handoffAcked    bool
	handoffAckFP    uint64
	handoffFP       uint64
	handoffSentAt   time.Time
	handoffDeadline time.Time
	handoffEpoch    uint64
	joinQueue       [][]byte
}

// Client is the wrapper-side runtime installed behind the hooked GL
// symbols. Its CommandSink intercepts every GL call; frames flush on
// eglSwapBuffers, which returns immediately (the §VI-A non-blocking
// rewrite).
type Client struct {
	cfg ClientConfig

	mu        sync.Mutex
	enc       *glwire.Encoder
	services  []*service
	sched     *dispatch.Scheduler
	seq       uint64
	frameRecs [][]byte
	inflight  map[uint64]*inflightReq
	reorder   *dispatch.Reorder[Frame]
	stats     ClientStats
	sinkErr   error

	// loadForecast, when set, supplies the predictive controller's
	// expected extra workload (records) for the forecast horizon; the
	// scheduler adds it to Eq. 4's r term so device selection anticipates
	// the burst instead of reacting to it. Non-nil also enables the live
	// SRTT refresh in sweepOverdue (guarded by mu).
	loadForecast func() float64

	// shadow mirrors the servers' GL context byte-for-byte: every
	// encoded state-mutating record is decoded and applied to it, so a
	// session checkpoint captured from it restores a cold server to
	// exactly the state its peers hold. It must track the *encoded*
	// records, not the raw commands — the encoder resolves deferred
	// client-array attribs at draw time, so the wire stream is the only
	// faithful source (guarded by mu).
	shadow    *gles.Context
	shadowDec glwire.Decoder

	// Pooled uplink scratch. The steady-state flush path reuses all of
	// these across frames so shipping a frame allocates nothing (see
	// DESIGN.md §11 for the ownership rules). scratch is a sync.Pool so
	// concurrent users (flush under mu, failover redispatch) never
	// contend; the free lists below are mu-guarded like the data they
	// recycle.
	scratch  sync.Pool      // of *uplinkScratch
	encBuf   []byte         // glwire encode scratch (guarded by mu)
	splitBuf [][]byte       // record-split scratch (guarded by mu)
	recFree  [][]byte       // record-copy buffers awaiting reuse (guarded by mu)
	recsFree [][][]byte     // frame record-slice headers (guarded by mu)
	reqFree  []*inflightReq // completed request structs (guarded by mu)
	stateBuf [][]byte       // state-replication filter scratch (guarded by mu)

	frames chan Frame
	done   chan struct{}
	wg     sync.WaitGroup
	closed sync.Once
}

// uplinkScratch is one send's reusable buffer set: the cache-encoded
// wire bytes and the framed, compressed message built from them. Both
// are fully consumed before the scratch is returned (the compressor
// copies wire into its history window; rudp copies msg into its
// retransmit window), so ownership never escapes the pool.
type uplinkScratch struct {
	wire []byte
	msg  []byte
}

func (c *Client) getScratch() *uplinkScratch {
	return c.scratch.Get().(*uplinkScratch)
}

func (c *Client) putScratch(sc *uplinkScratch) {
	c.scratch.Put(sc)
}

// getRecsLocked returns an empty record-slice header for the next
// frame's accumulation, reusing a released frame's header when one is
// available.
func (c *Client) getRecsLocked() [][]byte {
	if n := len(c.recsFree); n > 0 {
		recs := c.recsFree[n-1]
		c.recsFree[n-1] = nil
		c.recsFree = c.recsFree[:n-1]
		return recs
	}
	return nil
}

// copyRecLocked copies one encoded record into a client-owned buffer,
// reusing a released record's buffer when one is available. frameRecs
// must own its bytes — the encoder scratch it is sliced from is
// overwritten by the next command.
func (c *Client) copyRecLocked(rec []byte) []byte {
	var buf []byte
	if n := len(c.recFree); n > 0 {
		buf = c.recFree[n-1]
		c.recFree[n-1] = nil
		c.recFree = c.recFree[:n-1]
	}
	return append(buf[:0], rec...)
}

// getReqLocked returns a request struct ready to fill, reusing a
// completed one when available.
func (c *Client) getReqLocked() *inflightReq {
	if n := len(c.reqFree); n > 0 {
		req := c.reqFree[n-1]
		c.reqFree[n-1] = nil
		c.reqFree = c.reqFree[:n-1]
		return req
	}
	return &inflightReq{tried: make(map[string]bool)}
}

// releaseReqLocked recycles a finished request: its record buffers and
// slice header go back on the free lists and the struct is reset for
// reuse. The caller must be done with req.recs — future frames
// overwrite the buffers.
func (c *Client) releaseReqLocked(req *inflightReq) {
	for i, rec := range req.recs {
		c.recFree = append(c.recFree, rec)
		req.recs[i] = nil
	}
	c.recsFree = append(c.recsFree, req.recs[:0])
	req.recs = nil
	req.svc = nil
	req.workload = 0
	req.sentAt = time.Time{}
	req.attempts = 0
	clear(req.tried)
	c.reqFree = append(c.reqFree, req)
}

// NewClient builds a client runtime; attach servers with AddService
// before generating frames.
func NewClient(cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("%w: resolution %dx%d", ErrBadMessage, cfg.Width, cfg.Height)
	}
	c := &Client{
		cfg:      cfg,
		enc:      glwire.NewEncoder(cfg.Arrays),
		inflight: make(map[uint64]*inflightReq),
		reorder:  dispatch.NewReorder[Frame](0, 256),
		shadow:   gles.NewContext(),
		frames:   make(chan Frame, 64),
		done:     make(chan struct{}),
	}
	c.scratch.New = func() any { return new(uplinkScratch) }
	c.wg.Add(1)
	go c.failoverLoop()
	return c, nil
}

// AddService attaches a connected service device. capability is Eq. 4's
// c^j in records/second (relative values are what matter); rtt its l^j.
func (c *Client) AddService(name string, conn *rudp.Conn, capability float64, rtt time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	dev, err := dispatch.NewDevice(name, capability, rtt)
	if err != nil {
		return fmt.Errorf("core: add service: %w", err)
	}
	svc := &service{
		name:  name,
		conn:  conn,
		cache: cmdcache.New(c.cfg.CacheBytes),
		comp:  lz4.NewCompressor(),
		dec:   turbo.NewDecoder(c.cfg.Width, c.cfg.Height, c.cfg.Quality),
		dev:   dev,
	}
	svc.dec.SetParallelism(c.cfg.Parallelism)
	// Grow the live scheduler rather than rebuilding it: a rebuild
	// would silently zero the accumulated Assigned/PerDevice/TotalWork
	// stats (and the health state) of the existing devices.
	if c.sched == nil {
		c.sched, err = dispatch.NewScheduler(dev)
		if err != nil {
			return fmt.Errorf("core: scheduler: %w", err)
		}
		if c.loadForecast != nil {
			c.sched.SetForecast(c.loadForecast)
		}
	} else if err := c.sched.AddDevice(dev); err != nil {
		return fmt.Errorf("core: scheduler: %w", err)
	}
	c.services = append(c.services, svc)
	// One receive goroutine per service: replies from different devices
	// decode in parallel, replies from one device in arrival order.
	c.wg.Add(1)
	go c.recvLoop(svc)
	if c.seq > 0 {
		// Mid-session hot-join: the new server is cold while its peers
		// carry the full session state, so it must not enter the
		// rotation until a bootstrap handoff has replayed the shadow
		// checkpoint into it and it has acked the state fingerprint.
		// MarkJoining happens inside beginHandoffLocked, before mu is
		// released, so no frame can be assigned to the cold device.
		if err := c.beginHandoffLocked(svc); err != nil {
			return err
		}
	}
	return nil
}

// DeviceState is one attached device's dispatch view: its health in
// the failure state machine and its outstanding Eq. 4 workload.
type DeviceState struct {
	Service string
	Health  dispatch.Health
	Queued  float64
}

// DeviceStates snapshots every attached device's health and queue.
func (c *Client) DeviceStates() []DeviceState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]DeviceState, 0, len(c.services))
	for _, s := range c.services {
		out = append(out, DeviceState{Service: s.name, Health: s.dev.Health(), Queued: s.dev.Queued()})
	}
	return out
}

// Sink returns the CommandSink to install behind the hooked GL symbols.
func (c *Client) Sink() hook.CommandSink {
	return func(cmd gles.Command) { c.consume(cmd) }
}

// Install registers and preloads the GBooster wrapper library in the
// process's linker — the complete §IV-A hook installation.
func (c *Client) Install(ln *hook.Linker, soname string) error {
	_, err := hook.InstallWrapper(ln, soname, c.Sink())
	return err
}

// Err surfaces the first asynchronous error the sink path hit (the GL
// ABI has no error return, matching the real wrapper's constraint).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sinkErr
}

// Stats snapshots client counters, including per-service transport
// health.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	st := c.stats
	if c.sched != nil {
		st.Evictions = int64(c.sched.Stats.Evictions)
		st.Readmissions = int64(c.sched.Stats.Readmissions)
	}
	svcs := append([]*service(nil), c.services...)
	c.mu.Unlock()
	st.Transport = make([]TransportHealth, 0, len(svcs))
	for _, s := range svcs {
		st.Transport = append(st.Transport, TransportHealth{Service: s.name, Stats: s.conn.Stats()})
	}
	return st
}

// SetLoadForecast installs the predictive controller's load-forecast
// hook: f returns the expected extra workload (records) arriving
// within the forecast horizon, and the scheduler biases Eq. 4's cost
// with it so device selection anticipates the burst. Installing a hook
// also enables the live SRTT refresh in the failure sweep, keeping
// l_j current with measured transport latency. Pass nil to restore
// purely reactive dispatch.
func (c *Client) SetLoadForecast(f func() float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.loadForecast = f
	if c.sched != nil {
		c.sched.SetForecast(f)
	}
}

// TrafficBytes returns total wire traffic (uplink + downlink) the
// client has moved, for traffic-rate differencing by the predictive
// controller.
func (c *Client) TrafficBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.WireBytes + c.stats.DownlinkBytes
}

// TransportStats returns the per-service transport health snapshots
// alone, for callers polling link quality without the full counter set.
func (c *Client) TransportStats() []TransportHealth {
	return c.Stats().Transport
}

// consume intercepts one GL command.
func (c *Client) consume(cmd gles.Command) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sinkErr != nil {
		return
	}
	buf, err := c.enc.Encode(c.encBuf[:0], cmd)
	c.encBuf = buf
	if err != nil {
		c.sinkErr = fmt.Errorf("core: serialize %v: %w", cmd.Op, err)
		return
	}
	if len(buf) > 0 {
		recs, err := glwire.AppendSplitRecords(c.splitBuf[:0], buf)
		c.splitBuf = recs
		if err != nil {
			c.sinkErr = fmt.Errorf("core: split: %w", err)
			return
		}
		for _, rec := range recs {
			c.frameRecs = append(c.frameRecs, c.copyRecLocked(rec))
			c.stats.RawBytes += int64(len(rec))
			c.applyShadowLocked(rec)
		}
	}
	if cmd.IsFrameBoundary() {
		if err := c.flushFrameLocked(); err != nil {
			c.sinkErr = err
		}
	}
}

// flushFrameLocked ships the accumulated frame: the full batch to the
// Eq. 4-chosen server, state-mutating records to every other live
// server. A frame no device will accept is gap-skipped — only that
// frame fails, never the whole client.
func (c *Client) flushFrameLocked() error {
	recs := c.frameRecs
	c.frameRecs = c.getRecsLocked()
	if len(c.services) == 0 {
		return fmt.Errorf("%w: no service devices attached", ErrClosed)
	}
	seq := c.seq
	c.seq++
	req := c.getReqLocked()
	req.workload = float64(len(recs))
	req.recs = recs
	if err := c.sendBatchLocked(seq, req); err != nil {
		if !errors.Is(err, dispatch.ErrNoHealthyDevices) {
			return err
		}
		// Every device is dead or quarantined: degrade to dropping this
		// frame instead of poisoning the sink.
		c.stats.FramesSkipped++
		skipped := c.reorder.Skip(seq)
		c.releaseReqLocked(req)
		c.deliverLocked(skipped)
		return nil
	}
	c.inflight[seq] = req
	c.stats.FramesSent++

	// State replication to the others (the real system multicasts; one
	// logical transmission per non-assigned server here). Evicted
	// devices are excluded: their reliable channel would queue the
	// update unacknowledged until the send window wedged the client.
	stateRecs := c.stateBuf[:0]
	for _, rec := range recs {
		op, err := glwire.PeekOp(rec)
		if err != nil {
			c.stateBuf = stateRecs
			return fmt.Errorf("core: peek: %w", err)
		}
		if (gles.Command{Op: op}).MutatesState() {
			stateRecs = append(stateRecs, rec)
		}
	}
	c.stateBuf = stateRecs
	if len(stateRecs) == 0 {
		return nil
	}
	sc := c.getScratch()
	defer c.putScratch(sc)
	for _, s := range c.services {
		if s == req.svc {
			continue
		}
		switch s.dev.Health() {
		case dispatch.Evicted:
			continue
		case dispatch.Joining:
			if !s.handoffLive {
				// Joining with no live handoff: an abort is in flight
				// (the sweeper will resolve the state); don't desync
				// the mirrored cache by encoding into it.
				continue
			}
		}
		if s.handoffLive && s.handoffSending {
			// The handoff goroutine still owns this device's send path
			// (bootstrap or earlier queued updates not yet on the
			// wire). Encode NOW — the mirrored cache and compressor
			// must advance in flush order — but queue the finished
			// message for the goroutine to ship after its backlog.
			wire, hits, err := s.cache.EncodeAll(sc.wire[:0], stateRecs)
			sc.wire = wire
			if err != nil {
				return fmt.Errorf("core: state encode: %w", err)
			}
			c.stats.CacheHits += int64(hits)
			c.stats.CacheMisses += int64(len(stateRecs) - hits)
			msg := s.comp.Compress(appendMsgHeader(sc.msg[:0], MsgStateUpdate, 0), wire)
			sc.msg = msg
			s.joinQueue = append(s.joinQueue, append([]byte(nil), msg...))
			c.stats.PreCompressBytes += int64(len(wire))
			continue
		}
		if !c.windowFitsLocked(s, stateRecs) && !c.waitWindowLocked(s, stateRecs) {
			// The channel stayed saturated with unacked data through
			// the drain wait — a strong dead-device signal. Dropping
			// the update here keeps the command caches coherent
			// (neither side encodes it); only the replica's GL state
			// goes stale, which readmission tolerates (see DESIGN.md,
			// failure semantics).
			c.sched.ReportFailure(s.dev)
			continue
		}
		wire, hits, err := s.cache.EncodeAll(sc.wire[:0], stateRecs)
		sc.wire = wire
		if err != nil {
			return fmt.Errorf("core: state encode: %w", err)
		}
		c.stats.CacheHits += int64(hits)
		c.stats.CacheMisses += int64(len(stateRecs) - hits)
		msg := s.comp.Compress(appendMsgHeader(sc.msg[:0], MsgStateUpdate, 0), wire)
		sc.msg = msg
		if err := s.conn.Send(msg); err != nil {
			// The conn is dead for good; its cache and compressor just
			// diverged from the server's, so the device must never come
			// back.
			c.sched.Quarantine(s.dev)
			continue
		}
		c.stats.WireBytes += int64(len(msg))
		c.stats.StateBytes += int64(len(msg))
		c.stats.PreCompressBytes += int64(len(wire))
	}
	return nil
}

// windowGuardSlack keeps a few datagrams of headroom so a send can
// never block on a saturated reliable channel while holding c.mu.
const windowGuardSlack = 4

// waitWindowLocked gives s's transport a bounded chance to drain a
// saturated send window before the caller may treat the saturation as
// a dead-device signal. A burst of frame flushes can legitimately fill
// the window faster than acks return — the guard exists so a dead
// peer can't wedge the pipeline forever, not to fail devices that are
// merely backlogged — so back off for a few RTOs and recheck. Returns
// true once the send fits. c.mu stays held across the sleeps: ack
// processing is rudp-internal and needs no client state, and the wait
// is bounded, so decode/failover work is delayed, never deadlocked.
func (c *Client) waitWindowLocked(s *service, recs [][]byte) bool {
	// Progress-based, like the failover detector: any ack progress
	// (occupancy dropping) resets the clock, so a slowly-draining
	// window is waited out however long it takes, while a window that
	// stops moving for a few RTOs is declared stuck.
	quiet := 4 * s.conn.Stats().RTO
	if quiet < 50*time.Millisecond {
		quiet = 50 * time.Millisecond
	}
	if quiet > 500*time.Millisecond {
		quiet = 500 * time.Millisecond
	}
	last := s.conn.Stats().WindowOccupancy
	deadline := time.Now().Add(quiet)
	for time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		if c.windowFitsLocked(s, recs) {
			return true
		}
		if occ := s.conn.Stats().WindowOccupancy; occ < last {
			last = occ
			deadline = time.Now().Add(quiet)
		}
	}
	return false
}

// windowFitsLocked estimates whether sending recs to s could block on
// its transport window. The estimate uses raw record bytes (an upper
// bound on the encoded size) against the default datagram payload.
func (c *Client) windowFitsLocked(s *service, recs [][]byte) bool {
	st := s.conn.Stats()
	if st.WindowLimit <= 0 {
		return true
	}
	total := 0
	for _, r := range recs {
		total += len(r)
	}
	need := total/1200 + 1 + windowGuardSlack
	return st.WindowOccupancy+need <= st.WindowLimit
}

// serviceFor maps a dispatch device back to its service.
func (c *Client) serviceFor(dev *dispatch.Device) *service {
	for _, s := range c.services {
		if s.dev == dev {
			return s
		}
	}
	return nil
}

// sendBatchLocked places req's frame on an assignable device and ships
// it, trying further devices if a chosen one cannot accept the send.
// On success req.svc/sentAt/attempts reflect the dispatch. On failure
// every touched device's queue accounting has been rolled back and the
// request is on no device.
func (c *Client) sendBatchLocked(seq uint64, req *inflightReq) error {
	sc := c.getScratch()
	defer c.putScratch(sc)
	for {
		var dev *dispatch.Device
		var err error
		if len(req.tried) == 0 {
			dev, _, err = c.sched.Assign(req.workload)
		} else {
			var exclude []*dispatch.Device
			for _, s := range c.services {
				if req.tried[s.dev.ID] {
					exclude = append(exclude, s.dev)
				}
			}
			dev, _, err = c.sched.Reassign(req.workload, exclude...)
		}
		if err != nil {
			return err
		}
		svc := c.serviceFor(dev)
		if svc == nil {
			c.sched.Complete(dev, req.workload)
			return fmt.Errorf("core: assigned device %q has no service", dev.ID)
		}
		req.tried[dev.ID] = true
		// Never let Send block on a saturated window while holding mu:
		// guard before encoding so a rejected device's mirrored cache
		// stays untouched. A window that stays full through the drain
		// wait counts as a failure; one that is merely absorbing a
		// burst does not.
		if !c.windowFitsLocked(svc, req.recs) && !c.waitWindowLocked(svc, req.recs) {
			c.sched.Complete(dev, req.workload)
			c.sched.ReportFailure(dev)
			continue
		}
		wire, hits, err := svc.cache.EncodeAll(sc.wire[:0], req.recs)
		sc.wire = wire
		if err != nil {
			c.sched.Complete(dev, req.workload)
			return fmt.Errorf("core: cache encode: %w", err)
		}
		c.stats.CacheHits += int64(hits)
		c.stats.CacheMisses += int64(len(req.recs) - hits)
		batch := svc.comp.Compress(appendMsgHeader(sc.msg[:0], MsgFrameBatch, seq), wire)
		sc.msg = batch
		if err := svc.conn.Send(batch); err != nil {
			// Roll the workload back off the device and drop the seq
			// from its books — leaving either in place leaks the slot
			// forever. The cache and compressor already advanced past a
			// batch the server will never see, so the device is done
			// for good.
			c.sched.Complete(dev, req.workload)
			c.sched.Quarantine(dev)
			continue
		}
		c.stats.WireBytes += int64(len(batch))
		c.stats.PreCompressBytes += int64(len(wire))
		req.svc = svc
		req.sentAt = time.Now()
		req.attempts++
		return nil
	}
}

// deliverLocked forwards released frames to the display channel while
// holding mu (see recvLoop for why ordering requires that). It reports
// false if the client shut down mid-delivery.
func (c *Client) deliverLocked(released []Frame) bool {
	for _, f := range released {
		select {
		case c.frames <- f:
		case <-c.done:
			return false
		}
	}
	c.stats.FramesDisplayed += int64(len(released))
	return true
}

// failoverLoop periodically sweeps inflight requests for overdue
// results — the §VI-C data plane's liveness guarantee: a device that
// accepts a request and never answers cannot stall the display.
func (c *Client) failoverLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.FailoverInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
			if !c.sweepOverdue(time.Now()) {
				return
			}
		}
	}
}

// progressWait is how long a device may go without answering its
// head-of-line request before it is declared failed. A device that is
// merely slow keeps producing results, which keeps pushing the
// reference point forward; only a device making no progress at all can
// exceed this wait. Derived from the transport estimator (absorbing a
// few retransmissions) and the observed per-frame service time; a
// device that has never answered gets the full FailoverMaxWait.
func (c *Client) progressWait(svc *service) time.Duration {
	if svc.svcEWMA <= 0 {
		return c.cfg.FailoverMaxWait
	}
	st := svc.conn.Stats()
	wait := 2*st.SRTT + 3*st.RTO
	if wait < c.cfg.FailoverMinWait {
		wait = c.cfg.FailoverMinWait
	}
	if g := 4 * svc.svcEWMA; g > wait {
		wait = g
	}
	if wait > c.cfg.FailoverMaxWait {
		wait = c.cfg.FailoverMaxWait
	}
	return wait
}

// sweepOverdue finds devices whose head-of-line request has made no
// progress past their deadline, strikes them, and re-dispatches every
// request orphaned on them to a healthy replica (whose mirrored cache
// already carries the replicated state stream). When no device remains
// or a frame's attempts are spent, only that frame is abandoned, via
// the reorder buffer's gap-skip. Returns false if the client shut down
// during frame delivery.
func (c *Client) sweepOverdue(now time.Time) bool {
	c.mu.Lock()
	if c.sinkErr != nil || c.sched == nil {
		c.mu.Unlock()
		return true
	}
	if c.loadForecast != nil {
		// Predictive dispatch refreshes each device's l_j from the
		// transport's measured SRTT, so Eq. 4 ranks devices on live
		// latency rather than the admission-time estimate. Gated on the
		// forecast hook so default (reactive) behavior is unchanged.
		for _, svc := range c.services {
			if srtt := svc.conn.Stats().SRTT; srtt > 0 {
				svc.dev.SetRTT(srtt)
			}
		}
	}
	// Oldest outstanding dispatch per device: replies come back in
	// dispatch order on each connection, so this is the request the
	// device owes next.
	head := make(map[*service]time.Time)
	for _, req := range c.inflight {
		if t, ok := head[req.svc]; !ok || req.sentAt.Before(t) {
			head[req.svc] = req.sentAt
		}
	}
	var failed []*service
	for svc, h := range head {
		ref := h
		if svc.lastReply.After(ref) {
			ref = svc.lastReply
		}
		if now.After(ref.Add(c.progressWait(svc))) {
			failed = append(failed, svc)
		}
	}
	for _, svc := range failed {
		// One strike per failure event, not per orphaned frame.
		c.sched.ReportFailure(svc.dev)
		if !c.migrateOrphansLocked(svc) {
			c.mu.Unlock()
			return false
		}
	}
	c.sweepHandoffsLocked(now)
	c.mu.Unlock()
	return true
}

// migrateOrphansLocked re-dispatches every inflight request currently
// owned by svc to a healthy replica (whose mirrored cache already
// carries the replicated state stream), gap-skipping any frame whose
// attempts are spent or that no device will accept. Shared by the
// failure sweep and administrative draining. Returns false if the
// client shut down mid-delivery.
func (c *Client) migrateOrphansLocked(svc *service) bool {
	var orphans []uint64
	for seq, req := range c.inflight {
		if req.svc == svc {
			orphans = append(orphans, seq)
		}
	}
	// Ascending order so consecutive skips release frames
	// deterministically.
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	for _, seq := range orphans {
		req := c.inflight[seq]
		c.sched.Complete(svc.dev, req.workload)
		if req.attempts < failoverAttempts {
			if err := c.sendBatchLocked(seq, req); err == nil {
				c.stats.ReDispatched++
				continue
			}
		}
		// Lost on every device: fail only this frame.
		delete(c.inflight, seq)
		c.releaseReqLocked(req)
		c.stats.FramesSkipped++
		if !c.deliverLocked(c.reorder.Skip(seq)) {
			return false
		}
	}
	return true
}

// applyShadowLocked applies one just-encoded state-mutating record to
// the shadow context, keeping it byte-faithful to the wire stream the
// servers replay. Decode/apply errors are deliberately not surfaced:
// the servers run the identical deterministic code on the identical
// bytes, so both sides reject the same records and stay in lockstep.
func (c *Client) applyShadowLocked(rec []byte) {
	op, err := glwire.PeekOp(rec)
	if err != nil || !(gles.Command{Op: op}).MutatesState() {
		return
	}
	if cmd, _, err := c.shadowDec.Decode(rec); err == nil {
		_ = c.shadow.Apply(cmd)
	}
}

// beginHandoffLocked starts a bootstrap handoff to svc: it captures a
// session checkpoint (shadow GL state, svc's mirrored command cache in
// eviction order, svc's compression dictionary window), moves the
// device to Joining, and hands the bootstrap to a goroutine — rudp
// sends block on a full window and must never run under c.mu.
func (c *Client) beginHandoffLocked(svc *service) error {
	if svc.handoffLive {
		return nil
	}
	cp, err := session.Capture(c.shadow, svc.cache, svc.comp)
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	boot := session.Append(appendMsgHeader(make([]byte, 0, cp.Size()+16), MsgBootstrap, 0), cp)
	c.sched.MarkJoining(svc.dev)
	if svc.dev.Health() != dispatch.Joining {
		return fmt.Errorf("core: handoff: device %q cannot join", svc.name)
	}
	svc.handoffLive = true
	svc.handoffSending = true
	svc.handoffAcked = false
	svc.handoffFP = cp.Fingerprint()
	svc.handoffSentAt = time.Now()
	// A joining device that has not acked the checkpoint fingerprint
	// within twice the failover patience is re-evicted.
	svc.handoffDeadline = svc.handoffSentAt.Add(2 * c.cfg.FailoverMaxWait)
	svc.handoffEpoch++
	svc.joinQueue = svc.joinQueue[:0]
	c.stats.BootstrapsSent++
	c.stats.BootstrapBytes += int64(len(boot))
	c.stats.WireBytes += int64(len(boot))
	c.wg.Add(1)
	go c.runHandoff(svc, svc.handoffEpoch, boot)
	return nil
}

// runHandoff ships one handoff's bootstrap stream and then drains the
// join queue — state updates that were encoded (in flush order, under
// mu) while the bootstrap was still in flight. Only after the queue is
// empty does it release the send path back to flushFrameLocked; the
// handoffSending flag flips under the same mu hold that observes the
// empty queue, so the server sees bootstrap, queued updates, and live
// updates in exactly the order the mirrored cache and compressor
// produced them.
func (c *Client) runHandoff(svc *service, epoch uint64, boot []byte) {
	defer c.wg.Done()
	if err := svc.conn.Send(boot); err != nil {
		c.mu.Lock()
		c.abortHandoffLocked(svc, epoch)
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	for svc.handoffLive && svc.handoffEpoch == epoch && len(svc.joinQueue) > 0 {
		msg := svc.joinQueue[0]
		svc.joinQueue = svc.joinQueue[1:]
		c.mu.Unlock()
		err := svc.conn.Send(msg)
		c.mu.Lock()
		if err != nil {
			// The cache and compressor advanced past a message the
			// server will never see; the device must never come back.
			c.sched.Quarantine(svc.dev)
			c.abortHandoffLocked(svc, epoch)
			c.mu.Unlock()
			return
		}
		c.stats.WireBytes += int64(len(msg))
		c.stats.StateBytes += int64(len(msg))
	}
	if svc.handoffLive && svc.handoffEpoch == epoch {
		svc.handoffSending = false
		if svc.handoffAcked {
			// The ack raced ahead of the queue drain; admission was
			// deferred to here so no frame batch could jump the queued
			// state updates on the wire.
			c.finishHandoffLocked(svc, epoch, svc.handoffAckFP)
		}
	}
	c.mu.Unlock()
}

// finishHandoffLocked resolves a live handoff against the server's ack:
// the device is admitted to the rotation only when the server's
// fingerprint — re-computed from its restored context — exactly matches
// the checkpoint's, proving byte-identical state. Anything else (a zero
// fingerprint marks a failed restore) re-evicts the device.
func (c *Client) finishHandoffLocked(svc *service, epoch uint64, fp uint64) {
	if !svc.handoffLive || svc.handoffEpoch != epoch {
		return
	}
	ok := fp != 0 && fp == svc.handoffFP
	c.clearHandoffLocked(svc)
	c.sched.FinishJoin(svc.dev, ok)
	if ok {
		c.stats.HandoffsCompleted++
		c.stats.HandoffLatencyTotal += time.Since(svc.handoffSentAt)
	} else {
		c.stats.HandoffsFailed++
	}
}

// abortHandoffLocked fails a live handoff (deadline, send error, or a
// mid-join eviction) and re-evicts the device. Stale epochs — a
// superseded goroutine waking up after its handoff was already resolved
// — are ignored.
func (c *Client) abortHandoffLocked(svc *service, epoch uint64) {
	if !svc.handoffLive || svc.handoffEpoch != epoch {
		return
	}
	c.clearHandoffLocked(svc)
	c.sched.FinishJoin(svc.dev, false)
	c.stats.HandoffsFailed++
}

func (c *Client) clearHandoffLocked(svc *service) {
	svc.handoffLive = false
	svc.handoffSending = false
	svc.handoffAcked = false
	svc.joinQueue = nil
}

// sweepHandoffsLocked advances the handoff lifecycle on the failover
// tick: live handoffs past their deadline (or whose device fell out of
// Joining, e.g. a mid-join failure report) are aborted, and evicted
// devices whose probe cool-down has passed get a fresh bootstrap — but
// only once their send window has fully drained. A blackholed device
// never drains its unacked window, so the liveness precheck keeps dead
// devices from wedging handoff goroutines on blocked sends.
func (c *Client) sweepHandoffsLocked(now time.Time) {
	for _, svc := range c.services {
		if svc.handoffLive {
			if svc.dev.Health() != dispatch.Joining || now.After(svc.handoffDeadline) {
				c.abortHandoffLocked(svc, svc.handoffEpoch)
			}
			continue
		}
		if c.sched.NeedsBootstrap(svc.dev) && svc.conn.Stats().WindowOccupancy == 0 {
			_ = c.beginHandoffLocked(svc)
		}
	}
}

// DrainService administratively removes a device from the rotation: no
// further frames or state updates are dispatched to it, and its
// in-flight frames migrate to the remaining replicas through the same
// re-dispatch path a failed device's orphans take. The device stays
// attached and may later be readmitted via a bootstrap handoff.
func (c *Client) DrainService(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var svc *service
	for _, s := range c.services {
		if s.name == name {
			svc = s
			break
		}
	}
	if svc == nil {
		return fmt.Errorf("core: drain: unknown service %q", name)
	}
	if svc.handoffLive {
		c.abortHandoffLocked(svc, svc.handoffEpoch)
	}
	c.sched.Drain(svc.dev)
	c.migrateOrphansLocked(svc)
	return nil
}

// recvLoop reads messages from one server, validates them, and decodes
// encoded frames inline. Per-connection replies arrive in dispatch
// order; decoding on the receive goroutine preserves that order into
// the reorder buffer.
func (c *Client) recvLoop(svc *service) {
	defer c.wg.Done()
	for {
		msg, err := svc.conn.Recv(0)
		if err != nil {
			return // closed
		}
		msgType, seq, payload, err := decodeMsg(msg)
		if err != nil {
			c.mu.Lock()
			c.stats.RecvBadMsgs++
			c.mu.Unlock()
			continue
		}
		if msgType == MsgBootstrapAck {
			c.handleBootstrapAck(svc, payload)
			continue
		}
		if msgType != MsgEncodedFrame {
			c.mu.Lock()
			c.stats.RecvUnexpected++
			c.mu.Unlock()
			continue
		}
		if !c.decodeOne(svc, seq, payload) {
			return
		}
	}
}

// handleBootstrapAck resolves (or defers) a handoff on the server's
// fingerprint ack. If the handoff goroutine still owns the send path,
// admission is deferred until its queue drains — admitting earlier
// would let a frame batch overtake the queued state updates.
func (c *Client) handleBootstrapAck(svc *service, payload []byte) {
	var fp uint64
	if len(payload) == 8 {
		fp = binary.LittleEndian.Uint64(payload)
	}
	c.mu.Lock()
	switch {
	case !svc.handoffLive:
		c.stats.RecvUnexpected++
	case svc.handoffSending:
		svc.handoffAcked = true
		svc.handoffAckFP = fp
	default:
		c.finishHandoffLocked(svc, svc.handoffEpoch, fp)
	}
	c.mu.Unlock()
}

// decodeOne turbo-decodes one encoded frame and runs the bookkeeping:
// liveness credit, inflight completion, service-time EWMA, reorder
// push, and delivery. It reports false when the client shut down
// mid-delivery.
func (c *Client) decodeOne(svc *service, seq uint64, payload []byte) bool {
	pixels, err := svc.dec.Decode(payload)
	if err != nil {
		c.mu.Lock()
		if c.sinkErr == nil {
			c.sinkErr = fmt.Errorf("core: frame decode: %w", err)
		}
		c.mu.Unlock()
		return true
	}
	frame := Frame{Seq: seq, Pixels: append([]byte(nil), pixels...)}
	now := time.Now()
	c.mu.Lock()
	c.stats.DownlinkBytes += int64(len(payload))
	// Track the quality the server encoded at (carried in the turbo
	// packet header) so a server-side adaptive ladder is visible here.
	if q := svc.dec.Quality(); q > 0 {
		if c.stats.QualityMin == 0 || q < c.stats.QualityMin {
			c.stats.QualityMin = q
		}
		if svc.lastQuality != 0 && q != svc.lastQuality {
			c.stats.QualityChanges++
		}
		svc.lastQuality = q
		c.stats.QualityNow = q
	}
	// A result is proof of life for the device that produced it.
	c.sched.ReportSuccess(svc.dev)
	if req, ok := c.inflight[seq]; ok {
		if req.svc == svc {
			// Head-of-line service time: how long this request took
			// once it reached the front of the device's queue.
			start := req.sentAt
			if svc.lastReply.After(start) {
				start = svc.lastReply
			}
			if sample := now.Sub(start); svc.svcEWMA <= 0 {
				svc.svcEWMA = sample
			} else {
				svc.svcEWMA += (sample - svc.svcEWMA) / 4
			}
		}
		// Credit whichever device currently carries the request —
		// after a re-dispatch a slow original may answer first.
		c.sched.Complete(req.svc.dev, req.workload)
		delete(c.inflight, seq)
		c.releaseReqLocked(req)
	}
	svc.lastReply = now
	released, err := c.reorder.Push(seq, frame)
	if err != nil {
		if errors.Is(err, dispatch.ErrDuplicate) {
			// Expected under failover: both the original and the
			// replacement device may answer, and a gap-skipped
			// frame may still trickle in.
			c.stats.LateFrames++
		} else if c.sinkErr == nil {
			c.sinkErr = fmt.Errorf("core: reorder: %w", err)
		}
	}
	// Deliver while still holding the lock: two decode paths that
	// release consecutive batches must not interleave their channel
	// sends, or frames display out of order. The frames channel is
	// only ever read (never locked) by consumers, so holding mu
	// across the send cannot deadlock.
	if !c.deliverLocked(released) {
		c.mu.Unlock()
		return false
	}
	c.mu.Unlock()
	return true
}

// NextFrame returns the next in-order displayed frame, waiting up to
// timeout.
func (c *Client) NextFrame(timeout time.Duration) (Frame, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case f, ok := <-c.frames:
		if !ok {
			return Frame{}, ErrClosed
		}
		return f, nil
	case <-timer:
		return Frame{}, rudp.ErrTimeout
	case <-c.done:
		return Frame{}, ErrClosed
	}
}

// Close shuts down the client and its connections.
func (c *Client) Close() error {
	var err error
	c.closed.Do(func() {
		close(c.done)
		c.mu.Lock()
		svcs := append([]*service(nil), c.services...)
		c.mu.Unlock()
		for _, s := range svcs {
			if cerr := s.conn.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		c.wg.Wait()
	})
	return err
}
