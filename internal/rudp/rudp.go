// Package rudp implements the lightweight reliable transport GBooster
// layers over UDP (paper §IV-B). TCP's retransmission machinery adds
// tens of milliseconds of inherent delay, so the paper ships graphics
// commands over UDP with application-layer reliability in the spirit of
// UDT: sequence numbers, cumulative acknowledgements, timeout
// retransmission, and in-order delivery. On top of the ordered byte
// flow, Conn frames length-prefixed messages, so arbitrarily large
// command batches and encoded frames fragment transparently across
// datagrams.
//
// # Loss recovery
//
// Conn adapts its retransmission timeout to the path instead of firing
// on a fixed timer. The machinery borrows the proven TCP mechanisms:
//
//   - RTT sampling (RFC 7323 flavor): every data datagram carries a
//     microsecond send timestamp, and each ACK echoes the timestamp of
//     the datagram that triggered it. A sample is therefore pinned to
//     one specific transmission, stays unambiguous across
//     retransmissions (subsuming Karn's rule), and excludes
//     head-of-line blocking behind a loss. A Karn-filtered send-time
//     fallback covers ACKs without an echo.
//   - Estimator (RFC 6298): SRTT and RTTVAR follow the standard EWMA
//     update (gains 1/8 and 1/4); RTO = SRTT + 4·RTTVAR, clamped to
//     [MinRTO, MaxRTO].
//   - A single retransmission timer (RFC 6298 §5) covers only the
//     oldest outstanding datagram and restarts whenever an ACK
//     acknowledges new data. On expiry just that datagram is resent
//     and the timer backs off exponentially (capped at MaxRTO), so a
//     dead path quiesces instead of storming and one lost datagram
//     never triggers a whole-window resend.
//   - Three duplicate cumulative ACKs trigger a fast retransmit of the
//     datagram the receiver is stalled on (once per hole), recovering
//     a single loss in roughly one RTT instead of a full RTO.
//   - ACKs carry a 64-bit selective-acknowledgment bitmap of the
//     out-of-order datagrams buffered beyond the cumulative ACK.
//     SACKed data is never retransmitted, and any datagram passed by a
//     SACKed later one for more than a smoothed RTT (a RACK-style
//     reordering guard) is repaired immediately — every hole in the
//     window recovers in one round trip rather than one hole per RTT.
//   - During a recovery episode, partial cumulative ACKs (RFC 6582,
//     NewReno) pinpoint the next hole, which is resent without waiting
//     for another dup-ACK burst or timeout.
//
// Setting Options.FixedRTO reverts to the pre-adaptive transport — a
// fixed per-datagram timer, no backoff, no fast retransmit, no SACK
// processing — as the A/B baseline for the loss soak benchmarks.
//
// Conn runs over any net.PacketConn: real UDP sockets in the demo
// binaries, or netsim's loss/delay/jitter/bandwidth emulator
// (netsim.Hub) in tests and harnesses.
package rudp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Protocol constants.
const (
	magicByte  = 0xB7
	typeData   = 1
	typeAck    = 2
	headerSize = 10 // magic, type, seq uint32, timestamp uint32

	// dupAckThreshold is the number of duplicate cumulative ACKs that
	// triggers a fast retransmit (TCP's classic threshold).
	dupAckThreshold = 3
)

// Errors.
var (
	ErrClosed      = errors.New("rudp: connection closed")
	ErrMsgTooLarge = errors.New("rudp: message exceeds limit")
	ErrTimeout     = errors.New("rudp: receive timeout")
)

// Options tunes a Conn.
type Options struct {
	// RTO is the initial retransmission timeout, used until the first
	// RTT sample arrives (and permanently when FixedRTO is set).
	RTO time.Duration
	// MinRTO / MaxRTO clamp the adaptive timeout. MaxRTO also caps the
	// exponential backoff.
	MinRTO time.Duration
	MaxRTO time.Duration
	// FixedRTO disables RTT estimation, exponential backoff, and fast
	// retransmit, retransmitting purely on the fixed RTO timer. It
	// exists as the baseline for transport A/B tests.
	FixedRTO bool
	// MaxPayload bounds one datagram's payload.
	MaxPayload int
	// Window bounds unacknowledged datagrams in flight.
	Window int
	// MaxMessage bounds one framed message.
	MaxMessage int
	// RecvQueue bounds complete messages queued for Recv. When the
	// application stops draining, further data datagrams are refused
	// before they mutate receive state — unACKed, so the peer's
	// retransmission redelivers them once the queue drains and its send
	// window throttles it meanwhile. Receive-side flow control, not
	// loss: nothing delivered is ever dropped.
	RecvQueue int
}

// DefaultOptions returns production defaults: a 20 ms initial RTO
// (LAN-scale, far below TCP's delayed-ACK floor the paper complains
// about) that adapts to the measured path, 1200-byte payloads (under
// typical WiFi MTU), and a 256-datagram window.
func DefaultOptions() Options {
	return Options{
		RTO:        20 * time.Millisecond,
		MinRTO:     5 * time.Millisecond,
		MaxRTO:     2 * time.Second,
		MaxPayload: 1200,
		Window:     256,
		MaxMessage: 64 << 20,
		RecvQueue:  256,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.RTO <= 0 {
		o.RTO = d.RTO
	}
	if o.MinRTO <= 0 {
		o.MinRTO = d.MinRTO
	}
	if o.MaxRTO <= 0 {
		o.MaxRTO = d.MaxRTO
	}
	if o.MaxRTO < o.MinRTO {
		o.MaxRTO = o.MinRTO
	}
	if o.MaxPayload <= 0 || o.MaxPayload > 60000 {
		o.MaxPayload = d.MaxPayload
	}
	if o.Window <= 0 {
		o.Window = d.Window
	}
	if o.MaxMessage <= 0 {
		o.MaxMessage = d.MaxMessage
	}
	if o.RecvQueue <= 0 {
		o.RecvQueue = d.RecvQueue
	}
	return o
}

// Stats counts transport activity and snapshots loss-recovery health.
type Stats struct {
	DataSent   int64
	DataResent int64
	AcksSent   int64
	BytesSent  int64
	MsgsSent   int64
	MsgsRecv   int64
	Duplicates int64
	OutOfOrder int64
	// FastResent / TimeoutResent split DataResent by trigger.
	FastResent    int64
	TimeoutResent int64
	// FramingErrors counts corrupt length prefixes that forced a stream
	// resync on the receive side.
	FramingErrors int64
	// StrayPackets counts datagrams dropped because their source
	// address did not match the registered peer. Without this check any
	// off-path datagram arriving on the socket would be processed as if
	// it came from the peer and could corrupt ACK/sequence state.
	StrayPackets int64
	// RecvQueueDrops counts data datagrams refused because the Recv
	// queue was full (Options.RecvQueue). Refused datagrams are not
	// ACKed, so the peer retransmits them — flow control pushing back
	// on a sender outpacing the application, not data loss.
	RecvQueueDrops int64

	// Gauges sampled at Stats() time.

	// SRTT / RTTVar / RTO are the estimator's current state. SRTT is
	// zero until the first RTT sample.
	SRTT   time.Duration
	RTTVar time.Duration
	RTO    time.Duration
	// MinSRTT is the lowest smoothed RTT observed over the connection's
	// lifetime — a baseline for congestion detection: SRTT well above
	// MinSRTT means queueing delay, not path length.
	MinSRTT time.Duration
	// WindowOccupancy is the number of datagrams currently in flight;
	// WindowLimit the configured cap.
	WindowOccupancy int
	WindowLimit     int
}

// ResendRate is the fraction of data transmissions that were
// retransmissions — the transport's loss-recovery overhead.
func (s Stats) ResendRate() float64 {
	total := s.DataSent + s.DataResent
	if total == 0 {
		return 0
	}
	return float64(s.DataResent) / float64(total)
}

// seqBefore reports whether a precedes b in uint32 serial-number
// arithmetic (RFC 1982), so comparisons survive sequence wraparound
// after 2^32 datagrams.
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

type pending struct {
	payload  []byte
	lastSent time.Time
	rtx      int // retransmission count (Karn's rule + backoff exponent)
}

// pktBufPool recycles full-datagram scratch buffers (header + payload)
// across connections. Resend and ACK paths build their packets here so
// no buffer built under c.mu is ever written to the socket while
// aliasing a pending whose storage a concurrent ACK may recycle.
var pktBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, headerSize+2048)
	return &b
}}

// appendPacket appends one wire datagram to dst.
func appendPacket(dst []byte, ptype byte, seq, ts uint32, payload []byte) []byte {
	dst = append(dst, magicByte, ptype)
	dst = binary.BigEndian.AppendUint32(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, ts)
	return append(dst, payload...)
}

// rsPkt is one retransmission staged under mu: the complete datagram
// bytes (pooled) plus the stats accounting to apply if the write lands.
type rsPkt struct {
	buf *[]byte
}

// IsProtocolDatagram reports whether b looks like a rudp wire datagram:
// a complete header carrying the protocol magic and a known packet
// type. Accept paths use it to avoid binding a session to the sender of
// a stray non-protocol datagram, and demultiplexers use it to gate
// session admission.
func IsProtocolDatagram(b []byte) bool {
	return len(b) >= headerSize && b[0] == magicByte &&
		(b[1] == typeData || b[1] == typeAck)
}

// Conn is one reliable, ordered message channel to a single peer.
type Conn struct {
	pc   net.PacketConn
	peer net.Addr
	opts Options

	// peerStr caches peer.String() for source-address validation in
	// readLoop, so the comparison fall-back allocates nothing per
	// datagram on the expected side.
	peerStr string
	// ownsSocket: Close closes pc. False in demuxed mode, where pc is a
	// listener shared by many connections and owned by the demultiplexer.
	ownsSocket bool
	// wheel, when non-nil, drives this connection's retransmission
	// timer instead of a dedicated retransmitLoop goroutine.
	wheel *Wheel

	// sendMu serializes whole-message framing: fragments of one Send
	// must occupy a contiguous run of the sequence space or the
	// receiver's length-prefixed stream is corrupted. frameBuf and
	// sendPkt are the send path's reusable scratch (guarded by sendMu),
	// so a steady stream of Sends allocates nothing.
	sendMu   sync.Mutex
	frameBuf []byte
	sendPkt  []byte

	mu       sync.Mutex
	sendSeq  uint32
	unacked  map[uint32]*pending
	pendFree []*pending // recycled pendings, buffers kept (guarded by mu)
	sendSlot *sync.Cond // signalled when window space frees

	// RFC 6298 estimator state.
	srtt    time.Duration
	rttvar  time.Duration
	rto     time.Duration
	minSRTT time.Duration // lowest srtt ever; congestion baseline
	rttInit bool

	// Fast-retransmit state: the last cumulative ACK seen, how many
	// exact duplicates of it arrived while data was outstanding, and
	// which hole was already fast-retransmitted (each hole is fast-
	// retransmitted at most once; a re-loss falls back to the RTO).
	lastAck      uint32
	dupAcks      int
	fastRtxSeq   uint32
	fastRtxValid bool

	// Single retransmission timer (RFC 6298 §5): it covers only the
	// oldest outstanding datagram and restarts whenever an ACK
	// acknowledges new data. Trailing in-flight datagrams — usually
	// already buffered at the receiver — are never individually timed
	// out, so one lost datagram can't trigger a whole-window resend.
	// Zero means unarmed. rtxBackoff is the live backoff exponent,
	// reset on ACK progress. (The FixedRTO baseline instead keeps the
	// legacy per-datagram timers.)
	timerDeadline time.Time
	rtxBackoff    int

	// NewReno-style recovery episode (RFC 6582): after any
	// retransmission, recoverSeq remembers the highest sequence
	// outstanding at that moment. Until the cumulative ACK passes it,
	// each "partial ACK" — one that advances but leaves older data
	// unacked — pinpoints the next hole, which is retransmitted
	// immediately rather than after another RTO. Multiple losses in
	// one window then repair at one hole per RTT.
	recoverSeq   uint32
	recoverValid bool

	recvNext uint32
	recvBuf  map[uint32][]byte
	// stream is the in-order reassembly buffer; streamOff is how much of
	// it extractMessagesLocked has already consumed. Keeping consumed
	// bytes in place (and compacting only when the dead prefix dominates)
	// lets the buffer's capacity be reused across messages instead of
	// re-allocated every time the slice header used to slide forward.
	stream    []byte
	streamOff int
	// msgFree recycles delivered message buffers returned via Release,
	// so a steady Recv→process→Release loop allocates nothing. Guarded
	// by mu; bounded by Options.RecvQueue.
	msgFree [][]byte

	// recvQ/recvHead queue complete messages for Recv (guarded by mu).
	// Delivery appends and never blocks — essential in demuxed mode,
	// where Inject runs on the shared demux goroutine and blocking it
	// would wedge every session on the listener. recvNotify (capacity 1)
	// wakes a parked Recv; a set flag covers any number of queued
	// messages. The queue is bounded by Options.RecvQueue via refusal in
	// handleData, not by blocking here.
	recvQ      [][]byte
	recvHead   int
	recvNotify chan struct{}

	// epoch anchors the 32-bit microsecond timestamps data packets
	// carry; ACKs echo the timestamp of the datagram that triggered
	// them, so RTT samples stay clean even when a cumulative ACK also
	// covers datagrams that sat blocked behind a loss.
	epoch time.Time

	stats Stats

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	closeErr  error
}

// New wraps pc into a reliable message channel to peer and starts the
// receive and retransmit loops. Close must be called to release them.
func New(pc net.PacketConn, peer net.Addr, opts Options) *Conn {
	c := newConn(pc, peer, opts)
	c.ownsSocket = true
	c.wg.Add(2)
	go c.readLoop()
	go c.retransmitLoop()
	return c
}

// NewDemuxed builds a connection in injection-driven mode for a shared
// listener: it runs NO goroutines of its own. Inbound datagrams arrive
// via Inject from the demultiplexer that owns pc (which MUST validate
// the source address before injecting — Inject trusts its caller), and
// the retransmission timer is driven by wheel. Close releases the
// connection's wheel slot but leaves pc open: the listener is shared
// by every session demuxed onto it.
func NewDemuxed(pc net.PacketConn, peer net.Addr, opts Options, wheel *Wheel) *Conn {
	c := newConn(pc, peer, opts)
	c.wheel = wheel
	return c
}

func newConn(pc net.PacketConn, peer net.Addr, opts Options) *Conn {
	c := &Conn{
		pc:      pc,
		peer:    peer,
		peerStr: peer.String(),
		opts:    opts.withDefaults(),
		unacked:    make(map[uint32]*pending),
		recvBuf:    make(map[uint32][]byte),
		epoch:      time.Now(),
		recvNotify: make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	c.rto = c.opts.RTO
	c.sendSlot = sync.NewCond(&c.mu)
	return c
}

// Close shuts the connection down and waits for its goroutines. A
// connection that owns its socket (New) closes the underlying
// PacketConn too; a demuxed connection leaves the shared listener open
// and deregisters from its timer wheel instead.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		close(c.done)
		if c.ownsSocket {
			c.closeErr = c.pc.Close()
		}
		if c.wheel != nil {
			c.wheel.remove(c)
		}
		c.mu.Lock()
		c.sendSlot.Broadcast()
		c.mu.Unlock()
		c.wg.Wait()
	})
	return c.closeErr
}

// Stats returns a snapshot of transport counters and health gauges.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.SRTT = c.srtt
	st.RTTVar = c.rttvar
	st.RTO = c.currentRTOLocked()
	st.MinSRTT = c.minSRTT
	st.WindowOccupancy = len(c.unacked)
	st.WindowLimit = c.opts.Window
	return st
}

// currentRTOLocked returns the effective base RTO. Caller holds mu.
func (c *Conn) currentRTOLocked() time.Duration {
	if c.opts.FixedRTO || !c.rttInit {
		return c.opts.RTO
	}
	return c.rto
}

// Send frames msg (uvarint length prefix) and ships it reliably. It
// blocks while the send window is full. Concurrent Sends are safe: each
// message's fragments occupy a contiguous sequence range. msg is fully
// copied (into the framing scratch and the per-datagram retransmit
// buffers) before Send returns, so the caller may reuse it immediately.
func (c *Conn) Send(msg []byte) error {
	if len(msg) > c.opts.MaxMessage {
		return fmt.Errorf("%w: %d bytes", ErrMsgTooLarge, len(msg))
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	framed := binary.AppendUvarint(c.frameBuf[:0], uint64(len(msg)))
	framed = append(framed, msg...)
	c.frameBuf = framed
	for off := 0; off < len(framed); off += c.opts.MaxPayload {
		end := off + c.opts.MaxPayload
		if end > len(framed) {
			end = len(framed)
		}
		if err := c.sendDatagram(framed[off:end]); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.stats.MsgsSent++
	c.mu.Unlock()
	return nil
}

// getPendingLocked / putPendingLocked recycle retransmit-window slots
// and their payload buffers. Caller holds mu.
func (c *Conn) getPendingLocked() *pending {
	if n := len(c.pendFree); n > 0 {
		p := c.pendFree[n-1]
		c.pendFree = c.pendFree[:n-1]
		return p
	}
	return &pending{}
}

func (c *Conn) putPendingLocked(p *pending) {
	p.payload = p.payload[:0]
	p.rtx = 0
	c.pendFree = append(c.pendFree, p)
}

func (c *Conn) sendDatagram(payload []byte) error {
	c.mu.Lock()
	for len(c.unacked) >= c.opts.Window {
		if c.isClosed() {
			c.mu.Unlock()
			return ErrClosed
		}
		c.sendSlot.Wait()
	}
	if c.isClosed() {
		c.mu.Unlock()
		return ErrClosed
	}
	seq := c.sendSeq
	c.sendSeq++
	now := time.Now()
	// The transport's own copy of the payload: rudp retains it only
	// while the datagram sits in the retransmit window, and the buffer
	// is recycled once the ACK covers it.
	p := c.getPendingLocked()
	p.payload = append(p.payload[:0], payload...)
	p.lastSent = now
	c.unacked[seq] = p
	var armed time.Time
	if c.timerDeadline.IsZero() {
		c.timerDeadline = now.Add(c.backoffRTOLocked(c.rtxBackoff))
		armed = c.timerDeadline
	}
	c.mu.Unlock()
	if c.wheel != nil && !armed.IsZero() {
		c.wheel.schedule(c, armed)
	}

	// sendDatagram runs only under sendMu (from Send), so the packet
	// scratch is race-free without holding mu across the socket write.
	c.sendPkt = appendPacket(c.sendPkt[:0], typeData, seq, c.nowTS(), payload)
	if _, err := c.pc.WriteTo(c.sendPkt, c.peer); err != nil && !c.isClosed() {
		return fmt.Errorf("rudp: write: %w", err)
	}
	c.mu.Lock()
	c.stats.DataSent++
	c.stats.BytesSent += int64(headerSize + len(payload))
	c.mu.Unlock()
	return nil
}

// nowTS returns the connection's 32-bit microsecond clock. Wraparound
// (~71 min) is harmless: samples are uint32 differences.
func (c *Conn) nowTS() uint32 {
	return uint32(time.Since(c.epoch) / time.Microsecond)
}

// writePacket builds and writes one datagram through the shared buffer
// pool. Callers on the data hot path (sendDatagram) use their own
// scratch instead; this covers the ACK and accept paths. Every in-tree
// PacketConn copies the buffer before WriteTo returns, which is what
// makes recycling it immediately safe.
func (c *Conn) writePacket(ptype byte, seq, ts uint32, payload []byte) error {
	bp := pktBufPool.Get().(*[]byte)
	buf := appendPacket((*bp)[:0], ptype, seq, ts, payload)
	_, err := c.pc.WriteTo(buf, c.peer)
	*bp = buf[:0]
	pktBufPool.Put(bp)
	if err != nil && !c.isClosed() {
		return fmt.Errorf("rudp: write: %w", err)
	}
	return nil
}

func (c *Conn) isClosed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Recv returns the next complete message, blocking up to timeout
// (zero means block until close). After Close, queued messages drain
// before ErrClosed is reported.
func (c *Conn) Recv(timeout time.Duration) ([]byte, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	for {
		c.mu.Lock()
		msg, ok := c.popRecvLocked()
		more := c.recvHead < len(c.recvQ)
		c.mu.Unlock()
		if ok {
			if more {
				// Re-set the notify flag for any other waiter: one
				// token covers a whole burst of queued messages.
				select {
				case c.recvNotify <- struct{}{}:
				default:
				}
			}
			return msg, nil
		}
		select {
		case <-c.recvNotify:
		case <-timer:
			return nil, ErrTimeout
		case <-c.done:
			// Drain anything already queued before reporting closure.
			c.mu.Lock()
			msg, ok := c.popRecvLocked()
			c.mu.Unlock()
			if ok {
				return msg, nil
			}
			return nil, ErrClosed
		}
	}
}

// popRecvLocked removes and returns the oldest queued message. The
// head index walks the slice so steady-state pops allocate nothing;
// the backing array is reclaimed each time the queue drains. Caller
// holds mu.
func (c *Conn) popRecvLocked() ([]byte, bool) {
	if c.recvHead >= len(c.recvQ) {
		return nil, false
	}
	msg := c.recvQ[c.recvHead]
	c.recvQ[c.recvHead] = nil
	c.recvHead++
	if c.recvHead == len(c.recvQ) {
		c.recvQ = c.recvQ[:0]
		c.recvHead = 0
	}
	return msg, true
}

func (c *Conn) readLoop() {
	defer c.wg.Done()
	buf := make([]byte, 65536)
	for !c.isClosed() {
		_ = c.pc.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, from, err := c.pc.ReadFrom(buf)
		if err != nil {
			if isTimeout(err) {
				continue
			}
			return // closed or fatal
		}
		// The socket is unconnected: any host can land a datagram on
		// it. Processing one from the wrong source as if it came from
		// the peer would corrupt ACK and sequence state, so validate
		// before parsing.
		if from != nil && !addrEqual(from, c.peer, c.peerStr) {
			c.mu.Lock()
			c.stats.StrayPackets++
			c.mu.Unlock()
			continue
		}
		c.Inject(buf[:n])
	}
}

// addrEqual reports whether from is the registered peer. The typed
// *net.UDPAddr comparison avoids the per-datagram allocation that
// from.String() would cost on the hot read path; peerStr covers
// mixed-type pairs (e.g. a simulator address vs. a real one).
func addrEqual(from, peer net.Addr, peerStr string) bool {
	if from == peer {
		return true
	}
	fu, fok := from.(*net.UDPAddr)
	pu, pok := peer.(*net.UDPAddr)
	if fok && pok {
		return fu.Port == pu.Port && fu.IP.Equal(pu.IP) && fu.Zone == pu.Zone
	}
	return from.String() == peerStr
}

// Inject processes one raw datagram as if it had arrived on the socket.
// It lets an accept path that had to peek the first datagram (to learn
// the peer address) hand that datagram to the connection instead of
// dropping it and forcing the peer into an immediate retransmit, and is
// how a demultiplexer drives a NewDemuxed conn. Inject never blocks on
// the application: a data datagram the Recv queue can't absorb is
// refused (unACKed, so the peer retransmits it), which is what lets a
// single demux goroutine safely serve many sessions.
func (c *Conn) Inject(pkt []byte) {
	if len(pkt) < headerSize || pkt[0] != magicByte {
		return
	}
	seq := binary.BigEndian.Uint32(pkt[2:6])
	ts := binary.BigEndian.Uint32(pkt[6:10])
	switch pkt[1] {
	case typeData:
		c.handleData(seq, ts, pkt[headerSize:])
	case typeAck:
		var sack uint64
		if len(pkt) >= headerSize+8 {
			sack = binary.BigEndian.Uint64(pkt[headerSize:])
		}
		c.handleAck(seq, ts, sack)
	}
}

func (c *Conn) handleData(seq, ts uint32, payload []byte) {
	c.mu.Lock()
	// Receive-side flow control: when the application isn't draining
	// Recv, refuse new data before it mutates receive state. The
	// datagram is not ACKed, so the peer's retransmission redelivers it
	// once the queue drains, and the peer's send window throttles it
	// meanwhile — whereas queueing without bound would OOM and blocking
	// would wedge the caller (in demuxed mode that caller is the shared
	// demux goroutine, and one slow session would freeze the whole
	// fleet). Datagrams below recvNext still flow: they only re-ACK
	// delivered data.
	if len(c.recvQ)-c.recvHead >= c.opts.RecvQueue && !seqBefore(seq, c.recvNext) {
		c.stats.RecvQueueDrops++
		c.mu.Unlock()
		return
	}
	switch {
	case seqBefore(seq, c.recvNext):
		c.stats.Duplicates++
	case seq == c.recvNext:
		c.stream = append(c.stream, payload...)
		c.recvNext++
		for {
			next, ok := c.recvBuf[c.recvNext]
			if !ok {
				break
			}
			delete(c.recvBuf, c.recvNext)
			c.stream = append(c.stream, next...)
			c.recvNext++
		}
	default:
		if _, dup := c.recvBuf[seq]; dup {
			c.stats.Duplicates++
		} else {
			c.recvBuf[seq] = append([]byte(nil), payload...)
			c.stats.OutOfOrder++
		}
	}
	ackSeq := c.recvNext // cumulative: everything below is delivered
	// SACK bitmap: bit i set means datagram ackSeq+1+i is held in the
	// out-of-order buffer. The sender uses it to skip retransmitting
	// data the receiver already has and to repair every hole in the
	// window at once instead of one per round trip.
	var sack uint64
	for i := uint32(0); i < 64; i++ {
		if _, ok := c.recvBuf[ackSeq+1+i]; ok {
			sack |= 1 << i
		}
	}
	queued := c.extractMessagesLocked()
	c.mu.Unlock()
	if queued > 0 {
		// Non-blocking wake of a parked Recv; a set flag already covers
		// these messages.
		select {
		case c.recvNotify <- struct{}{}:
		default:
		}
	}

	var sackPayload []byte
	if sack != 0 {
		sackPayload = make([]byte, 8)
		binary.BigEndian.PutUint64(sackPayload, sack)
	}
	// The ACK echoes the triggering datagram's timestamp so the sender
	// can take an unambiguous RTT sample (retransmitted or not).
	if c.writePacket(typeAck, ackSeq, ts, sackPayload) == nil {
		c.mu.Lock()
		c.stats.AcksSent++
		c.mu.Unlock()
	}
}

// extractMessagesLocked parses complete length-prefixed messages from
// the assembled stream onto the Recv queue, returning how many were
// queued. On a corrupt prefix (overlong varint or a length beyond
// MaxMessage) it drops the buffered stream to resync rather than
// allocate unboundedly. Message buffers come from the Release free
// list when available, so a draining application makes delivery
// allocation-free. Caller holds mu.
func (c *Conn) extractMessagesLocked() int {
	queued := 0
	for {
		tail := c.stream[c.streamOff:]
		msgLen, n := binary.Uvarint(tail)
		if n == 0 {
			break // need more bytes for the prefix itself
		}
		if n < 0 || msgLen > uint64(c.opts.MaxMessage) {
			// Corrupt framing. Checked before the completeness test so a
			// poisoned prefix can't make the stream grow toward a bogus
			// multi-gigabyte length.
			c.stream = c.stream[:0]
			c.streamOff = 0
			c.stats.FramingErrors++
			break
		}
		if uint64(len(tail)-n) < msgLen {
			break // message body still in flight
		}
		msg := c.getMsgBufLocked()
		msg = append(msg, tail[n:n+int(msgLen)]...)
		c.streamOff += n + int(msgLen)
		c.recvQ = append(c.recvQ, msg)
		queued++
		c.stats.MsgsRecv++
	}
	switch {
	case c.streamOff == len(c.stream):
		// Fully consumed: rewind, keeping the capacity.
		c.stream = c.stream[:0]
		c.streamOff = 0
	case c.streamOff > 4096 && c.streamOff > len(c.stream)/2:
		// A partial message tail sits behind a large dead prefix; compact
		// so the buffer doesn't grow by the consumed bytes forever.
		n := copy(c.stream, c.stream[c.streamOff:])
		c.stream = c.stream[:n]
		c.streamOff = 0
	}
	return queued
}

// getMsgBufLocked pops a recycled message buffer (length zero, capacity
// warm) or returns nil, letting append allocate the first time around.
// Caller holds mu.
func (c *Conn) getMsgBufLocked() []byte {
	if n := len(c.msgFree); n > 0 {
		msg := c.msgFree[n-1]
		c.msgFree[n-1] = nil
		c.msgFree = c.msgFree[:n-1]
		return msg
	}
	return nil
}

// Release hands a message obtained from Recv back to the connection for
// reuse by future deliveries. Optional — unreleased messages are simply
// garbage collected — but a Recv→process→Release loop keeps the receive
// path allocation-free in steady state. The caller must not touch msg
// after Release.
func (c *Conn) Release(msg []byte) {
	if cap(msg) == 0 {
		return
	}
	c.mu.Lock()
	if len(c.msgFree) < c.opts.RecvQueue {
		c.msgFree = append(c.msgFree, msg[:0])
	}
	c.mu.Unlock()
}

func (c *Conn) handleAck(ackSeq, echo uint32, sack uint64) {
	now := time.Now()
	// Retransmissions are staged as complete pooled datagrams while mu
	// is held, then written after it is released: a packet built under
	// the lock can never alias a pending whose payload buffer another
	// ACK recycles mid-write.
	var resends []rsPkt

	c.mu.Lock()
	advanced := false
	var sample time.Duration
	var sampleSeq uint32
	haveSample := false
	for seq, p := range c.unacked {
		if !seqBefore(seq, ackSeq) {
			continue
		}
		// Karn-filtered fallback sample: only never-retransmitted
		// datagrams are unambiguous; take the newest one covered.
		if p.rtx == 0 && (!haveSample || seqBefore(sampleSeq, seq)) {
			sample = now.Sub(p.lastSent)
			sampleSeq = seq
			haveSample = true
		}
		delete(c.unacked, seq)
		c.putPendingLocked(p)
		advanced = true
	}
	// Selective acknowledgments: drop SACKed datagrams from the
	// retransmission scoreboard — the receiver holds them buffered, so
	// resending is pure waste — and remember the highest one, which
	// bounds the region where holes can be declared lost.
	var sackTop uint32
	haveSack := false
	freedBySack := false
	for i := uint32(0); i < 64; i++ {
		if sack&(1<<i) == 0 {
			continue
		}
		s := ackSeq + 1 + i
		if p, ok := c.unacked[s]; ok {
			delete(c.unacked, s)
			c.putPendingLocked(p)
			freedBySack = true
		}
		sackTop = s
		haveSack = true
	}
	if haveSack && !c.opts.FixedRTO {
		// RACK-style repair: anything still unacked below the highest
		// SACKed datagram was passed by later data. If it has also been
		// outstanding for about an RTT (guarding against plain
		// reordering), declare it lost and resend every such hole now —
		// the whole window repairs in one round trip instead of one
		// hole per RTT.
		guard := c.lossGuardLocked()
		for seq, p := range c.unacked {
			if seqBefore(seq, sackTop) && now.Sub(p.lastSent) >= guard {
				p.lastSent = now
				p.rtx++
				resends = append(resends, c.stagePacketLocked(seq, p.payload))
			}
		}
		if len(resends) > 0 {
			c.timerDeadline = now.Add(c.backoffRTOLocked(c.rtxBackoff))
			c.recoverSeq = c.sendSeq
			c.recoverValid = true
		}
	}
	if freedBySack {
		c.sendSlot.Broadcast()
	}
	switch {
	case advanced:
		if !c.opts.FixedRTO {
			// Prefer the echoed timestamp: it names the exact datagram
			// copy that triggered this ACK, so the sample excludes
			// head-of-line blocking behind a loss and stays valid even
			// for retransmissions (subsuming Karn's rule). The raw
			// send-time fallback covers a zero echo.
			if us := c.nowTS() - echo; echo != 0 && us < 1<<31 {
				c.updateRTTLocked(time.Duration(us) * time.Microsecond)
			} else if haveSample {
				c.updateRTTLocked(sample)
			}
		}
		c.lastAck = ackSeq
		c.dupAcks = 0
		c.rtxBackoff = 0
		if len(c.unacked) == 0 {
			c.timerDeadline = time.Time{}
			c.recoverValid = false
		} else {
			c.timerDeadline = now.Add(c.backoffRTOLocked(0))
			if c.recoverValid && !c.opts.FixedRTO {
				if !seqBefore(ackSeq, c.recoverSeq) {
					// The episode's last outstanding datagram is acked;
					// recovery is over.
					c.recoverValid = false
				} else if p, ok := c.unacked[ackSeq]; ok && now.Sub(p.lastSent) >= c.lossGuardLocked()/2 {
					// Partial ACK: the receiver is now stalled on the
					// next hole, and that datagram predates the episode
					// — over an RTT old and almost certainly lost. (The
					// time guard avoids double-sending a hole the SACK
					// repair above just covered.)
					p.lastSent = now
					p.rtx++
					resends = append(resends, c.stagePacketLocked(ackSeq, p.payload))
					c.timerDeadline = now.Add(c.backoffRTOLocked(0))
				}
			}
		}
		c.sendSlot.Broadcast()
	case ackSeq == c.lastAck && len(c.unacked) > 0 && !c.opts.FixedRTO:
		c.dupAcks++
		if c.dupAcks >= dupAckThreshold && (!c.fastRtxValid || c.fastRtxSeq != ackSeq) {
			c.dupAcks = 0
			c.fastRtxSeq = ackSeq
			c.fastRtxValid = true
			// The receiver is stalled on exactly ackSeq; resend it now
			// instead of waiting out the RTO.
			if p, ok := c.unacked[ackSeq]; ok && now.Sub(p.lastSent) >= c.lossGuardLocked()/2 {
				p.lastSent = now
				p.rtx++
				resends = append(resends, c.stagePacketLocked(ackSeq, p.payload))
				// Push the RTO timer out so it doesn't immediately
				// re-retransmit the datagram we just resent, and open
				// a recovery episode covering everything in flight.
				c.timerDeadline = now.Add(c.backoffRTOLocked(c.rtxBackoff))
				c.recoverSeq = c.sendSeq
				c.recoverValid = true
			}
		}
	}
	wheelDeadline := c.timerDeadline
	c.mu.Unlock()
	if c.wheel != nil && !wheelDeadline.IsZero() {
		// Earliest-wins scheduling makes a later deadline a no-op and a
		// cleared timer need nothing: a stale wheel entry fires, sees no
		// expired work, and drops out on its own.
		c.wheel.schedule(c, wheelDeadline)
	}

	okCount, okBytes := c.writeStaged(resends)
	if okCount > 0 {
		c.mu.Lock()
		c.stats.DataResent += okCount
		c.stats.FastResent += okCount
		c.stats.BytesSent += okBytes
		c.mu.Unlock()
	}
}

// stagePacketLocked copies one retransmission into a pooled datagram
// buffer. Caller holds mu.
func (c *Conn) stagePacketLocked(seq uint32, payload []byte) rsPkt {
	bp := pktBufPool.Get().(*[]byte)
	*bp = appendPacket((*bp)[:0], typeData, seq, c.nowTS(), payload)
	return rsPkt{buf: bp}
}

// writeStaged writes staged retransmissions to the socket (outside any
// lock) and recycles their buffers, returning the datagrams and bytes
// that landed.
func (c *Conn) writeStaged(pkts []rsPkt) (okCount, okBytes int64) {
	for _, r := range pkts {
		if _, err := c.pc.WriteTo(*r.buf, c.peer); err == nil || c.isClosed() {
			okCount++
			okBytes += int64(len(*r.buf))
		}
		*r.buf = (*r.buf)[:0]
		pktBufPool.Put(r.buf)
	}
	return okCount, okBytes
}

// lossGuardLocked is the RACK-style reordering guard: a datagram
// passed by a SACKed later datagram is declared lost only once it has
// been outstanding for roughly a smoothed RTT plus jitter headroom,
// so plain reordering doesn't trigger spurious repair. Caller holds mu.
func (c *Conn) lossGuardLocked() time.Duration {
	g := c.srtt + 2*c.rttvar
	if g <= 0 {
		g = c.currentRTOLocked() / 2
	}
	return g
}

// updateRTTLocked feeds one RTT sample into the RFC 6298 estimator.
// Caller holds mu.
func (c *Conn) updateRTTLocked(sample time.Duration) {
	if sample <= 0 {
		sample = time.Microsecond
	}
	if !c.rttInit {
		c.srtt = sample
		c.rttvar = sample / 2
		c.rttInit = true
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	if c.minSRTT == 0 || c.srtt < c.minSRTT {
		c.minSRTT = c.srtt
	}
	rto := c.srtt + 4*c.rttvar
	if rto < c.opts.MinRTO {
		rto = c.opts.MinRTO
	}
	if rto > c.opts.MaxRTO {
		rto = c.opts.MaxRTO
	}
	c.rto = rto
}

// backoffRTOLocked returns the retransmission deadline interval for a
// datagram already retransmitted rtx times. Caller holds mu.
func (c *Conn) backoffRTOLocked(rtx int) time.Duration {
	rto := c.currentRTOLocked()
	if c.opts.FixedRTO {
		return rto // the legacy baseline never backs off
	}
	for i := 0; i < rtx && rto < c.opts.MaxRTO; i++ {
		rto *= 2
	}
	if rto > c.opts.MaxRTO {
		rto = c.opts.MaxRTO
	}
	return rto
}

// timerCheck is the wheel-driven equivalent of one retransmitLoop
// iteration: run any expired retransmission work and report when the
// wheel should next check this connection. A zero return means no timer
// is armed (nothing in flight, or the connection closed) and the wheel
// forgets the connection until a send re-arms it.
func (c *Conn) timerCheck(now time.Time) time.Time {
	if c.isClosed() {
		return time.Time{}
	}
	if c.opts.FixedRTO {
		// Legacy baseline: per-datagram fixed timers have no single
		// deadline to chase, so poll at RTO/4 while data is in flight,
		// exactly like the ticker it replaces.
		c.retransmitDueFixed()
		c.mu.Lock()
		inflight := len(c.unacked) > 0
		c.mu.Unlock()
		if !inflight {
			return time.Time{}
		}
		return now.Add(c.opts.RTO / 4)
	}
	c.retransmitOldestExpired()
	c.mu.Lock()
	next := c.timerDeadline
	c.mu.Unlock()
	return next
}

func (c *Conn) retransmitLoop() {
	defer c.wg.Done()
	// The tick only bounds how promptly an expiry is noticed; each
	// datagram's own deadline decides whether it is resent.
	interval := c.opts.MinRTO / 4
	if c.opts.FixedRTO {
		interval = c.opts.RTO / 4
	}
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
		}
		if c.opts.FixedRTO {
			c.retransmitDueFixed()
			continue
		}
		c.retransmitOldestExpired()
	}
}

// retransmitDueFixed is the legacy per-datagram timer: every unacked
// datagram whose fixed RTO has elapsed is resent. Kept as the
// FixedRTO baseline the adaptive transport is measured against.
func (c *Conn) retransmitDueFixed() {
	now := time.Now()
	var due []rsPkt
	c.mu.Lock()
	for seq, p := range c.unacked {
		if now.Sub(p.lastSent) >= c.backoffRTOLocked(p.rtx) {
			p.lastSent = now
			p.rtx++
			due = append(due, c.stagePacketLocked(seq, p.payload))
		}
	}
	c.mu.Unlock()
	okCount, okBytes := c.writeStaged(due)
	if okCount > 0 {
		c.mu.Lock()
		c.stats.DataResent += okCount
		c.stats.TimeoutResent += okCount
		c.stats.BytesSent += okBytes
		c.mu.Unlock()
	}
}

// retransmitOldestExpired implements the RFC 6298 §5 single-timer
// discipline: on expiry, resend only the oldest outstanding datagram,
// back the timer off exponentially, and rearm. Trailing in-flight
// datagrams are left alone — with cumulative ACKs they are almost
// always already buffered at the receiver, and resending them is what
// made per-datagram timers collapse into whole-window resend storms.
func (c *Conn) retransmitOldestExpired() {
	now := time.Now()
	c.mu.Lock()
	if c.timerDeadline.IsZero() || now.Before(c.timerDeadline) || len(c.unacked) == 0 {
		c.mu.Unlock()
		return
	}
	var oldest uint32
	first := true
	for seq := range c.unacked {
		if first || seqBefore(seq, oldest) {
			oldest = seq
			first = false
		}
	}
	p := c.unacked[oldest]
	p.lastSent = now
	p.rtx++
	if c.rtxBackoff < 16 {
		c.rtxBackoff++
	}
	c.timerDeadline = now.Add(c.backoffRTOLocked(c.rtxBackoff))
	c.recoverSeq = c.sendSeq
	c.recoverValid = true
	staged := c.stagePacketLocked(oldest, p.payload)
	c.mu.Unlock()
	if okCount, okBytes := c.writeStaged([]rsPkt{staged}); okCount > 0 {
		c.mu.Lock()
		c.stats.DataResent += okCount
		c.stats.TimeoutResent += okCount
		c.stats.BytesSent += okBytes
		c.mu.Unlock()
	}
}

func isTimeout(err error) bool {
	// Direct assertion first: errors.As takes the target's address and
	// costs an allocation per call, which the 20Hz-per-connection read
	// poll turns into measurable garbage at fleet scale.
	if ne, ok := err.(net.Error); ok {
		return ne.Timeout()
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Group fans one message out to several connections — the stand-in for
// the UDP multicast the paper uses to replicate state-mutating
// commands to every service device with one logical transmission
// (§VI-B). SendAll returns the first error encountered but attempts
// every member.
type Group struct {
	conns []*Conn
}

// NewGroup builds a multicast group over the given connections.
func NewGroup(conns ...*Conn) *Group {
	return &Group{conns: append([]*Conn(nil), conns...)}
}

// Len returns group size.
func (g *Group) Len() int { return len(g.conns) }

// SendAll delivers msg to every member.
func (g *Group) SendAll(msg []byte) error {
	var firstErr error
	for _, c := range g.conns {
		if err := c.Send(msg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
