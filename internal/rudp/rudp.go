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
//     SACKed later one for more than SRTT + 2·RTTVAR (a RACK-style
//     reordering guard) is repaired immediately, oldest hole first —
//     every hole in the window recovers in one round trip rather than
//     one hole per RTT.
//   - During a recovery episode, partial cumulative ACKs (RFC 6582,
//     NewReno) pinpoint the next hole, which is resent without waiting
//     for another dup-ACK burst or timeout.
//
// Every Conn is driven the same way: datagrams arrive through Inject and
// the retransmission timer runs on a Wheel, both stamped by the wheel's
// clock. New adds a read goroutine and a private wheel; NewDemuxed
// leaves both to a demultiplexer that serves many conns. Conn runs over
// any net.PacketConn: real UDP sockets in the demo binaries, or netsim's
// loss/delay/jitter/bandwidth emulator (netsim.Hub) in tests and
// harnesses.
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

	// sackReach is how many datagrams past the cumulative ACK the SACK
	// bitmap covers.
	sackReach = 64
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
	// RTT sample arrives.
	RTO time.Duration
	// MinRTO / MaxRTO clamp the adaptive timeout. MaxRTO also caps the
	// exponential backoff.
	MinRTO time.Duration
	MaxRTO time.Duration
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
	// FastResent is the sum of the three fast paths below it.
	FastResent    int64
	TimeoutResent int64
	// SackResent counts holes repaired because a SACKed later datagram
	// passed them; PartialAckResent the next hole named by a partial ACK
	// during a recovery episode; DupAckResent the head hole resent after
	// three duplicate ACKs.
	SackResent       int64
	PartialAckResent int64
	DupAckResent     int64
	// FramingErrors counts corrupt length prefixes that forced a stream
	// resync on the receive side.
	FramingErrors int64
	// StrayPackets counts datagrams dropped because their source
	// address did not match the registered peer. Without this check any
	// off-path datagram arriving on the socket would be processed as if
	// it came from the peer and could corrupt ACK/sequence state.
	StrayPackets int64
	// RecvQueueDrops counts data datagrams refused because the Recv
	// queue was full (Options.RecvQueue) or the out-of-order buffer
	// held Window + 64 datagrams. Refused datagrams are not ACKed, so
	// the peer retransmits them — flow control pushing back on a sender
	// outpacing the application, not data loss.
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
// bytes (pooled) plus the Stats counter its trigger bumps if the write
// lands.
type rsPkt struct {
	buf   *[]byte
	cause *int64
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
	// owned: Close closes pc and wheel (New). False in demuxed mode,
	// where both are shared by many connections and owned by the
	// demultiplexer.
	owned bool
	// wheel drives this connection's retransmission timer.
	wheel *Wheel
	// now is the connection's clock, its wheel's: every send stamp,
	// RTT sample and timer deadline reads it.
	now func() time.Time

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

	// RFC 6298 estimator state. rto starts at Options.RTO and tracks
	// the estimator once the first sample arrives.
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
	// reset on ACK progress.
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

// New wraps pc into a reliable message channel to peer. The connection
// owns pc and a private one-slot Wheel: a readLoop goroutine blocks in
// ReadFrom and Injects each datagram from peer, and the wheel's
// goroutine drives the retransmission timer. Close must be called to
// release both; it closes pc, which is what unblocks the read, so pc
// must carry no read deadline.
func New(pc net.PacketConn, peer net.Addr, opts Options) *Conn {
	c := NewDemuxed(pc, peer, opts, NewWheel(1))
	c.owned = true
	c.wg.Add(1)
	go c.readLoop()
	return c
}

// NewDemuxed builds a connection in injection-driven mode for a shared
// listener: it runs NO goroutines of its own. Inbound datagrams arrive
// via Inject from the demultiplexer that owns pc (which MUST validate
// the source address before injecting — Inject trusts its caller), and
// the retransmission timer is driven by wheel, whose clock the
// connection reads. Close releases the connection's wheel slot but
// leaves pc and wheel running: both are shared by every session
// demuxed onto them.
func NewDemuxed(pc net.PacketConn, peer net.Addr, opts Options, wheel *Wheel) *Conn {
	c := &Conn{
		pc:         pc,
		peer:       peer,
		peerStr:    peer.String(),
		opts:       opts.withDefaults(),
		wheel:      wheel,
		now:        wheel.now,
		unacked:    make(map[uint32]*pending),
		recvBuf:    make(map[uint32][]byte),
		recvNotify: make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	c.epoch = c.now()
	c.rto = c.opts.RTO
	c.sendSlot = sync.NewCond(&c.mu)
	return c
}

// Close shuts the connection down and waits for its goroutines. A
// connection from New closes its PacketConn and its private wheel too;
// a demuxed connection leaves the shared listener and wheel running
// and only gives up its wheel slot.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		close(c.done)
		c.wheel.remove(c)
		if c.owned {
			c.closeErr = c.pc.Close()
			c.wheel.Close()
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
	st.FastResent = st.SackResent + st.PartialAckResent + st.DupAckResent
	st.SRTT = c.srtt
	st.RTTVar = c.rttvar
	st.RTO = c.rto
	st.MinSRTT = c.minSRTT
	st.WindowOccupancy = len(c.unacked)
	st.WindowLimit = c.opts.Window
	return st
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
	now := c.now()
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
	if !armed.IsZero() {
		c.wheel.schedule(c, armed)
	}

	// sendDatagram runs only under sendMu (from Send), so the packet
	// scratch is race-free without holding mu across the socket write.
	c.sendPkt = appendPacket(c.sendPkt[:0], typeData, seq, c.stamp(now), payload)
	if _, err := c.pc.WriteTo(c.sendPkt, c.peer); err != nil && !c.isClosed() {
		return fmt.Errorf("rudp: write: %w", err)
	}
	c.mu.Lock()
	c.stats.DataSent++
	c.stats.BytesSent += int64(headerSize + len(payload))
	c.mu.Unlock()
	return nil
}

// stamp converts an instant on the connection's clock to the 32-bit
// microsecond timestamp datagrams carry. Wraparound (~71 min) is
// harmless: samples are uint32 differences.
func (c *Conn) stamp(t time.Time) uint32 {
	return uint32(t.Sub(c.epoch) / time.Microsecond)
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

// readLoop is New's demultiplexer for one peer: it blocks in ReadFrom
// until Close closes the socket.
func (c *Conn) readLoop() {
	defer c.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, from, err := c.pc.ReadFrom(buf)
		if err != nil {
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
			break
		}
		// An honest peer with the same Window has at most Window
		// datagrams un-SACKed plus sackReach SACKed ones still buffered
		// here; anything beyond that is refused like a full Recv queue
		// instead of buffered without bound.
		if len(c.recvBuf) >= c.opts.Window+sackReach {
			c.stats.RecvQueueDrops++
			c.mu.Unlock()
			return
		}
		c.recvBuf[seq] = append([]byte(nil), payload...)
		c.stats.OutOfOrder++
	}
	ackSeq := c.recvNext // cumulative: everything below is delivered
	// SACK bitmap: bit i set means datagram ackSeq+1+i is held in the
	// out-of-order buffer. The sender uses it to skip retransmitting
	// data the receiver already has and to repair every hole in the
	// window at once instead of one per round trip.
	var sack uint64
	for i := uint32(0); i < sackReach; i++ {
		if _, ok := c.recvBuf[ackSeq+1+i]; ok {
			sack |= 1 << i
		}
	}
	queued := c.extractMessagesLocked()
	// Count the ACK while the messages it covers become visible, so a
	// Recv that returns them also sees it in Stats; a failed write
	// takes the count back below.
	c.stats.AcksSent++
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
	if c.writePacket(typeAck, ackSeq, ts, sackPayload) != nil {
		c.mu.Lock()
		c.stats.AcksSent--
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
	now := c.now()
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
	for i := uint32(0); i < sackReach; i++ {
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
	if haveSack {
		// RACK-style repair: anything still unacked below the highest
		// SACKed datagram was passed by later data. If it has also been
		// outstanding for about an RTT (guarding against plain
		// reordering), declare it lost and resend every such hole now —
		// the whole window repairs in one round trip instead of one
		// hole per RTT. The walk goes in sequence order, so holes go
		// out oldest first and the write order is reproducible.
		guard := c.lossGuardLocked()
		for seq := ackSeq; seqBefore(seq, sackTop); seq++ {
			if p, ok := c.unacked[seq]; ok && now.Sub(p.lastSent) >= guard {
				resends = append(resends, c.resendLocked(seq, p, now, &c.stats.SackResent))
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
		// Prefer the echoed timestamp: it names the exact datagram copy
		// that triggered this ACK, so the sample excludes head-of-line
		// blocking behind a loss and stays valid even for
		// retransmissions (subsuming Karn's rule). The raw send-time
		// fallback covers a zero echo.
		if us := c.stamp(now) - echo; echo != 0 && us < 1<<31 {
			c.updateRTTLocked(time.Duration(us) * time.Microsecond)
		} else if haveSample {
			c.updateRTTLocked(sample)
		}
		c.lastAck = ackSeq
		c.dupAcks = 0
		c.rtxBackoff = 0
		if len(c.unacked) == 0 {
			c.timerDeadline = time.Time{}
			c.recoverValid = false
		} else {
			c.timerDeadline = now.Add(c.backoffRTOLocked(0))
			if c.recoverValid {
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
					resends = append(resends, c.resendLocked(ackSeq, p, now, &c.stats.PartialAckResent))
					c.timerDeadline = now.Add(c.backoffRTOLocked(0))
				}
			}
		}
		c.sendSlot.Broadcast()
	case ackSeq == c.lastAck && len(c.unacked) > 0:
		c.dupAcks++
		if c.dupAcks >= dupAckThreshold && (!c.fastRtxValid || c.fastRtxSeq != ackSeq) {
			c.dupAcks = 0
			c.fastRtxSeq = ackSeq
			c.fastRtxValid = true
			// The receiver is stalled on exactly ackSeq; resend it now
			// instead of waiting out the RTO.
			if p, ok := c.unacked[ackSeq]; ok && now.Sub(p.lastSent) >= c.lossGuardLocked()/2 {
				resends = append(resends, c.resendLocked(ackSeq, p, now, &c.stats.DupAckResent))
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
	if !wheelDeadline.IsZero() {
		// Earliest-wins scheduling makes a later deadline a no-op and a
		// cleared timer need nothing: a stale wheel entry fires, sees no
		// expired work, and drops out on its own.
		c.wheel.schedule(c, wheelDeadline)
	}
	c.writeStaged(resends)
}

// resendLocked marks p (sequence seq) retransmitted at now and copies
// it into a pooled datagram buffer; cause is the Stats counter to bump
// once the write lands. Caller holds mu.
func (c *Conn) resendLocked(seq uint32, p *pending, now time.Time, cause *int64) rsPkt {
	p.lastSent = now
	p.rtx++
	bp := pktBufPool.Get().(*[]byte)
	*bp = appendPacket((*bp)[:0], typeData, seq, c.stamp(now), p.payload)
	return rsPkt{buf: bp, cause: cause}
}

// writeStaged writes staged retransmissions to the socket (outside any
// lock), recycles their buffers, and counts the ones that landed.
func (c *Conn) writeStaged(pkts []rsPkt) {
	if len(pkts) == 0 {
		return
	}
	for i := range pkts {
		r := &pkts[i]
		if _, err := c.pc.WriteTo(*r.buf, c.peer); err != nil && !c.isClosed() {
			r.cause = nil
		}
	}
	c.mu.Lock()
	for _, r := range pkts {
		if r.cause != nil {
			*r.cause++
			c.stats.DataResent++
			c.stats.BytesSent += int64(len(*r.buf))
		}
		*r.buf = (*r.buf)[:0]
		pktBufPool.Put(r.buf)
	}
	c.mu.Unlock()
}

// lossGuardLocked is the RACK-style reordering guard: a datagram
// passed by a SACKed later datagram is declared lost only once it has
// been outstanding for SRTT + 2·RTTVAR, so plain reordering doesn't
// trigger spurious repair. Before the first RTT sample it is half the
// initial RTO. Caller holds mu.
func (c *Conn) lossGuardLocked() time.Duration {
	g := c.srtt + 2*c.rttvar
	if g <= 0 {
		g = c.rto / 2
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

// backoffRTOLocked returns the retransmission deadline interval after
// rtx consecutive timer expiries. Caller holds mu.
func (c *Conn) backoffRTOLocked(rtx int) time.Duration {
	rto := c.rto
	for i := 0; i < rtx && rto < c.opts.MaxRTO; i++ {
		rto *= 2
	}
	if rto > c.opts.MaxRTO {
		rto = c.opts.MaxRTO
	}
	return rto
}

// timerCheck is the wheel's callback: run any expired retransmission
// work as of now and report when the wheel should next check this
// connection. A zero return means no timer is armed (nothing in
// flight, or the connection closed) and the wheel forgets the
// connection until a send re-arms it.
func (c *Conn) timerCheck(now time.Time) time.Time {
	if c.isClosed() {
		return time.Time{}
	}
	c.retransmitOldestExpired(now)
	c.mu.Lock()
	next := c.timerDeadline
	c.mu.Unlock()
	return next
}

// retransmitOldestExpired implements the RFC 6298 §5 single-timer
// discipline: on expiry, resend only the oldest outstanding datagram,
// back the timer off exponentially, and rearm. Trailing in-flight
// datagrams are left alone — with cumulative ACKs they are almost
// always already buffered at the receiver, and resending them is what
// made per-datagram timers collapse into whole-window resend storms.
func (c *Conn) retransmitOldestExpired(now time.Time) {
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
	if c.rtxBackoff < 16 {
		c.rtxBackoff++
	}
	c.timerDeadline = now.Add(c.backoffRTOLocked(c.rtxBackoff))
	c.recoverSeq = c.sendSeq
	c.recoverValid = true
	staged := c.resendLocked(oldest, c.unacked[oldest], now, &c.stats.TimeoutResent)
	c.mu.Unlock()
	c.writeStaged([]rsPkt{staged})
}
