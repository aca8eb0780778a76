package netsim

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/gbooster/gbooster/internal/sim"
)

// LinkConfig parameterizes a packet-level emulated path. Unlike Link
// (an analytic latency model for the virtual-time experiments), a Hub
// really carries datagrams between net.PacketConn endpoints in
// wall-clock time, so the reliable-UDP transport can be soak-tested
// against loss, delay, jitter, and queueing exactly as it would run
// over a radio.
type LinkConfig struct {
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// JitterStd is the standard deviation of per-datagram delay noise
	// (truncated so delivery never precedes the propagation delay).
	JitterStd time.Duration
	// Loss is the independent datagram loss probability per direction.
	Loss float64
	// Bandwidth caps each direction in bytes/second; zero means
	// unlimited. Serialization time queues behind earlier datagrams.
	Bandwidth float64
	// MaxQueue bounds the serialization backlog: a datagram whose
	// queueing delay would exceed it is tail-dropped, the way a router
	// sheds an overflowing buffer. Zero defaults to 100 ms.
	MaxQueue time.Duration
}

func (cfg LinkConfig) withDefaults() LinkConfig {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 100 * time.Millisecond
	}
	return cfg
}

// linkAddr names a Hub or HubPort endpoint.
type linkAddr string

// Network names the emulated network.
func (a linkAddr) Network() string { return "linksim" }

// String renders the address.
func (a linkAddr) String() string { return string(a) }

var errLinkClosed = errors.New("netsim: link conn closed")

type linkPacket struct {
	data []byte
	from net.Addr
}

// linkTimeoutError satisfies net.Error for deadline expiry.
type linkTimeoutError struct{}

func (*linkTimeoutError) Error() string   { return "netsim: i/o timeout" }
func (*linkTimeoutError) Timeout() bool   { return true }
func (*linkTimeoutError) Temporary() bool { return true }

// Hub is the only in-memory network in the tree: one net.PacketConn —
// the server (or fleet) end — aggregating any number of per-client
// emulated links, each with its own loss/jitter/bandwidth model and a
// unique source address, which is what a fleet demultiplexes sessions
// by. The load harness hands a Hub to Fleet.ServeConn and one HubPort
// to each simulated player; a two-endpoint test uses NewPair.
//
// Datagram flow: a client writes into its HubPort, the port's uplink
// shaper delays or drops it, and it surfaces at the Hub's ReadFrom with
// the port's address; the fleet writes to that address, the port's
// downlink shaper runs, and the datagram surfaces at the port's
// ReadFrom. The two directions shape independently.
type Hub struct {
	addr linkAddr

	mu       sync.Mutex
	ports    map[string]*HubPort
	queue    chan linkPacket
	closed   bool
	deadline time.Time
	stats    HubStats
}

// HubStats counts the datagrams the hub end discarded.
type HubStats struct {
	// Detached counts datagrams the fleet wrote to an address with no
	// attached port — traffic to a departed (or crashed and detached)
	// client, which a real network would also eat.
	Detached int64
	// Overflow counts uplink datagrams discarded because the hub's
	// receive queue was full.
	Overflow int64
}

// Stats returns the hub's drop counters.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// NewHub returns an empty hub named addr ("hub" if empty).
func NewHub(addr string) *Hub {
	if addr == "" {
		addr = "hub"
	}
	return &Hub{
		addr:  linkAddr(addr),
		ports: make(map[string]*HubPort),
		queue: make(chan linkPacket, 16384),
	}
}

// NewPair returns a two-endpoint network: a hub (the server end) with
// a single attached port (the client end) emulating cfg in both
// directions.
func NewPair(cfg LinkConfig, seed uint64) (*Hub, *HubPort) {
	h := NewHub("")
	p, err := h.Attach("port", cfg, seed)
	if err != nil {
		panic(err) // a fresh hub cannot refuse a valid name
	}
	return h, p
}

// HubPort is one client's endpoint on a Hub: a net.PacketConn whose
// peer is the hub address, with independent uplink/downlink shaping.
type HubPort struct {
	hub  *Hub
	addr linkAddr

	mu       sync.Mutex
	up, down linkShaper // uplink (client→fleet), downlink (fleet→client)
	queue    chan linkPacket
	closed   bool
	deadline time.Time

	// Crash fault injector covering both directions at once: a
	// blackholed port's client reaches nobody and receives nothing.
	blackholed     bool
	blackholeDrops int64
	overflow       int64
}

// PortStats counts the datagrams one port's emulated link discarded.
type PortStats struct {
	// UpLoss and DownLoss count datagrams lost to the loss model,
	// UpTail and DownTail those tail-dropped by the bandwidth queue (up
	// is port→hub).
	UpLoss, UpTail, DownLoss, DownTail int64
	// Blackhole counts datagrams (both directions) eaten while
	// blackholed.
	Blackhole int64
	// Overflow counts downlink datagrams discarded because the port's
	// receive queue was full.
	Overflow int64
}

// Stats returns the port's drop counters.
func (p *HubPort) Stats() PortStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PortStats{
		UpLoss: p.up.Drops, UpTail: p.up.QueueDrops,
		DownLoss: p.down.Drops, DownTail: p.down.QueueDrops,
		Blackhole: p.blackholeDrops, Overflow: p.overflow,
	}
}

// linkShaper emulates one direction of a path: a loss /
// serialization-queue / propagation / jitter model. Callers synchronize
// access.
type linkShaper struct {
	cfg       LinkConfig
	rng       *sim.RNG
	busyUntil time.Time

	// Drops counts datagrams lost to the loss model; QueueDrops those
	// tail-dropped by the bandwidth queue.
	Drops      int64
	QueueDrops int64
}

// delay returns the delivery delay for an n-byte datagram written now,
// or ok=false if the loss model or queue limit drops it.
func (s *linkShaper) delay(n int, now time.Time) (time.Duration, bool) {
	if s.cfg.Loss > 0 && s.rng.Bool(s.cfg.Loss) {
		s.Drops++
		return 0, false
	}
	var txDelay time.Duration
	if s.cfg.Bandwidth > 0 {
		if s.busyUntil.Before(now) {
			s.busyUntil = now
		}
		if s.busyUntil.Sub(now) > s.cfg.MaxQueue {
			s.QueueDrops++
			return 0, false
		}
		tx := time.Duration(float64(n) / s.cfg.Bandwidth * float64(time.Second))
		s.busyUntil = s.busyUntil.Add(tx)
		txDelay = s.busyUntil.Sub(now)
	}
	d := txDelay + s.cfg.Delay
	if s.cfg.JitterStd > 0 {
		if j := time.Duration(s.rng.Norm(0, float64(s.cfg.JitterStd))); j > 0 {
			d += j
		}
	}
	return d, true
}

// Attach adds a client port named name (its source address as the
// fleet sees it) emulating cfg in both directions, with loss/jitter
// randomness derived from seed. Names must be unique while attached.
func (h *Hub) Attach(name string, cfg LinkConfig, seed uint64) (*HubPort, error) {
	cfg = cfg.withDefaults()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, errLinkClosed
	}
	if name == "" || name == string(h.addr) {
		return nil, fmt.Errorf("netsim: bad hub port name %q", name)
	}
	if _, dup := h.ports[name]; dup {
		return nil, fmt.Errorf("netsim: hub port %q already attached", name)
	}
	rng := sim.NewRNG(seed)
	p := &HubPort{
		hub:   h,
		addr:  linkAddr(name),
		up:    linkShaper{cfg: cfg, rng: rng.Fork()},
		down:  linkShaper{cfg: cfg, rng: rng.Fork()},
		queue: make(chan linkPacket, 4096),
	}
	h.ports[name] = p
	return p, nil
}

// Detach removes the named port from the hub; subsequent fleet writes
// to its address are counted in HubStats.Detached. The port itself stays
// usable only for Close.
func (h *Hub) Detach(name string) {
	h.mu.Lock()
	delete(h.ports, name)
	h.mu.Unlock()
}

// Addr returns the hub's address — the peer address every client
// port's traffic appears to come from and is sent to.
func (h *Hub) Addr() net.Addr { return h.addr }

// LocalAddr implements net.PacketConn.
func (h *Hub) LocalAddr() net.Addr { return h.addr }

// WriteTo implements net.PacketConn: the fleet writing one datagram
// down the named client's emulated link.
func (h *Hub) WriteTo(p []byte, addr net.Addr) (int, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return 0, errLinkClosed
	}
	port := h.ports[addr.String()]
	if port == nil {
		h.stats.Detached++
		h.mu.Unlock()
		return len(p), nil // client gone: lost without a trace
	}
	h.mu.Unlock()

	port.mu.Lock()
	if port.closed {
		port.mu.Unlock()
		return len(p), nil
	}
	if port.blackholed {
		port.blackholeDrops++
		port.mu.Unlock()
		return len(p), nil
	}
	d, ok := port.down.delay(len(p), time.Now())
	port.mu.Unlock()
	if !ok {
		return len(p), nil
	}
	pkt := linkPacket{data: append([]byte(nil), p...), from: h.addr}
	if d <= 0 {
		port.deliver(pkt)
	} else {
		time.AfterFunc(d, func() { port.deliver(pkt) })
	}
	return len(p), nil
}

// ReadFrom implements net.PacketConn honoring the read deadline.
// Datagrams carry the originating port's address, which is what lets a
// fleet demultiplex sessions.
func (h *Hub) ReadFrom(p []byte) (int, net.Addr, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return 0, nil, errLinkClosed
	}
	deadline := h.deadline
	h.mu.Unlock()
	return readPacket(h.queue, deadline, p)
}

// deliver enqueues an uplink packet for the hub's reader; a full queue
// behaves like a receive-buffer drop.
func (h *Hub) deliver(pkt linkPacket) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	select {
	case h.queue <- pkt:
	default:
		h.stats.Overflow++
	}
}

// Close implements net.PacketConn: it closes the hub and every
// attached port (a fleet owns the conn it serves and closes it on
// shutdown, which must unblock all clients too).
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	close(h.queue)
	ports := make([]*HubPort, 0, len(h.ports))
	for _, p := range h.ports {
		ports = append(ports, p)
	}
	h.ports = make(map[string]*HubPort)
	h.mu.Unlock()
	for _, p := range ports {
		_ = p.Close()
	}
	return nil
}

// SetDeadline implements net.PacketConn (read side only; writes never
// block).
func (h *Hub) SetDeadline(t time.Time) error { return h.SetReadDeadline(t) }

// SetReadDeadline implements net.PacketConn.
func (h *Hub) SetReadDeadline(t time.Time) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.deadline = t
	return nil
}

// SetWriteDeadline implements net.PacketConn (no-op).
func (h *Hub) SetWriteDeadline(time.Time) error { return nil }

// Addr returns the port's address — the client's source address as the
// fleet sees it.
func (p *HubPort) Addr() net.Addr { return p.addr }

// LocalAddr implements net.PacketConn.
func (p *HubPort) LocalAddr() net.Addr { return p.addr }

// WriteTo implements net.PacketConn: the client writing one datagram
// up its emulated link to the hub.
func (p *HubPort) WriteTo(b []byte, addr net.Addr) (int, error) {
	if addr.String() != string(p.hub.addr) {
		return 0, errors.New("netsim: hub port peer is the hub")
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0, errLinkClosed
	}
	if p.blackholed {
		p.blackholeDrops++
		p.mu.Unlock()
		return len(b), nil // crashed device: lost without a trace
	}
	d, ok := p.up.delay(len(b), time.Now())
	p.mu.Unlock()
	if !ok {
		return len(b), nil
	}
	pkt := linkPacket{data: append([]byte(nil), b...), from: p.addr}
	if d <= 0 {
		p.hub.deliver(pkt)
	} else {
		time.AfterFunc(d, func() { p.hub.deliver(pkt) })
	}
	return len(b), nil
}

// ReadFrom implements net.PacketConn honoring the read deadline.
func (p *HubPort) ReadFrom(b []byte) (int, net.Addr, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0, nil, errLinkClosed
	}
	deadline := p.deadline
	p.mu.Unlock()
	return readPacket(p.queue, deadline, b)
}

// deliver enqueues a downlink packet for the port's reader.
func (p *HubPort) deliver(pkt linkPacket) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	select {
	case p.queue <- pkt:
	default:
		p.overflow++
	}
}

// Blackhole makes the port eat every subsequent datagram in both
// directions — the client crashing without closing anything.
func (p *HubPort) Blackhole() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blackholed = true
}

// Restore lifts a blackhole; datagrams eaten while dark stay lost.
func (p *HubPort) Restore() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blackholed = false
}

// Close implements net.PacketConn and detaches the port from the hub —
// unless the name has since been re-attached: a stale port's repeated
// Close must not evict its successor.
func (p *HubPort) Close() error {
	p.hub.mu.Lock()
	if p.hub.ports[string(p.addr)] == p {
		delete(p.hub.ports, string(p.addr))
	}
	p.hub.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	return nil
}

// SetDeadline implements net.PacketConn (read side only).
func (p *HubPort) SetDeadline(t time.Time) error { return p.SetReadDeadline(t) }

// SetReadDeadline implements net.PacketConn.
func (p *HubPort) SetReadDeadline(t time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deadline = t
	return nil
}

// SetWriteDeadline implements net.PacketConn (no-op).
func (p *HubPort) SetWriteDeadline(time.Time) error { return nil }

// readPacket blocks on queue until a packet, the deadline, or close.
func readPacket(queue chan linkPacket, deadline time.Time, p []byte) (int, net.Addr, error) {
	var timer <-chan time.Time
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return 0, nil, &linkTimeoutError{}
		}
		t := time.NewTimer(d)
		defer t.Stop()
		timer = t.C
	}
	select {
	case pkt, ok := <-queue:
		if !ok {
			return 0, nil, errLinkClosed
		}
		n := copy(p, pkt.data)
		return n, pkt.from, nil
	case <-timer:
		return 0, nil, &linkTimeoutError{}
	}
}

var _ net.PacketConn = (*Hub)(nil)
var _ net.PacketConn = (*HubPort)(nil)
var _ net.Error = (*linkTimeoutError)(nil)
