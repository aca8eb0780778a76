package fleet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gbooster/gbooster/internal/batchio"
)

// Egress defaults.
const (
	// DefaultEgressBatch is how many queued datagrams one drain flush
	// hands to batchio when Config.EgressBatch is zero.
	DefaultEgressBatch = batchio.MaxBatch
	// DefaultEgressQueue bounds the fleet's egress FIFO, in datagrams.
	// At the default rudp payload size the queue tops out around 5 MB —
	// bounded backlog, not bounded loss: a full queue drops rather than
	// blocks, and rudp retransmission recovers the loss.
	DefaultEgressQueue = 4096
)

// egressConn is the fleet's coalescing downlink writer: the PacketConn
// handed to every demuxed session conn, so session replies, the demux
// pump's ACKs, and the shared wheel's retransmits all funnel into one
// bounded FIFO that a single drainer flushes through batchio.Sender.
// Under load the queue runs deep and each flush moves a whole batch per
// syscall; idle, a lone ACK still leaves on the next drainer wakeup —
// there is no flush timer to add latency.
//
// WriteTo never blocks: a full queue drops the datagram (counted in
// drops) and leans on the reliability layer, because its callers — the
// demux pump delivering inbound data, the wheel's timer goroutine —
// must never stall on a slow socket. The single FIFO preserves global
// enqueue order, so per-peer datagram order is exactly what a direct
// WriteTo interleaving would give.
type egressConn struct {
	pc     net.PacketConn
	sender *batchio.Sender
	batch  int

	mu     sync.Mutex
	ring   []batchio.Datagram // FIFO: n entries starting at head
	head   int
	n      int
	free   [][]byte // recycled payload buffers, guarded by mu
	closed bool
	notify chan struct{} // 1-buffered drainer wakeup

	batches atomic.Int64
	drops   atomic.Int64
}

func newEgressConn(pc net.PacketConn, batch, queue int) *egressConn {
	if batch <= 0 {
		batch = DefaultEgressBatch
	}
	if queue <= 0 {
		queue = DefaultEgressQueue
	}
	return &egressConn{
		pc:     pc,
		sender: batchio.NewSender(pc),
		batch:  batch,
		ring:   make([]batchio.Datagram, queue),
		notify: make(chan struct{}, 1),
	}
}

// WriteTo copies p into a pooled buffer and queues it for the drainer.
// The copy is the price of not blocking the caller: rudp reuses its
// send scratch the moment WriteTo returns.
func (e *egressConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	if e.n == len(e.ring) {
		e.mu.Unlock()
		e.drops.Add(1)
		return len(p), nil // dropped like any congested link; rudp recovers
	}
	buf := e.getBufLocked()
	buf = append(buf[:0], p...)
	e.ring[(e.head+e.n)%len(e.ring)] = batchio.Datagram{Buf: buf, Addr: addr}
	e.n++
	e.mu.Unlock()
	select {
	case e.notify <- struct{}{}:
	default:
	}
	return len(p), nil
}

// drain is the single egress goroutine: pop up to batch datagrams in
// FIFO order, flush them through one batched send, recycle the buffers.
func (e *egressConn) drain() {
	scratch := make([]batchio.Datagram, 0, e.batch)
	for {
		e.mu.Lock()
		k := e.n
		if k > e.batch {
			k = e.batch
		}
		scratch = scratch[:0]
		for i := 0; i < k; i++ {
			scratch = append(scratch, e.ring[(e.head+i)%len(e.ring)])
		}
		e.head = (e.head + k) % len(e.ring)
		e.n -= k
		closed := e.closed
		e.mu.Unlock()

		if k == 0 {
			if closed {
				return
			}
			<-e.notify
			continue
		}
		sent, err := e.sender.Send(scratch)
		if sent == len(scratch) {
			e.batches.Add(1)
		} else {
			e.drops.Add(int64(len(scratch) - sent))
		}
		e.mu.Lock()
		for i := range scratch {
			e.putBufLocked(scratch[i].Buf)
			scratch[i] = batchio.Datagram{}
		}
		e.mu.Unlock()
		if err != nil {
			if closed {
				return
			}
			// The socket is failing under us (commonly: shutdown racing
			// this flush). Don't spin hot; the demux loop sees the same
			// error and tears the fleet down.
			time.Sleep(time.Millisecond)
		}
	}
}

// close stops accepting datagrams and lets the drainer flush what's
// queued and exit.
func (e *egressConn) close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	select {
	case e.notify <- struct{}{}:
	default:
	}
}

// stats snapshots the egress counters: datagrams and syscalls from the
// batched sender, flush and drop counts from the queue.
func (e *egressConn) stats() (datagrams, syscalls, batches, drops int64) {
	st := e.sender.Stats()
	return st.Datagrams, st.Syscalls, e.batches.Load(), e.drops.Load()
}

func (e *egressConn) getBufLocked() []byte {
	if n := len(e.free); n > 0 {
		b := e.free[n-1]
		e.free = e.free[:n-1]
		return b
	}
	return nil
}

func (e *egressConn) putBufLocked(b []byte) {
	if cap(b) == 0 {
		return
	}
	if len(e.free) < len(e.ring) {
		e.free = append(e.free, b[:0])
	}
}

// The rest of net.PacketConn, so egressConn can stand in for the
// listener in rudp.NewDemuxed. Close is a no-op — the listener is
// shared and its lifecycle belongs to the Manager.
func (e *egressConn) ReadFrom(p []byte) (int, net.Addr, error) { return e.pc.ReadFrom(p) }
func (e *egressConn) Close() error                             { return nil }
func (e *egressConn) LocalAddr() net.Addr                      { return e.pc.LocalAddr() }
func (e *egressConn) SetDeadline(t time.Time) error            { return e.pc.SetDeadline(t) }
func (e *egressConn) SetReadDeadline(t time.Time) error        { return e.pc.SetReadDeadline(t) }
func (e *egressConn) SetWriteDeadline(t time.Time) error       { return e.pc.SetWriteDeadline(t) }
