package rudp

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"net"
	"testing"
	"time"
)

// vclock is a virtual clock a test advances by hand.
type vclock struct{ t time.Time }

func (v *vclock) now() time.Time { return v.t }

// vaddr names one end of a vlink.
type vaddr string

func (a vaddr) Network() string { return "vlink" }
func (a vaddr) String() string  { return string(a) }

// vdgram is one datagram in flight on a vlink.
type vdgram struct {
	at   time.Time
	to   int // receiving end: 0 or 1
	data []byte
}

// vlink is a two-ended in-memory link on a vclock: every write lands
// in trace, and unless its direction's seeded PCG drops it, becomes
// due at the far end one fixed delay later. Nothing is delivered until
// the test loop pops it, so one goroutine drives the whole exchange.
type vlink struct {
	clock  *vclock
	delay  time.Duration
	loss   float64
	drop   [2]*rand.Rand // per sending end
	flight []vdgram      // in send order; due times never decrease
	trace  hash.Hash64
}

func newVlink(clock *vclock, delay time.Duration, loss float64, seed uint64) *vlink {
	return &vlink{
		clock: clock,
		delay: delay,
		loss:  loss,
		drop:  [2]*rand.Rand{rand.New(rand.NewPCG(seed, 0)), rand.New(rand.NewPCG(seed, 1))},
		trace: fnv.New64a(),
	}
}

// send records one datagram from end `from` and queues it unless lost.
func (l *vlink) send(from int, b []byte) {
	var hdr [9]byte
	hdr[0] = byte(from)
	binary.BigEndian.PutUint64(hdr[1:], uint64(l.clock.t.UnixNano()))
	l.trace.Write(hdr[:])
	l.trace.Write(b)
	if l.drop[from].Float64() < l.loss {
		return
	}
	l.flight = append(l.flight, vdgram{at: l.clock.t.Add(l.delay), to: 1 - from, data: append([]byte(nil), b...)})
}

// due pops the datagrams whose delivery time has come, in send order.
func (l *vlink) due() []vdgram {
	n := 0
	for n < len(l.flight) && !l.clock.t.Before(l.flight[n].at) {
		n++
	}
	out := l.flight[:n:n]
	l.flight = l.flight[n:]
	return out
}

// vend is one end of a vlink as a net.PacketConn. Only WriteTo is
// used: reads are the test loop's Inject calls.
type vend struct {
	link *vlink
	end  int
}

func (e *vend) WriteTo(b []byte, _ net.Addr) (int, error) {
	e.link.send(e.end, b)
	return len(b), nil
}
func (e *vend) ReadFrom([]byte) (int, net.Addr, error) { return 0, nil, net.ErrClosed }
func (e *vend) Close() error                           { return nil }
func (e *vend) LocalAddr() net.Addr                    { return vaddr([]string{"a", "b"}[e.end]) }
func (e *vend) SetDeadline(time.Time) error            { return nil }
func (e *vend) SetReadDeadline(time.Time) error        { return nil }
func (e *vend) SetWriteDeadline(time.Time) error       { return nil }

// traceResult is what one lossy exchange left behind.
type traceResult struct {
	hash  uint64
	stats Stats
	steps int
}

// runLossyTrace ships msgs messages of size bytes from a to b over a
// vlink that drops ~5% of datagrams each way, all on one virtual
// clock, and returns the hash of every datagram either side wrote with
// its direction and virtual send time.
func runLossyTrace(t *testing.T, seed uint64, msgs, size int) traceResult {
	t.Helper()
	const step = 100 * time.Microsecond
	clock := &vclock{t: time.Unix(1_000_000, 0)}
	link := newVlink(clock, 5*time.Millisecond, 0.05, seed)
	opts := DefaultOptions()
	opts.Window = 32
	wa, wb := newWheel(64, clock.now), newWheel(64, clock.now)
	a := NewDemuxed(&vend{link, 0}, vaddr("b"), opts, wa)
	b := NewDemuxed(&vend{link, 1}, vaddr("a"), opts, wb)
	conns := [2]*Conn{a, b}
	defer func() {
		a.Close()
		b.Close()
	}()

	perMsg := (size + 8 + opts.MaxPayload - 1) / opts.MaxPayload
	sent, got := 0, 0
	for steps := 0; ; steps++ {
		if steps > 1_000_000 {
			t.Fatalf("seed %d: stuck after %d virtual steps: sent %d, received %d, %+v",
				seed, steps, sent, got, a.Stats())
		}
		for _, d := range link.due() {
			conns[d.to].Inject(d.data)
		}
		wa.advance(clock.t)
		wb.advance(clock.t)
		for sent < msgs {
			st := a.Stats()
			if st.WindowLimit-st.WindowOccupancy < perMsg {
				break
			}
			if err := a.Send(tracePayload(sent, size)); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		for {
			b.mu.Lock()
			msg, ok := b.popRecvLocked()
			b.mu.Unlock()
			if !ok {
				break
			}
			if want := tracePayload(got, size); !bytes.Equal(msg, want) {
				t.Fatalf("seed %d: message %d arrived corrupt or out of order", seed, got)
			}
			got++
		}
		if got > msgs {
			t.Fatalf("seed %d: %d messages delivered, %d sent", seed, got, msgs)
		}
		if got == msgs && a.Stats().WindowOccupancy == 0 {
			return traceResult{hash: link.trace.Sum64(), stats: a.Stats(), steps: steps}
		}
		clock.t = clock.t.Add(step)
	}
}

// tracePayload builds message i of the given size deterministically.
func tracePayload(i, size int) []byte {
	msg := make([]byte, size)
	for j := range msg {
		msg[j] = byte((i*131 + j*31) ^ (j >> 3))
	}
	return msg
}

func TestLossyTraceDeterministic(t *testing.T) {
	const msgs, size = 300, 4096
	first := runLossyTrace(t, 7, msgs, size)
	st := first.stats
	t.Logf("seed 7: %d virtual ms, hash %016x, sent %d resent %d (sack %d, partial-ack %d, dup-ack %d, timeout %d)",
		first.steps/10, first.hash, st.DataSent, st.DataResent,
		st.SackResent, st.PartialAckResent, st.DupAckResent, st.TimeoutResent)
	if st.DataResent == 0 {
		t.Fatal("5% loss produced no retransmissions; the trace exercises no recovery")
	}
	if again := runLossyTrace(t, 7, msgs, size); again.hash != first.hash {
		t.Fatalf("same seed, different datagram trace: %016x vs %016x", first.hash, again.hash)
	}
	if other := runLossyTrace(t, 8, msgs, size); other.hash == first.hash {
		t.Fatalf("seeds 7 and 8 produced the same trace %016x", first.hash)
	}
}

// TestRecvBufBounded injects far-ahead datagrams that never fill a
// hole: the out-of-order buffer must stop at Window + 64 entries,
// refusing (and not ACKing) the rest.
func TestRecvBufBounded(t *testing.T) {
	clock := &vclock{t: time.Unix(1_000_000, 0)}
	link := newVlink(clock, time.Millisecond, 0, 1)
	opts := DefaultOptions()
	c := NewDemuxed(&vend{link, 1}, vaddr("a"), opts, newWheel(8, clock.now))
	defer c.Close()

	const n = 2000
	payload := bytes.Repeat([]byte{0xA5}, 1000)
	for i := 0; i < n; i++ {
		c.Inject(appendPacket(nil, typeData, uint32(1+1000*i), 0, payload))
	}
	limit := opts.Window + sackReach
	c.mu.Lock()
	held := len(c.recvBuf)
	c.mu.Unlock()
	if held != limit {
		t.Fatalf("out-of-order buffer holds %d datagrams after %d injects; want the bound %d", held, n, limit)
	}
	st := c.Stats()
	if st.RecvQueueDrops != int64(n-limit) {
		t.Fatalf("RecvQueueDrops = %d, want %d", st.RecvQueueDrops, n-limit)
	}
	if st.AcksSent != int64(limit) {
		t.Fatalf("AcksSent = %d, want %d: refused datagrams must not be ACKed", st.AcksSent, limit)
	}
	// The hole at seq 0 still fills: the buffer is bounded, not wedged.
	c.Inject(appendPacket(nil, typeData, 0, 0, payload))
	if st := c.Stats(); st.AcksSent != int64(limit)+1 {
		t.Fatalf("in-order datagram at a full buffer was not ACKed: %+v", st)
	}
}
