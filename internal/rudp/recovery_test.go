package rudp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/netsim"
)

// wrapPair builds a connected pair whose a→b sequence space starts at
// start, so tests can cross the uint32 boundary in a few datagrams.
func wrapPair(t *testing.T, start uint32, loss float64, seed uint64) (*Conn, *Conn) {
	t.Helper()
	pcB, pcA := netsim.NewPair(netsim.LinkConfig{Loss: loss}, seed)
	opts := DefaultOptions()
	opts.RTO = 10 * time.Millisecond
	a := New(pcA, pcB.Addr(), opts)
	b := New(pcB, pcA.Addr(), opts)
	a.mu.Lock()
	a.sendSeq = start
	a.lastAck = start
	a.mu.Unlock()
	b.mu.Lock()
	b.recvNext = start
	b.mu.Unlock()
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

func TestSequenceWraparound(t *testing.T) {
	// 200 single-datagram messages starting 25 datagrams before the
	// uint32 boundary: delivery must continue across the wrap.
	a, b := wrapPair(t, ^uint32(0)-25, 0, 42)
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send([]byte(fmt.Sprintf("wrap-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := b.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("recv %d (deadlocked at the wrap?): %v", i, err)
		}
		if want := fmt.Sprintf("wrap-%04d", i); string(got) != want {
			t.Fatalf("message %d = %q, want %q", i, got, want)
		}
	}
}

func TestSequenceWraparoundUnderLoss(t *testing.T) {
	// Same crossing with 10% loss, so retransmission, ack accounting,
	// and fast retransmit all run on wrapped sequence numbers.
	a, b := wrapPair(t, ^uint32(0)-40, 0.10, 77)
	const n = 120
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			got, err := b.Recv(10 * time.Second)
			if err != nil {
				done <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			if want := fmt.Sprintf("wrap-loss-%04d", i); string(got) != want {
				done <- fmt.Errorf("message %d = %q, want %q", i, got, want)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		if err := a.Send([]byte(fmt.Sprintf("wrap-loss-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.DataResent == 0 {
		t.Fatal("10% loss across the wrap produced zero retransmissions")
	}
}

func TestSeqBefore(t *testing.T) {
	max := ^uint32(0)
	cases := []struct {
		a, b uint32
		want bool
	}{
		{0, 1, true},
		{1, 0, false},
		{5, 5, false},
		{max, 0, true},        // wraparound: max precedes 0
		{0, max, false},       //
		{max - 10, max, true}, //
		{10, max - 10, false}, // far apart across the wrap
	}
	for _, c := range cases {
		if got := seqBefore(c.a, c.b); got != c.want {
			t.Errorf("seqBefore(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestConcurrentSendNoInterleave(t *testing.T) {
	// Multi-fragment messages from several goroutines must each occupy
	// a contiguous sequence range; interleaved fragments corrupt the
	// length-prefixed stream. Run under -race in the tier-1 check.
	a, b := pair(t, 0)
	const (
		senders = 4
		perSend = 20
		msgSize = 4000 // ~4 fragments at 1200 B
	)
	var wg sync.WaitGroup
	sendErrs := make(chan error, senders)
	for id := 0; id < senders; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			msg := bytes.Repeat([]byte{byte('A' + id)}, msgSize)
			for i := 0; i < perSend; i++ {
				if err := a.Send(msg); err != nil {
					sendErrs <- err
					return
				}
			}
		}(id)
	}
	counts := make(map[byte]int)
	for i := 0; i < senders*perSend; i++ {
		got, err := b.Recv(10 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v (framing corrupted by interleaving?)", i, err)
		}
		if len(got) != msgSize {
			t.Fatalf("message %d has %d bytes, want %d", i, len(got), msgSize)
		}
		tag := got[0]
		for _, c := range got {
			if c != tag {
				t.Fatalf("message %d mixes content from two senders (%q vs %q)", i, tag, c)
			}
		}
		counts[tag]++
	}
	wg.Wait()
	select {
	case err := <-sendErrs:
		t.Fatal(err)
	default:
	}
	for id := 0; id < senders; id++ {
		if got := counts[byte('A'+id)]; got != perSend {
			t.Fatalf("sender %d: %d messages delivered, want %d", id, got, perSend)
		}
	}
}

func TestExtractCorruptFramingResync(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxMessage = 1024
	c := &Conn{opts: opts.withDefaults()}

	// A length prefix beyond MaxMessage must drop the stream, even when
	// the declared body hasn't "arrived" yet — otherwise the stream
	// buffer grows toward a bogus multi-gigabyte length.
	c.stream = binary.AppendUvarint(nil, 1<<40)
	c.stream = append(c.stream, []byte("junk that should be discarded")...)
	if out := c.extractMessagesLocked(); out != 0 {
		t.Fatalf("corrupt stream yielded %d messages", out)
	}
	if len(c.stream)-c.streamOff != 0 {
		t.Fatal("stream not dropped after corrupt length prefix")
	}
	if c.stats.FramingErrors != 1 {
		t.Fatalf("FramingErrors = %d, want 1", c.stats.FramingErrors)
	}

	// An overlong varint (uint64 overflow) is also corrupt.
	c.stream = bytes.Repeat([]byte{0xff}, 9)
	c.stream = append(c.stream, 0x02)
	if out := c.extractMessagesLocked(); out != 0 {
		t.Fatalf("overflowed varint yielded %d messages", out)
	}
	if len(c.stream)-c.streamOff != 0 || c.stats.FramingErrors != 2 {
		t.Fatalf("stream=%v FramingErrors=%d after varint overflow", c.stream, c.stats.FramingErrors)
	}

	// After a resync the stream parses fresh messages again.
	want := []byte("recovered")
	c.stream = binary.AppendUvarint(nil, uint64(len(want)))
	c.stream = append(c.stream, want...)
	if out := c.extractMessagesLocked(); out != 1 {
		t.Fatalf("post-resync extraction queued %d messages, want 1", out)
	}
	if msg, ok := c.popRecvLocked(); !ok || !bytes.Equal(msg, want) {
		t.Fatalf("post-resync message = %q, want %q", msg, want)
	}

	// An incomplete prefix is not corruption: wait for more bytes.
	c.stream = []byte{0x80}
	if out := c.extractMessagesLocked(); out != 0 || len(c.stream) != 1 {
		t.Fatal("incomplete prefix must be preserved, not dropped")
	}
}

func TestRecvDrainsQueuedAfterClose(t *testing.T) {
	a, b := pair(t, 0)
	const n = 5
	for i := 0; i < n; i++ {
		if err := a.Send([]byte(fmt.Sprintf("drain-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for all messages to be queued on the receive side.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := b.Stats(); st.MsgsRecv == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("messages never queued: %+v", b.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	_ = b.Close()
	for i := 0; i < n; i++ {
		got, err := b.Recv(100 * time.Millisecond)
		if err != nil {
			t.Fatalf("recv %d after close: %v (queued messages must drain first)", i, err)
		}
		if want := fmt.Sprintf("drain-%d", i); string(got) != want {
			t.Fatalf("drained message %d = %q, want %q", i, got, want)
		}
	}
	if _, err := b.Recv(100 * time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain error = %v, want ErrClosed", err)
	}
}

func TestRecvCloseOrderingUnderLoad(t *testing.T) {
	// Close the receiver mid-stream: every message delivered before or
	// after the close must be an in-order prefix, and Recv must finish
	// with ErrClosed, never corrupt data.
	a, b := pair(t, 0)
	stop := make(chan struct{})
	var sendWG sync.WaitGroup
	sendWG.Add(1)
	go func() {
		defer sendWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := a.Send([]byte(fmt.Sprintf("load-%06d", i))); err != nil {
				return
			}
		}
	}()
	next := 0
	for ; next < 50; next++ {
		got, err := b.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", next, err)
		}
		if want := fmt.Sprintf("load-%06d", next); string(got) != want {
			t.Fatalf("message %d = %q, want %q", next, got, want)
		}
	}
	close(stop)
	_ = b.Close()
	// With the receiver gone the sender can be parked in Send waiting
	// for window space that will never open; only a local Close
	// releases it (same contract as writing to a vanished TCP peer).
	_ = a.Close()
	sendWG.Wait()
	for {
		got, err := b.Recv(100 * time.Millisecond)
		if err != nil {
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("final error = %v, want ErrClosed", err)
			}
			break
		}
		if want := fmt.Sprintf("load-%06d", next); string(got) != want {
			t.Fatalf("drained message %d = %q, want %q", next, got, want)
		}
		next++
	}
}

func TestInjectFirstDatagram(t *testing.T) {
	// An accept path that peeks the first datagram off the socket (to
	// learn the peer address) injects it instead of dropping it: the
	// session must start without a forced retransmit or duplicate.
	pcB, pcA := netsim.NewPair(netsim.LinkConfig{}, 9)
	opts := DefaultOptions()
	opts.RTO = 300 * time.Millisecond // ample: a retransmit means the fix failed
	a := New(pcA, pcB.Addr(), opts)
	defer a.Close()
	if err := a.Send([]byte("first contact")); err != nil {
		t.Fatal(err)
	}
	// Peek the datagram directly off the packet conn, as ServeUDP does.
	_ = pcB.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	n, _, err := pcB.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	_ = pcB.SetReadDeadline(time.Time{})
	b := New(pcB, pcA.Addr(), opts)
	defer b.Close()
	b.Inject(buf[:n])
	got, err := b.Recv(time.Second)
	if err != nil || string(got) != "first contact" {
		t.Fatalf("recv = %q, %v", got, err)
	}
	if st := a.Stats(); st.DataResent != 0 {
		t.Fatalf("injected first datagram still caused %d retransmits", st.DataResent)
	}
	if st := b.Stats(); st.Duplicates != 0 {
		t.Fatalf("injected first datagram caused %d duplicates", st.Duplicates)
	}
}

func TestFastRetransmitRecoversLoss(t *testing.T) {
	// Sustained multi-fragment traffic at 5% loss: dup-ACKs must
	// trigger fast retransmits, and the estimator must have locked on.
	a, b := pair(t, 0.05)
	payload := bytes.Repeat([]byte("frame"), 1000) // ~5 fragments
	const n = 120
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			got, err := b.Recv(15 * time.Second)
			if err != nil {
				done <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			if !bytes.Equal(got, payload) {
				done <- fmt.Errorf("message %d corrupted (%d bytes)", i, len(got))
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		if err := a.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.FastResent == 0 {
		t.Fatalf("no fast retransmits under 5%% loss: %+v", st)
	}
	if st.SRTT <= 0 {
		t.Fatalf("estimator never locked on: SRTT = %v", st.SRTT)
	}
	if st.RTO < a.opts.MinRTO || st.RTO > a.opts.MaxRTO {
		t.Fatalf("RTO %v outside [%v, %v]", st.RTO, a.opts.MinRTO, a.opts.MaxRTO)
	}
	if st.FastResent+st.TimeoutResent != st.DataResent {
		t.Fatalf("resend split %d+%d != total %d", st.FastResent, st.TimeoutResent, st.DataResent)
	}
	if sum := st.SackResent + st.PartialAckResent + st.DupAckResent; sum != st.FastResent {
		t.Fatalf("fast paths sack %d + partial %d + dup %d = %d != FastResent %d",
			st.SackResent, st.PartialAckResent, st.DupAckResent, sum, st.FastResent)
	}
}

func TestStatsNotCountedOnFailedWrite(t *testing.T) {
	// A conn whose socket is already closed must not count bytes it
	// never managed to write.
	pcB, pcA := netsim.NewPair(netsim.LinkConfig{}, 13)
	a := New(pcA, pcB.Addr(), DefaultOptions())
	defer a.Close()
	defer pcB.Close()
	if err := a.Send([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.DataSent != 1 || st.BytesSent == 0 {
		t.Fatalf("baseline stats %+v", st)
	}
	// Sabotage the socket out from under the conn: writePacket now
	// fails while the conn still thinks it is open.
	_ = pcA.Close()
	_ = a.Send([]byte("lost"))
	st2 := a.Stats()
	if st2.DataSent != st.DataSent || st2.BytesSent != st.BytesSent {
		t.Fatalf("failed write still counted: before %+v after %+v", st, st2)
	}
}
