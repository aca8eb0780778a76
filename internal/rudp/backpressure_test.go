package rudp

// Regression tests for receive-side flow control: message delivery must
// never block the injector. In demuxed (fleet) mode Inject runs on the
// one shared demux goroutine, and the pre-fix blocking send on the
// delivery channel meant a single session with a stalled consumer — for
// example one wedged in Send waiting for window space that only the
// demux goroutine's ACK delivery could free — deadlocked the entire
// listener. The fix refuses (without ACKing) data datagrams the Recv
// queue can't absorb, so the peer's retransmissions redeliver them once
// the application drains.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/netsim"
)

// dataPacket builds one wire data datagram whose payload is a single
// complete framed message.
func dataPacket(seq uint32, body []byte) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(body)))
	payload = append(payload, body...)
	return appendPacket(nil, typeData, seq, 0, payload)
}

func TestInjectNeverBlocksOnStalledConsumer(t *testing.T) {
	pcB, pcA := netsim.NewPair(netsim.LinkConfig{}, 1)
	defer pcA.Close()
	defer pcB.Close()
	wheel := NewWheel(8)
	defer wheel.Close()
	opts := DefaultOptions()
	opts.RecvQueue = 8
	c := NewDemuxed(pcA, pcB.Addr(), opts, wheel)
	defer c.Close()

	// Nobody calls Recv: the consumer is stalled. Inject three times the
	// queue bound; with the pre-fix blocking delivery this wedges on
	// datagram RecvQueue+1 forever.
	const total = 24
	injected := make(chan struct{})
	go func() {
		defer close(injected)
		for seq := uint32(0); seq < total; seq++ {
			c.Inject(dataPacket(seq, []byte(fmt.Sprintf("msg-%02d", seq))))
		}
	}()
	select {
	case <-injected:
	case <-time.After(10 * time.Second):
		t.Fatal("Inject blocked on a stalled consumer (demux deadlock)")
	}

	st := c.Stats()
	if want := int64(total - opts.RecvQueue); st.RecvQueueDrops != want {
		t.Fatalf("RecvQueueDrops = %d, want %d", st.RecvQueueDrops, want)
	}
	// Exactly the queue bound was accepted, in order; the rest were
	// refused before touching receive state (no ACK, no buffering).
	for i := 0; i < opts.RecvQueue; i++ {
		msg, err := c.Recv(time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if want := fmt.Sprintf("msg-%02d", i); string(msg) != want {
			t.Fatalf("recv %d = %q, want %q", i, msg, want)
		}
	}
	if _, err := c.Recv(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("queue should be empty after drain, got %v", err)
	}
}

func TestRecvBackpressureRetransmitRepairs(t *testing.T) {
	pcB, pcA := netsim.NewPair(netsim.LinkConfig{}, 2)
	opts := DefaultOptions()
	opts.RTO = 10 * time.Millisecond
	opts.RecvQueue = 8
	a := New(pcA, pcB.Addr(), opts)
	b := New(pcB, pcA.Addr(), opts)
	defer a.Close()
	defer b.Close()

	// Pipeline far more messages than the receiver's queue absorbs
	// while its consumer sits idle, forcing refusals...
	const total = 64
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := a.Send([]byte(fmt.Sprintf("frame-%02d", i))); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	time.Sleep(100 * time.Millisecond)

	// ...then drain. Refused datagrams were never ACKed, so the sender's
	// retransmissions redeliver every one of them: backpressure, not
	// loss, and ordering is preserved throughout.
	for i := 0; i < total; i++ {
		msg, err := b.Recv(10 * time.Second)
		if err != nil {
			t.Fatalf("recv %d/%d: %v (refused datagrams never repaired?)", i, total, err)
		}
		if want := fmt.Sprintf("frame-%02d", i); string(msg) != want {
			t.Fatalf("recv %d = %q, want %q", i, msg, want)
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if drops := b.Stats().RecvQueueDrops; drops == 0 {
		t.Fatal("backpressure never engaged: RecvQueueDrops = 0")
	}
}
