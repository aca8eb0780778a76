package core

import (
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/netsim"
	"github.com/gbooster/gbooster/internal/rudp"
	"github.com/gbooster/gbooster/internal/turbo"
)

// servePipe starts srv.ServeWithTimeout(idle) on an in-memory
// connection pair and returns the client end plus a channel carrying
// the loop's result once it has returned.
func servePipe(t *testing.T, srv *Server, idle time.Duration) (*rudp.Conn, <-chan error) {
	t.Helper()
	pcS, pcC := netsim.NewPair(netsim.LinkConfig{}, 42)
	opts := rudp.DefaultOptions()
	connC := rudp.New(pcC, pcS.Addr(), opts)
	connS := rudp.New(pcS, pcC.Addr(), opts)
	done := make(chan error, 1)
	go func() {
		done <- srv.ServeWithTimeout(connS, idle)
		_ = connS.Close()
	}()
	t.Cleanup(func() { _ = connC.Close() })
	return connC, done
}

// TestServeQueuedRequestsInOrder: requests that queue up behind a busy
// serve loop (the non-blocking SwapBuffer of §VI) are answered one per
// request, in request order, and the reply stream is one valid closed-
// loop codec stream.
func TestServeQueuedRequestsInOrder(t *testing.T) {
	const frames = 8
	srv, err := NewServer(ServerConfig{Width: testW, Height: testH})
	if err != nil {
		t.Fatal(err)
	}
	conn, _ := servePipe(t, srv, 2*time.Second)
	builder := newBatchBuilder(t, "G5", 3)
	for i := 0; i < frames; i++ {
		if err := conn.Send(builder.next(t)); err != nil {
			t.Fatal(err)
		}
	}
	dec := turbo.NewDecoder(testW, testH, 0)
	for i := 0; i < frames; i++ {
		msg, err := conn.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		msgType, seq, payload, err := decodeMsg(msg)
		if err != nil || msgType != MsgEncodedFrame || seq != uint64(i) {
			t.Fatalf("reply %d: type=%d seq=%d err=%v", i, msgType, seq, err)
		}
		if _, err := dec.Decode(payload); err != nil {
			t.Fatalf("reply %d: decode: %v", i, err)
		}
	}
}

// TestServeWithTimeoutIdleWindow: traffic restarts the idle window, and
// the loop returns nil only once a full window has passed since the
// last request — whose reply has been delivered by then.
func TestServeWithTimeoutIdleWindow(t *testing.T) {
	const idle = 500 * time.Millisecond
	srv, err := NewServer(ServerConfig{Width: testW, Height: testH})
	if err != nil {
		t.Fatal(err)
	}
	conn, done := servePipe(t, srv, idle)
	builder := newBatchBuilder(t, "G5", 3)
	var lastSent time.Time
	// Three requests 0.4 windows apart span more than one window in
	// total, so a loop that did not restart the window would be gone
	// before the third.
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(idle * 2 / 5)
		}
		lastSent = time.Now()
		if err := conn.Send(builder.next(t)); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Recv(5 * time.Second); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want nil", err)
		}
		if quiet := time.Since(lastSent); quiet < idle {
			t.Fatalf("serve returned %v after the last request, want >= %v", quiet, idle)
		}
	case <-time.After(10 * idle):
		t.Fatal("serve did not return after the idle window")
	}
}
