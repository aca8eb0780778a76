package core

import (
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/cmdcache"
	"github.com/gbooster/gbooster/internal/glwire"
	"github.com/gbooster/gbooster/internal/lz4"
	"github.com/gbooster/gbooster/internal/netsim"
	"github.com/gbooster/gbooster/internal/rudp"
	"github.com/gbooster/gbooster/internal/turbo"
	"github.com/gbooster/gbooster/internal/workload"
)

// batchBuilder serializes one game frame at a time into MsgFrameBatch
// messages, with the client-side encoder, cache and compressor a
// server's mirrors expect.
type batchBuilder struct {
	game  *workload.Game
	enc   *glwire.Encoder
	cache *cmdcache.Cache
	comp  *lz4.Compressor
	seq   uint64

	// Pooled scratch, exercising the same zero-allocation encode path
	// the real client uses.
	encBuf   []byte
	splitBuf [][]byte
	wireBuf  []byte
	msgBuf   []byte
}

func newBatchBuilder(t testing.TB, id string, seed uint64) *batchBuilder {
	t.Helper()
	prof, err := workload.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	game := workload.NewGame(prof, seed)
	return &batchBuilder{
		game:  game,
		enc:   glwire.NewEncoder(game.Arrays()),
		cache: cmdcache.New(0),
		comp:  lz4.NewCompressor(),
	}
}

func (b *batchBuilder) next(t testing.TB) []byte {
	t.Helper()
	buf, err := b.enc.EncodeAll(b.encBuf[:0], b.game.NextFrame().Commands)
	b.encBuf = buf
	if err != nil {
		t.Fatal(err)
	}
	recs, err := glwire.AppendSplitRecords(b.splitBuf[:0], buf)
	b.splitBuf = recs
	if err != nil {
		t.Fatal(err)
	}
	wire, _, err := b.cache.EncodeAll(b.wireBuf[:0], recs)
	b.wireBuf = wire
	if err != nil {
		t.Fatal(err)
	}
	msg := b.comp.Compress(appendMsgHeader(b.msgBuf[:0], MsgFrameBatch, b.seq), wire)
	b.msgBuf = msg
	b.seq++
	// Callers may queue several messages before sending, so hand out an
	// owned copy — the scratch is overwritten by the next frame, exactly
	// like rudp copying a send into its retransmit window.
	return append([]byte(nil), msg...)
}

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
