package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/hook"
	"github.com/gbooster/gbooster/internal/netsim"
	"github.com/gbooster/gbooster/internal/rudp"
	"github.com/gbooster/gbooster/internal/turbo"
	"github.com/gbooster/gbooster/internal/workload"
)

const (
	testW = 96
	testH = 64
)

// rig wires a client to n in-memory servers, each served by its own
// goroutine.
type rig struct {
	client  *Client
	servers []*Server
	wg      sync.WaitGroup
}

func newRig(t *testing.T, n int, arrays *glwireArrays, loss float64) *rig {
	t.Helper()
	client, err := NewClient(ClientConfig{Width: testW, Height: testH, Arrays: arrays.table()})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{client: client}
	opts := rudp.DefaultOptions()
	opts.RTO = 10 * time.Millisecond
	for i := 0; i < n; i++ {
		srv, err := NewServer(ServerConfig{Width: testW, Height: testH})
		if err != nil {
			t.Fatal(err)
		}
		pcS, pcC := netsim.NewPair(netsim.LinkConfig{Loss: loss}, uint64(100+i))
		connC := rudp.New(pcC, pcS.Addr(), opts)
		connS := rudp.New(pcS, pcC.Addr(), opts)
		// Faster device for even indices: heterogeneity for Eq. 4.
		capability := 1000.0 + float64(i%2)*1000
		if err := client.AddService(srv.String(i), connC, capability, 2*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		r.servers = append(r.servers, srv)
		r.wg.Add(1)
		go func(s *Server, c *rudp.Conn) {
			defer r.wg.Done()
			_ = s.ServeWithTimeout(c, 500*time.Millisecond)
			_ = c.Close()
		}(srv, connS)
	}
	t.Cleanup(func() {
		_ = client.Close()
		r.wg.Wait()
	})
	return r
}

// String labels a server for AddService.
func (s *Server) String(i int) string {
	return "server-" + string(rune('A'+i))
}

// glwireArrays adapts a workload game's array table (or none).
type glwireArrays struct {
	game *workload.Game
}

func (g *glwireArrays) table() interface {
	ClientArray(uint64) ([]byte, bool)
} {
	if g.game == nil {
		return nil
	}
	return g.game.Arrays()
}

func TestEndToEndSingleServer(t *testing.T) {
	p, err := workload.ByID("G5")
	if err != nil {
		t.Fatal(err)
	}
	game := workload.NewGame(p, 1)
	r := newRig(t, 1, &glwireArrays{game: game}, 0)

	// Drive the game through the hooked sink, exactly as an app would.
	ln := hook.NewLinker()
	if err := r.client.Install(ln, "libgbooster.so"); err != nil {
		t.Fatal(err)
	}
	swap, err := hook.ResolveGL(ln, hook.LinkDirect, "eglSwapBuffers")
	if err != nil {
		t.Fatal(err)
	}
	_ = swap

	const frames = 6
	for f := 0; f < frames; f++ {
		frame := game.NextFrame()
		for _, cmd := range frame.Commands {
			fn, err := hook.ResolveGL(ln, hook.LinkDirect, cmd.Op.String())
			if err != nil {
				t.Fatalf("resolve %v: %v", cmd.Op, err)
			}
			fn(cmd)
		}
		if err := r.client.Err(); err != nil {
			t.Fatalf("frame %d sink error: %v", f, err)
		}
	}
	for f := 0; f < frames; f++ {
		got, err := r.client.NextFrame(5 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if got.Seq != uint64(f) {
			t.Fatalf("frame seq = %d, want %d (display order broken)", got.Seq, f)
		}
		if len(got.Pixels) != testW*testH*4 {
			t.Fatalf("frame size = %d", len(got.Pixels))
		}
	}
	st := r.client.Stats()
	if st.FramesSent != frames || st.FramesDisplayed != frames {
		t.Fatalf("stats %+v", st)
	}
	if st.WireBytes >= st.RawBytes {
		t.Fatalf("no wire reduction: raw %d wire %d", st.RawBytes, st.WireBytes)
	}
	if st.CacheHits == 0 {
		t.Fatal("command cache never hit across coherent frames")
	}
	srvStats := r.servers[0].Stats()
	if srvStats.FramesRendered != frames || srvStats.ExecErrors != 0 {
		t.Fatalf("server stats %+v", srvStats)
	}
}

func TestEndToEndFramesMatchLocalRendering(t *testing.T) {
	// The offloaded path must produce (lossily) the same images a local
	// GPU would: render the identical stream locally and compare PSNR.
	p, err := workload.ByID("G6")
	if err != nil {
		t.Fatal(err)
	}
	gameRemote := workload.NewGame(p, 9)
	gameLocal := workload.NewGame(p, 9)
	r := newRig(t, 1, &glwireArrays{game: gameRemote}, 0)
	sink := r.client.Sink()

	localGPU := gles.NewGPU(testW, testH)
	localEnc := newLocalResolver(gameLocal)

	const frames = 4
	for f := 0; f < frames; f++ {
		remoteFrame := gameRemote.NextFrame()
		for _, cmd := range remoteFrame.Commands {
			sink(cmd)
		}
		localFrame := gameLocal.NextFrame()
		localPix, err := localEnc.render(localGPU, localFrame.Commands)
		if err != nil {
			t.Fatalf("local render %d: %v", f, err)
		}
		got, err := r.client.NextFrame(5 * time.Second)
		if err != nil {
			t.Fatalf("remote frame %d: %v", f, err)
		}
		if psnr := turbo.PSNR(localPix, got.Pixels); psnr < 25 {
			t.Fatalf("frame %d PSNR = %.1f dB vs local rendering", f, psnr)
		}
	}
}

// localResolver renders a command stream locally, resolving deferred
// pointers through the same glwire path the client uses.
type localResolver struct {
	game *workload.Game
}

func newLocalResolver(g *workload.Game) *localResolver { return &localResolver{game: g} }

func (l *localResolver) render(gpu *gles.GPU, cmds []gles.Command) ([]byte, error) {
	enc := newFrameEncoder(l.game)
	recs, err := enc.encodeAll(cmds)
	if err != nil {
		return nil, err
	}
	for _, cmd := range recs {
		if _, err := gpu.Execute(cmd); err != nil {
			return nil, err
		}
	}
	out := make([]byte, len(gpu.FB.Pix))
	copy(out, gpu.FB.Pix)
	return out, nil
}

func TestEndToEndMultiDeviceConsistency(t *testing.T) {
	// Three servers; frames are dispatched by Eq. 4 while state
	// replicates everywhere. Afterwards every server's GL state
	// fingerprint must agree (§VI-B), and the client must have used
	// more than one server.
	p, err := workload.ByID("G5")
	if err != nil {
		t.Fatal(err)
	}
	game := workload.NewGame(p, 4)
	r := newRig(t, 3, &glwireArrays{game: game}, 0)
	sink := r.client.Sink()

	const frames = 12
	for f := 0; f < frames; f++ {
		for _, cmd := range game.NextFrame().Commands {
			sink(cmd)
		}
	}
	for f := 0; f < frames; f++ {
		got, err := r.client.NextFrame(5 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if got.Seq != uint64(f) {
			t.Fatalf("out-of-order display: got %d want %d", got.Seq, f)
		}
	}
	// State consistency across replicas.
	base := r.servers[0].Snapshot()
	for i, srv := range r.servers[1:] {
		if got := srv.Snapshot(); got != base {
			t.Fatalf("server %d state diverged:\n base=%+v\n got=%+v", i+1, base, got)
		}
	}
	// Work actually spread out.
	rendered := 0
	busy := 0
	for _, srv := range r.servers {
		st := srv.Stats()
		rendered += int(st.FramesRendered)
		if st.FramesRendered > 0 {
			busy++
		}
	}
	if rendered != frames {
		t.Fatalf("servers rendered %d frames, want %d", rendered, frames)
	}
	if busy < 2 {
		t.Fatalf("only %d servers did work; dispatch not spreading", busy)
	}
	if st := r.client.Stats(); st.StateBytes == 0 {
		t.Fatal("no state replication traffic recorded")
	}
}

func TestEndToEndSurvivesPacketLoss(t *testing.T) {
	p, err := workload.ByID("G6")
	if err != nil {
		t.Fatal(err)
	}
	game := workload.NewGame(p, 13)
	r := newRig(t, 1, &glwireArrays{game: game}, 0.1)
	sink := r.client.Sink()
	const frames = 5
	for f := 0; f < frames; f++ {
		for _, cmd := range game.NextFrame().Commands {
			sink(cmd)
		}
	}
	for f := 0; f < frames; f++ {
		if _, err := r.client.NextFrame(10 * time.Second); err != nil {
			t.Fatalf("frame %d lost under 10%% loss: %v", f, err)
		}
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Fatal("zero-size client accepted")
	}
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Fatal("zero-size server accepted")
	}
	c, err := NewClient(ClientConfig{Width: 8, Height: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Flushing a frame with no services is an error surfaced via Err.
	sink := c.Sink()
	sink(gles.CmdSwapBuffers())
	if err := c.Err(); !errors.Is(err, ErrClosed) {
		t.Fatalf("no-service flush error = %v", err)
	}
}

func TestServerRejectsBadMessages(t *testing.T) {
	srv, err := NewServer(ServerConfig{Width: 8, Height: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Handle(nil); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("nil message error = %v", err)
	}
	if _, err := srv.Handle([]byte{9, 0}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("bad type error = %v", err)
	}
	// Corrupt LZ4 payload.
	if _, err := srv.Handle(encodeMsg(MsgFrameBatch, 0, []byte{0xF0, 0x01})); err == nil {
		t.Fatal("corrupt payload accepted")
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	msg := encodeMsg(MsgEncodedFrame, 12345, []byte("payload"))
	typ, seq, payload, err := decodeMsg(msg)
	if err != nil || typ != MsgEncodedFrame || seq != 12345 || string(payload) != "payload" {
		t.Fatalf("round trip: %d %d %q %v", typ, seq, payload, err)
	}
	if _, _, _, err := decodeMsg([]byte{1}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("short message error = %v", err)
	}
}
