package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/netsim"
	"github.com/gbooster/gbooster/internal/rudp"
)

// TestBurstBackpressureIsNotFailure pins the dispatch-time distinction
// between a saturated send window (backpressure: wait out the drain)
// and a dead device (failure: evict). A deliberately small transport
// window makes a burst of back-to-back flushes overfill the window
// deterministically; every frame must still ship — the only device
// must not be failure-reported into eviction with frames gap-skipped,
// which is exactly what the guard used to do under a burst.
func TestBurstBackpressureIsNotFailure(t *testing.T) {
	const w, h = 96, 64
	client, err := NewClient(ClientConfig{Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	srv, err := NewServer(ServerConfig{Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	// Window of 24 datagrams: one ~16 KB frame (~19 datagrams by the
	// guard's conservative raw-bytes estimate) fits an empty window,
	// but the second back-to-back flush lands on top of the first
	// frame's ~14 unacked datagrams and must see saturation.
	opts := rudp.DefaultOptions()
	opts.Window = 24
	pcS, pcC := netsim.NewPair(netsim.LinkConfig{}, 7)
	connC := rudp.New(pcC, pcS.Addr(), opts)
	connS := rudp.New(pcS, pcC.Addr(), opts)
	done := make(chan struct{})
	go func() {
		_ = srv.ServeWithTimeout(connS, 2*time.Second)
		_ = connS.Close()
		close(done)
	}()
	if err := client.AddService("dev", connC, 1000, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Uniform synthetic frames: a fresh incompressible 64×64 texture
	// upload every frame keeps each batch ~16 KB raw on the wire.
	rng := rand.New(rand.NewSource(7))
	sink := client.Sink()
	sink(gles.CmdGenTexture(1))
	sink(gles.CmdBindTexture(gles.TexTarget2D, 1))
	const frames = 10
	for f := 0; f < frames; f++ {
		pixels := make([]byte, 64*64*4)
		rng.Read(pixels)
		sink(gles.CmdTexImage2D(gles.TexTarget2D, 0, 64, 64, pixels))
		sink(gles.CmdClearColor(float32(f)/frames, 0.2, 0.4, 1))
		sink(gles.CmdClear(gles.ClearColorBit))
		sink(gles.CmdSwapBuffers())
	}
	if err := client.Err(); err != nil {
		t.Fatalf("sink error: %v (stats %+v)", err, client.Stats())
	}
	for f := 0; f < frames; f++ {
		if _, err := client.NextFrame(10 * time.Second); err != nil {
			t.Fatalf("frame %d: %v (stats %+v)", f, err, client.Stats())
		}
	}
	st := client.Stats()
	if st.FramesSent != frames || st.FramesDisplayed != frames {
		t.Fatalf("sent=%d displayed=%d, want %d", st.FramesSent, st.FramesDisplayed, frames)
	}
	if st.FramesSkipped != 0 || st.Evictions != 0 {
		t.Fatalf("burst misread as device failure: skipped=%d evictions=%d",
			st.FramesSkipped, st.Evictions)
	}
	_ = client.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not exit")
	}
}
