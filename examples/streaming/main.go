// Streaming: run the real data plane end to end in one process — a
// service-device server and a hooked client exchanging genuine command
// streams and turbo-encoded frames over loopback UDP — and write the
// final rendered frame to a PNG.
//
// This is the §IV pipeline with nothing mocked: the linker resolves the
// game's GL calls into the preloaded wrapper, commands serialize with
// deferred glVertexAttribPointer handling, the mirrored LRU cache and
// LZ4 shrink the uplink, reliable UDP carries both directions, the
// server replays everything on the software GPU, and the turbo codec
// ships tile deltas back.
package main

import (
	"fmt"
	"image/png"
	"os"
	"time"

	"github.com/gbooster/gbooster"
)

const (
	width  = 320
	height = 240
	frames = 90
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "streaming:", err)
		os.Exit(1)
	}
}

func run() error {
	srv, err := gbooster.NewStreamServer(gbooster.StreamServerConfig{Width: width, Height: height})
	if err != nil {
		return err
	}
	serverErr := make(chan error, 1)
	go func() { serverErr <- srv.ServeUDP("127.0.0.1:4872") }()
	defer func() { _ = srv.Close() }()
	time.Sleep(200 * time.Millisecond) // let the listener come up

	player, err := gbooster.NewPlayer(gbooster.PlayerConfig{Workload: "G6", Width: width, Height: height, Seed: 42})
	if err != nil {
		return err
	}
	defer func() { _ = player.Close() }()
	if err := player.Connect("127.0.0.1:4872"); err != nil {
		return err
	}

	start := time.Now()
	img, err := player.StepFrame(10 * time.Second)
	if err != nil {
		return err
	}
	for f := 1; f < frames; f++ {
		img, err = player.StepFrame(10 * time.Second)
		if err != nil {
			return fmt.Errorf("frame %d: %w", f, err)
		}
	}
	elapsed := time.Since(start)

	st := player.Snapshot().PlayerStats
	fmt.Printf("streamed %d frames of Cut the Rope over loopback UDP in %v (%.1f FPS)\n",
		frames, elapsed.Round(time.Millisecond), float64(frames)/elapsed.Seconds())
	fmt.Printf("frames sent=%d displayed=%d; uplink %0.1f KB/frame raw -> %0.1f KB/frame on the wire\n",
		st.FramesSent, st.FramesShown, float64(st.RawBytes)/float64(frames)/1024, float64(st.WireBytes)/float64(frames)/1024)

	out, err := os.Create("frame.png")
	if err != nil {
		return err
	}
	defer func() { _ = out.Close() }()
	if err := png.Encode(out, img); err != nil {
		return err
	}
	fmt.Println("wrote the final displayed frame to frame.png")
	select {
	case err := <-serverErr:
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
	default:
	}
	return nil
}
