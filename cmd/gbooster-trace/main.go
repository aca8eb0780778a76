// Command gbooster-trace records a workload's intercepted GLES command
// stream to a trace file and replays traces on the software GPU — the
// apitrace/glretrace workflow for GBooster's wire format. Recording
// exercises the full interception path (deferred vertex pointers
// resolve exactly as they would on the wire); replay re-executes every
// frame and can dump the final framebuffer.
//
// Usage:
//
//	gbooster-trace record -workload G1 -frames 120 -o g1.trace
//	gbooster-trace replay -i g1.trace [-png last.png]
package main

import (
	"flag"
	"fmt"
	"image"
	"image/png"
	"io"
	"os"
	"time"

	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/glwire"
	"github.com/gbooster/gbooster/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: gbooster-trace record|replay [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbooster-trace:", err)
		os.Exit(1)
	}
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	workloadID := fs.String("workload", "G1", "catalog workload")
	frames := fs.Int("frames", 120, "frames to record")
	seed := fs.Uint64("seed", 1, "workload seed")
	out := fs.String("o", "out.trace", "trace file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prof, err := workload.ByID(*workloadID)
	if err != nil {
		return err
	}
	game := workload.NewGame(prof, *seed)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	tw, err := glwire.NewTraceWriter(f, game.Arrays())
	if err != nil {
		return err
	}
	for i := 0; i < *frames; i++ {
		if err := tw.WriteFrame(game.NextFrame().Commands); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	n, bytes := tw.Stats()
	fmt.Printf("recorded %d frames of %s to %s (%.1f KB, %.1f KB/frame)\n",
		n, *workloadID, *out, float64(bytes)/1024, float64(bytes)/float64(n)/1024)
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "out.trace", "trace file to replay")
	width := fs.Int("width", workload.StreamW, "framebuffer width")
	height := fs.Int("height", workload.StreamH, "framebuffer height")
	pngPath := fs.String("png", "", "write the final framebuffer to this PNG")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	tr, err := glwire.NewTraceReader(f)
	if err != nil {
		return err
	}
	gpu := gles.NewGPU(*width, *height)
	start := time.Now()
	var frames int
	for {
		cmds, err := tr.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if _, err := gpu.ExecuteAll(cmds); err != nil {
			return fmt.Errorf("frame %d: %w", frames, err)
		}
		frames++
	}
	gpu.Resolve() // a trace may end without a frame boundary
	elapsed := time.Since(start)
	fmt.Printf("replayed %d frames in %v (%.1f FPS), %d fragments shaded, %d commands\n",
		frames, elapsed.Round(time.Millisecond),
		float64(frames)/elapsed.Seconds(), gpu.FragmentsShaded, gpu.Ctx.Stats.Commands)
	if *pngPath != "" {
		img := image.NewRGBA(image.Rect(0, 0, *width, *height))
		copy(img.Pix, gpu.FB.Pix)
		out, err := os.Create(*pngPath)
		if err != nil {
			return err
		}
		defer func() { _ = out.Close() }()
		if err := png.Encode(out, img); err != nil {
			return err
		}
		fmt.Printf("wrote final framebuffer to %s\n", *pngPath)
	}
	return nil
}
