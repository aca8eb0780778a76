package gles_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/glwire"
	"github.com/gbooster/gbooster/internal/workload"
)

// TestWorkloadGolden pins the framebuffer the benchmark's three
// workload shapes leave after frame 120 (seed 1, streamed through the
// glwire encoder and decoder like the live uplink) to hashes taken from
// the per-pixel bounding-box rasterizer this package had before the
// span solver. Every band degree must land on the same bytes.
func TestWorkloadGolden(t *testing.T) {
	const frames = 120
	for _, tc := range []struct {
		id   string
		w, h int
		want string
	}{
		{"G1", 600, 480, "8646fba83e0d03dd20d5a03419ba306f9b92ae1c35e83bfeab9c24c74239433b"},
		{"A1", 600, 480, "66598dfb0af75d1a9e03f5f97ecf4cc469d88ac8587c6e023cdfa16b39baaf7d"},
		{"G5", 320, 240, "e9beb9301e49d12ae7fa1f30a772f6bb6168fc7b3d3383b99857258d9cf9a02a"},
	} {
		pars := []int{1, 2}
		if n := runtime.NumCPU(); n > 2 {
			pars = append(pars, n)
		}
		for _, par := range pars {
			t.Run(fmt.Sprintf("%s/%dx%d/par=%d", tc.id, tc.w, tc.h, par), func(t *testing.T) {
				prof, err := workload.ByID(tc.id)
				if err != nil {
					t.Fatal(err)
				}
				game := workload.NewGame(prof, 1)
				enc := glwire.NewEncoder(game.Arrays())
				var dec glwire.Decoder
				gpu := gles.NewGPU(tc.w, tc.h)
				gpu.SetParallelism(par)
				var buf []byte
				for f := 0; f < frames; f++ {
					buf, err = enc.EncodeAll(buf[:0], game.NextFrame().Commands)
					if err != nil {
						t.Fatalf("frame %d encode: %v", f, err)
					}
					cmds, err := dec.DecodeAll(buf)
					if err != nil {
						t.Fatalf("frame %d decode: %v", f, err)
					}
					if _, err := gpu.ExecuteAll(cmds); err != nil {
						t.Fatalf("frame %d execute: %v", f, err)
					}
				}
				sum := sha256.Sum256(gpu.FB.Pix)
				if got := hex.EncodeToString(sum[:]); got != tc.want {
					t.Fatalf("framebuffer sha256 = %s, want %s", got, tc.want)
				}
			})
		}
	}
}
