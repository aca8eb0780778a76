package gles

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"github.com/gbooster/gbooster/internal/sim"
)

// uniqueDegrees dedupes a degree list (NumCPU may collide with the
// fixed entries).
func uniqueDegrees(ds []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, d := range ds {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

func parDegrees() []int {
	return uniqueDegrees([]int{1, 2, 3, runtime.NumCPU()})
}

func benchDegrees() []int {
	return uniqueDegrees([]int{1, 2, 4, runtime.NumCPU()})
}

// triangleSoup emits count random triangles as a flat xyz vertex slice,
// spanning the NDC cube with some spill past the edges so clipping is
// exercised too.
func triangleSoup(rng *sim.RNG, count int) []float32 {
	verts := make([]float32, 0, count*9)
	coord := func() float32 { return float32(rng.Intn(3000))/1000 - 1.5 }
	depth := func() float32 { return float32(rng.Intn(2000))/1000 - 1 }
	for i := 0; i < count; i++ {
		for v := 0; v < 3; v++ {
			verts = append(verts, coord(), coord(), depth())
		}
	}
	return verts
}

// renderScene draws a randomized stream — clears, soups, a strip, a
// textured blended quad, a scissored pass — at the given band degree
// and returns the final framebuffer.
func renderScene(t *testing.T, w, h, par int, seed uint64) *GPU {
	t.Helper()
	rng := sim.NewRNG(seed)
	gpu := setupDrawCtx(t, w, h)
	gpu.SetParallelism(par)
	mustExec(t, gpu, CmdClearColor(0.1, 0.2, 0.3, 1))
	mustExec(t, gpu, CmdClear(ClearColorBit|ClearDepthBit))
	mustExec(t, gpu, CmdEnable(CapDepthTest))

	// Opaque depth-tested soup.
	mustExec(t, gpu, CmdUniform4f(LocTint, 0.9, 0.4, 0.2, 1))
	soup := triangleSoup(rng, 40)
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 3, 0, FloatsToBytes(soup)))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
	mustExec(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, int32(len(soup)/3)))

	// Blended translucent soup on top: blend order is visible in the
	// output, so this catches any reordering across bands.
	mustExec(t, gpu, CmdEnable(CapBlend))
	mustExec(t, gpu, CmdBlendFunc(BlendSrcAlpha, BlendOneMinusSrcA))
	mustExec(t, gpu, CmdUniform4f(LocTint, 0.2, 0.8, 0.6, 0.5))
	soup2 := triangleSoup(rng, 30)
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 3, 0, FloatsToBytes(soup2)))
	mustExec(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, int32(len(soup2)/3)))

	// Triangle strip (odd-index winding swap must survive assembly).
	mustExec(t, gpu, CmdUniform4f(LocTint, 0.5, 0.5, 1, 0.7))
	strip := FloatsToBytes([]float32{-0.9, -0.9, 0, 0.9, -0.7, 0.2, -0.8, 0.6, -0.1, 0.7, 0.9, 0.4})
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 3, 0, strip))
	mustExec(t, gpu, CmdDrawArrays(DrawModeTriStrip, 0, 4))

	// Textured blended quad.
	mustExec(t, gpu, CmdGenTexture(1))
	mustExec(t, gpu, CmdBindTexture(TexTarget2D, 1))
	tex := make([]byte, 8*8*4)
	for i := range tex {
		tex[i] = byte(rng.Intn(256))
	}
	mustExec(t, gpu, CmdTexImage2D(TexTarget2D, 0, 8, 8, tex))
	mustExec(t, gpu, CmdUniform1i(LocSampler, 0))
	mustExec(t, gpu, CmdUniform4f(LocTint, 1, 1, 1, 0.8))
	quad := FloatsToBytes([]float32{-0.6, -0.6, 0.6, -0.6, -0.6, 0.6, 0.6, -0.6, 0.6, 0.6, -0.6, 0.6})
	uvs := FloatsToBytes([]float32{0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1})
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 2, 0, quad))
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocTexCoord, 2, 0, uvs))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocTexCoord))
	mustExec(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 6))

	// Scissored final pass: the scissor box cuts across band
	// boundaries.
	mustExec(t, gpu, CmdEnable(CapScissorTest))
	mustExec(t, gpu, CmdScissor(int32(w/4), int32(h/4), int32(w/2), int32(h/2)))
	mustExec(t, gpu, CmdUniform4f(LocTint, 1, 0.3, 0.3, 0.4))
	soup3 := triangleSoup(rng, 10)
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 3, 0, FloatsToBytes(soup3)))
	mustExec(t, gpu, CmdDisableVertexAttribArray(LocTexCoord))
	mustExec(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, int32(len(soup3)/3)))
	return gpu
}

// TestParallelRasterByteIdentical is the raster half of the tentpole
// determinism property: every band degree must reproduce the serial
// framebuffer (color and depth) and fragment count exactly.
func TestParallelRasterByteIdentical(t *testing.T) {
	const w, h = 160, 120
	for seed := uint64(1); seed <= 4; seed++ {
		ref := renderScene(t, w, h, 1, seed)
		for _, par := range parDegrees()[1:] {
			t.Run(fmt.Sprintf("seed=%d/par=%d", seed, par), func(t *testing.T) {
				gpu := renderScene(t, w, h, par, seed)
				if !bytes.Equal(ref.FB.Pix, gpu.FB.Pix) {
					t.Fatal("color buffer diverged from serial render")
				}
				for i := range ref.FB.Depth {
					if ref.FB.Depth[i] != gpu.FB.Depth[i] {
						t.Fatalf("depth buffer diverged at %d", i)
					}
				}
				if ref.FragmentsShaded != gpu.FragmentsShaded {
					t.Fatalf("fragments shaded: serial %d, par=%d %d",
						ref.FragmentsShaded, par, gpu.FragmentsShaded)
				}
			})
		}
	}
}

// TestFanOutFollowsDrawSize: whether a draw is split across band
// workers depends on the pixels the draw covers, not on the framebuffer
// it lands in. A sprite-sized draw on a large framebuffer stays on the
// calling goroutine, a screen-filling one fans out, and both produce the
// serial render's bytes and fragment count.
func TestFanOutFollowsDrawSize(t *testing.T) {
	for _, tc := range []struct {
		par, boxPixels int
		want           bool
	}{
		{1, 1 << 30, false},
		{2, 0, false},
		{2, 2 * 27 * 27, false}, // a G1 sprite quad
		{2, minParallelPixels - 1, false},
		{2, minParallelPixels, true},
		{8, 2 * 1280 * 720, true},
	} {
		if got := fanOut(tc.par, tc.boxPixels); got != tc.want {
			t.Errorf("fanOut(par=%d, boxPixels=%d) = %v, want %v", tc.par, tc.boxPixels, got, tc.want)
		}
	}

	const w, h = 600, 480
	quad := func(size float32) []byte {
		return FloatsToBytes([]float32{-size, -size, size, -size, -size, size, size, -size, size, size, -size, size})
	}
	for _, tc := range []struct {
		name    string
		size    float32
		fansOut bool
	}{{"sprite", 0.05, false}, {"fullscreen", 1, true}} {
		var ref *GPU
		for _, par := range []int{1, 8} {
			gpu := setupDrawCtx(t, w, h)
			gpu.SetParallelism(par)
			mustExec(t, gpu, CmdEnable(CapBlend))
			mustExec(t, gpu, CmdUniform4f(LocTint, 0.9, 0.5, 0.1, 0.6))
			mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 2, 0, quad(tc.size)))
			mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
			mustExec(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 6))
			boxPixels := 0
			for i := range gpu.scratch.tris {
				boxPixels += gpu.scratch.tris[i].box.Dx() * gpu.scratch.tris[i].box.Dy()
			}
			if got := fanOut(par, boxPixels); got != (tc.fansOut && par > 1) {
				t.Fatalf("%s par=%d: %d box pixels, fanOut=%v", tc.name, par, boxPixels, got)
			}
			if ref == nil {
				ref = gpu
				continue
			}
			if !bytes.Equal(ref.FB.Pix, gpu.FB.Pix) || ref.FragmentsShaded != gpu.FragmentsShaded {
				t.Fatalf("%s: par=%d render diverged from serial (%d vs %d fragments)",
					tc.name, par, gpu.FragmentsShaded, ref.FragmentsShaded)
			}
		}
	}
}

// TestGPUSetParallelismDegree: n <= 0 resolves to the machine width.
func TestGPUSetParallelismDegree(t *testing.T) {
	gpu := NewGPU(4, 4)
	if gpu.par != 0 {
		t.Fatalf("new GPU par = %d, want serial default", gpu.par)
	}
	gpu.SetParallelism(0)
	if gpu.par != runtime.NumCPU() {
		t.Fatalf("SetParallelism(0) -> %d, want NumCPU", gpu.par)
	}
	gpu.SetParallelism(1)
	if gpu.par != 1 {
		t.Fatalf("SetParallelism(1) -> %d", gpu.par)
	}
}

// BenchmarkRaster measures fill throughput across worker degrees on the
// two draw shapes that sit either side of the fan-out floor: a
// 120-triangle soup at the paper's streaming resolution, whose one draw
// covers the screen many times over and must speed up with a second
// core, and a G1-shaped frame of one clear plus 120 textured 27-pixel
// sprite quads, each a draw far too small to split, which must cost the
// same at every degree. The par=1 series is the serial reference the
// parallel degrees are compared against.
func BenchmarkRaster(b *testing.B) {
	const w, h = 1280, 720
	rng := sim.NewRNG(11)
	soup := triangleSoup(rng, 120)
	for _, par := range benchDegrees() {
		b.Run(fmt.Sprintf("%dx%d/par=%d", w, h, par), func(b *testing.B) {
			gpu := setupDrawCtx(b, w, h)
			gpu.SetParallelism(par)
			mustExec(b, gpu, CmdUniform4f(LocTint, 0.9, 0.5, 0.3, 1))
			mustExec(b, gpu, CmdVertexAttribPointerResolved(LocPosition, 3, 0, FloatsToBytes(soup)))
			mustExec(b, gpu, CmdEnableVertexAttribArray(LocPosition))
			draw := CmdDrawArrays(DrawModeTriangles, 0, int32(len(soup)/3))
			b.SetBytes(int64(w * h * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustExec(b, gpu, draw)
			}
		})
	}
	for _, par := range benchDegrees() {
		b.Run(fmt.Sprintf("sprites-600x480/par=%d", par), func(b *testing.B) {
			gpu := setupDrawCtx(b, 600, 480)
			gpu.SetParallelism(par)
			frame := spriteFrame(gpu, sim.NewRNG(12), 120, 27)
			b.SetBytes(600 * 480 * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, cmd := range frame {
					mustExec(b, gpu, cmd)
				}
			}
		})
	}
}

// spriteFrame sets gpu up the way workload.Game does — blending on, a
// 32x32 texture, an interleaved (pos, uv) unit-quad VBO — and returns
// one frame's commands: a clear, then count quads of size pixels each,
// placed by its own MVP.
func spriteFrame(gpu *GPU, rng *sim.RNG, count int, size float32) []Command {
	tex := make([]byte, 32*32*4)
	for i := range tex {
		tex[i] = byte(rng.Intn(256))
		if i%4 == 3 {
			tex[i] = 255 // opaque, like the workload's textures: blending is on but never taken
		}
	}
	quad := FloatsToBytes([]float32{
		-0.5, -0.5, 0, 0, 0.5, -0.5, 1, 0, -0.5, 0.5, 0, 1,
		0.5, -0.5, 1, 0, 0.5, 0.5, 1, 1, -0.5, 0.5, 0, 1,
	})
	for _, cmd := range []Command{
		CmdEnable(CapBlend),
		CmdGenTexture(1), CmdBindTexture(TexTarget2D, 1), CmdTexImage2D(TexTarget2D, 0, 32, 32, tex),
		CmdGenBuffer(1), CmdBindBuffer(BufTargetArray, 1), CmdBufferData(BufTargetArray, quad, UsageStaticDraw),
		CmdVertexAttribPointerVBO(LocPosition, 2, 16, 0, 1), CmdEnableVertexAttribArray(LocPosition),
		CmdVertexAttribPointerVBO(LocTexCoord, 2, 16, 8, 1), CmdEnableVertexAttribArray(LocTexCoord),
	} {
		if _, err := gpu.Execute(cmd); err != nil {
			panic(err)
		}
	}
	sx, sy := 2*size/float32(gpu.FB.W), 2*size/float32(gpu.FB.H)
	frame := []Command{CmdClear(ClearColorBit)}
	for i := 0; i < count; i++ {
		x, y := float32(rng.Float64()*2-1), float32(rng.Float64()*2-1)
		frame = append(frame,
			CmdUniformMatrix4fv(LocMVP, [16]float32{sx, 0, 0, 0, 0, sy, 0, 0, 0, 0, 1, 0, x, y, 0, 1}),
			CmdDrawArrays(DrawModeTriangles, 0, 6))
	}
	return frame
}
