package gles

import (
	"bytes"
	"fmt"
	"math"
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
	mustExec(t, gpu, CmdFinish())
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

// resolveFrame is a stream that crosses every place a recorded frame
// can go wrong: a depth clear between depth-tested draws, a scissored
// clear between draws, a texture re-uploaded after a draw that sampled
// it — left half red, right half blue, so the re-upload is visible —
// and, after SwapBuffers, draws of the next frame. The draws before the
// swap are in head, the rest in tail.
func resolveFrame(rng *sim.RNG, w, h int) (head, tail []Command) {
	solid := func(r, g, b byte) []byte { return bytes.Repeat([]byte{r, g, b, 255}, 4) }
	left := FloatsToBytes([]float32{-0.9, -0.9, -0.1, -0.9, -0.9, 0.9, -0.1, -0.9, -0.1, 0.9, -0.9, 0.9})
	right := FloatsToBytes([]float32{0.1, -0.9, 0.9, -0.9, 0.1, 0.9, 0.9, -0.9, 0.9, 0.9, 0.1, 0.9})
	uvs := FloatsToBytes([]float32{0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1})
	soup := func(n int) []Command {
		verts := triangleSoup(rng, n)
		return []Command{
			CmdVertexAttribPointerResolved(LocPosition, 3, 0, FloatsToBytes(verts)),
			CmdDrawArrays(DrawModeTriangles, 0, int32(len(verts)/3)),
		}
	}
	head = []Command{
		CmdClearColor(0.1, 0.2, 0.3, 1),
		CmdClear(ClearColorBit | ClearDepthBit),
		CmdEnableVertexAttribArray(LocPosition),
		CmdEnable(CapDepthTest),
		CmdUniform4f(LocTint, 0.9, 0.4, 0.2, 1),
	}
	head = append(head, soup(30)...)
	head = append(head, CmdClear(ClearDepthBit), CmdUniform4f(LocTint, 0.2, 0.9, 0.4, 1))
	head = append(head, soup(30)...)
	head = append(head,
		CmdEnable(CapScissorTest),
		CmdScissor(int32(w/3), int32(h/5), int32(w/2), int32(h/3)),
		CmdClearColor(0.8, 0.8, 0.1, 1),
		CmdClear(ClearColorBit),
		CmdDisable(CapScissorTest),
		CmdEnable(CapBlend),
		CmdBlendFunc(BlendSrcAlpha, BlendOneMinusSrcA),
		CmdUniform4f(LocTint, 0.3, 0.3, 1, 0.5),
	)
	head = append(head, soup(20)...)
	head = append(head,
		CmdDisable(CapDepthTest),
		CmdDisable(CapBlend),
		CmdUniform4f(LocTint, 1, 1, 1, 1),
		CmdGenTexture(1),
		CmdBindTexture(TexTarget2D, 1),
		CmdUniform1i(LocSampler, 0),
		CmdTexImage2D(TexTarget2D, 0, 2, 2, solid(255, 0, 0)),
		CmdVertexAttribPointerResolved(LocTexCoord, 2, 0, uvs),
		CmdEnableVertexAttribArray(LocTexCoord),
		CmdVertexAttribPointerResolved(LocPosition, 2, 0, left),
		CmdDrawArrays(DrawModeTriangles, 0, 6),
		CmdTexImage2D(TexTarget2D, 0, 2, 2, solid(0, 0, 255)),
		CmdVertexAttribPointerResolved(LocPosition, 2, 0, right),
		CmdDrawArrays(DrawModeTriangles, 0, 6),
		CmdDisableVertexAttribArray(LocTexCoord),
		CmdBindTexture(TexTarget2D, 0),
	)
	tail = []Command{CmdEnable(CapBlend), CmdUniform4f(LocTint, 1, 0.5, 0.1, 0.6)}
	tail = append(tail, soup(15)...)
	return head, tail
}

// TestFrameResolveByteIdentical is the frame-level determinism
// property: a frame recorded whole and resolved in row bands at degree
// 1, 2, 3 or 4 leaves the color buffer, the depth buffer and the
// fragment count exactly as rasterizing every clear and draw the moment
// it executes would. Draws after SwapBuffers in the same ExecuteAll are
// not in the swapped frame; the next resolve adds them.
func TestFrameResolveByteIdentical(t *testing.T) {
	const w, h = 160, 120
	type state struct {
		pix   []byte
		depth []float32
		frags int64
	}
	snap := func(gpu *GPU) state {
		return state{append([]byte(nil), gpu.FB.Pix...), append([]float32(nil), gpu.FB.Depth...), gpu.FragmentsShaded}
	}
	same := func(a, b state) bool {
		if !bytes.Equal(a.pix, b.pix) || a.frags != b.frags || len(a.depth) != len(b.depth) {
			return false
		}
		for i := range a.depth {
			if math.Float32bits(a.depth[i]) != math.Float32bits(b.depth[i]) {
				return false
			}
		}
		return true
	}
	for seed := uint64(1); seed <= 3; seed++ {
		head, tail := resolveFrame(sim.NewRNG(seed), w, h)

		// The reference resolves after every command, serially.
		eager := setupDrawCtx(t, w, h)
		for _, cmd := range head {
			mustResolve(t, eager, cmd)
			if cmd.Op == OpClear && cmd.Int(0)&ClearDepthBit != 0 {
				for i, z := range eager.FB.Depth {
					if z != 1 {
						t.Fatalf("seed %d: depth %d is %v after a depth clear", seed, i, z)
					}
				}
			}
		}
		if r, _, b, _ := eager.FB.At(w/4, h/2); r != 255 || b != 0 {
			t.Fatalf("seed %d: the draw before the re-upload is not red", seed)
		}
		if r, _, b, _ := eager.FB.At(3*w/4, h/2); r != 0 || b != 255 {
			t.Fatalf("seed %d: the draw after the re-upload is not blue", seed)
		}
		atSwap := snap(eager)
		for _, cmd := range tail {
			mustResolve(t, eager, cmd)
		}
		final := snap(eager)
		for _, par := range []int{1, 2, 3, 4} {
			gpu := setupDrawCtx(t, w, h)
			gpu.SetParallelism(par)
			for _, cmd := range head {
				if res := mustExec(t, gpu, cmd); res.Fragments != 0 {
					t.Fatalf("seed %d par=%d: recording %v shaded %d fragments", seed, par, cmd, res.Fragments)
				}
			}
			gpu = setupDrawCtx(t, w, h)
			gpu.SetParallelism(par)
			res, err := gpu.ExecuteAll(append(append(append([]Command(nil), head...), CmdSwapBuffers()), tail...))
			if err != nil {
				t.Fatal(err)
			}
			if !res.FrameDone || res.Fragments != atSwap.frags {
				t.Fatalf("seed %d par=%d: ExecuteAll reported %+v, want %d fragments", seed, par, res, atSwap.frags)
			}
			if !same(snap(gpu), atSwap) {
				t.Fatalf("seed %d par=%d: swapped frame differs from rasterizing every command as it executes", seed, par)
			}
			if res := mustExec(t, gpu, CmdFinish()); res.Fragments != final.frags-atSwap.frags {
				t.Fatalf("seed %d par=%d: Finish reported %d fragments, want %d", seed, par, res.Fragments, final.frags-atSwap.frags)
			}
			if !same(snap(gpu), final) {
				t.Fatalf("seed %d par=%d: draws after SwapBuffers resolved differently", seed, par)
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

// BenchmarkRaster measures fill throughput across worker degrees on two
// frame shapes: a 120-triangle soup at 1280x720, whose one draw covers
// the screen many times over, and a G1-shaped frame of one clear plus
// 120 textured 27-pixel sprite quads at the paper's streaming
// resolution. Every iteration ends with SwapBuffers, so it times the
// resolve — the whole frame's raster in one fan-out of row bands — and
// not only the recording. Both must get faster with a second core; the
// par=1 series is the serial reference the parallel degrees are
// compared against.
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
			frame := []Command{CmdDrawArrays(DrawModeTriangles, 0, int32(len(soup)/3)), CmdSwapBuffers()}
			b.SetBytes(int64(w * h * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, cmd := range frame {
					mustExec(b, gpu, cmd)
				}
			}
		})
	}
	for _, par := range benchDegrees() {
		b.Run(fmt.Sprintf("sprites-600x480/par=%d", par), func(b *testing.B) {
			gpu := setupDrawCtx(b, 600, 480)
			gpu.SetParallelism(par)
			frame := append(spriteFrame(gpu, sim.NewRNG(12), 120, 27), CmdSwapBuffers())
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
