package gles

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/sim"
)

// TestExecuteNeverPanicsOnArbitraryCommands throws random commands —
// valid ops with garbage arguments — at the GPU. A real driver raises
// GL errors; it never crashes the process, and neither may this one.
func TestExecuteNeverPanicsOnArbitraryCommands(t *testing.T) {
	rng := sim.NewRNG(71)
	gpu := NewGPU(32, 32)
	for trial := 0; trial < 20000; trial++ {
		cmd := Command{
			Op: Op(rng.Intn(NumOps() + 4)), // includes invalid ops
		}
		for i := rng.Intn(8); i > 0; i-- {
			cmd.Ints = append(cmd.Ints, int32(rng.Uint64()))
		}
		for i := rng.Intn(20); i > 0; i-- {
			cmd.Floats = append(cmd.Floats, float32(rng.Norm(0, 100)))
		}
		if rng.Bool(0.4) {
			cmd.Data = make([]byte, rng.Intn(256))
			for i := range cmd.Data {
				cmd.Data[i] = byte(rng.Uint64())
			}
			cmd.DataLen = int32(len(cmd.Data))
		}
		_, _ = gpu.Execute(cmd) // errors fine, panics not
	}
	_, _ = gpu.Execute(CmdFinish()) // and whatever is still recorded resolves
}

// TestExecuteNeverPanicsOnHostileDraws targets the draw paths with
// arguments crafted to overrun buffers if bounds checks were missing.
func TestExecuteNeverPanicsOnHostileDraws(t *testing.T) {
	gpu := NewGPU(16, 16)
	setup := []Command{
		CmdCreateProgram(1), CmdUseProgram(1),
		CmdVertexAttribPointerResolved(LocPosition, 2, 0, FloatsToBytes([]float32{0, 0, 1, 0, 0, 1})),
		CmdEnableVertexAttribArray(LocPosition),
	}
	for _, c := range setup {
		if _, err := gpu.Execute(c); err != nil {
			t.Fatal(err)
		}
	}
	hostile := []Command{
		CmdDrawArrays(DrawModeTriangles, 0, 1<<30),
		CmdDrawArrays(DrawModeTriangles, -5, 10),
		CmdDrawArrays(DrawModeTriangles, 1<<30, 1<<30),
		CmdDrawElementsClient(DrawModeTriangles, []uint16{0, 1, 65535}),
		CmdDrawElementsVBO(DrawModeTriangles, 1<<30, 0),
		{Op: OpDrawElements, Ints: []int32{DrawModeTriangles, -1, IndexTypeUshort, 0}},
		CmdDrawArrays(DrawModeTriStrip, 0, 2), // too few for a triangle
	}
	for i, c := range hostile {
		if _, err := gpu.Execute(c); err == nil {
			// Some (like the strip with 2 vertices) legitimately no-op.
			continue
		} else {
			_ = i
		}
	}
	mustExec(t, gpu, CmdFinish())
}

// TestContextApplyNeverPanicsOnShortArgs drops each op's arguments
// entirely — the accessors must degrade, not panic.
func TestContextApplyNeverPanicsOnShortArgs(t *testing.T) {
	ctx := NewContext()
	for _, op := range AllOps() {
		_ = ctx.Apply(Command{Op: op})
	}
}

// hostileFloats are the values the guard band exists for.
var hostileFloats = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 3e38, -3e38,
}

// TestDrawDropsTrianglesOutsideGuardBand: a triangle with a non-finite
// or out-of-range vertex position — straight from the attribute data or
// produced by the MVP — is dropped before any pixel is touched, whatever
// the raster state, and costs no more than its setup.
func TestDrawDropsTrianglesOutsideGuardBand(t *testing.T) {
	const w, h = 48, 32
	tri := []float32{-0.5, -0.5, 0, 0.5, -0.5, 0, 0, 0.5, 0}
	identity := [16]float32{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1}
	newGPU := func(combo int) (*GPU, []byte) {
		gpu := setupDrawCtx(t, w, h)
		gpu.SetParallelism(2)
		mustExec(t, gpu, CmdClearColor(0.2, 0.3, 0.4, 1))
		mustResolve(t, gpu, CmdClear(ClearColorBit))
		if combo&1 != 0 {
			mustExec(t, gpu, CmdEnable(CapBlend))
		}
		if combo&2 != 0 {
			mustExec(t, gpu, CmdEnable(CapDepthTest))
		}
		if combo&4 != 0 {
			mustExec(t, gpu, CmdGenTexture(1))
			mustExec(t, gpu, CmdBindTexture(TexTarget2D, 1))
			mustExec(t, gpu, CmdTexImage2D(TexTarget2D, 0, 2, 2, bytes.Repeat([]byte{200}, 16)))
		}
		mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
		return gpu, append([]byte(nil), gpu.FB.Pix...)
	}
	// check fails if the last draw left a vertex outside the guard band
	// and still wrote or counted a fragment; it reports whether the
	// triangle was outside.
	check := func(gpu *GPU, before []byte, res ExecResult, what string) bool {
		t.Helper()
		for i := range gpu.scratch.verts {
			if !inGuardBand(&gpu.scratch.verts[i]) {
				if res.Fragments != 0 || !bytes.Equal(before, gpu.FB.Pix) {
					t.Fatalf("%s: vertex %+v is outside the guard band but %d fragments were shaded",
						what, gpu.scratch.verts[i], res.Fragments)
				}
				return true
			}
		}
		return false
	}
	start := time.Now()
	for combo := 0; combo < 8; combo++ {
		for _, bad := range hostileFloats {
			// One poisoned position component at a time. Every hostile x
			// or y must drop the triangle; a finite z (±3e38) may draw.
			for i := range tri {
				gpu, before := newGPU(combo)
				verts := append([]float32(nil), tri...)
				verts[i] = bad
				mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 3, 0, FloatsToBytes(verts)))
				res := mustResolve(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 3))
				what := fmt.Sprintf("combo %03b position[%d]=%v", combo, i, bad)
				finiteZ := i%3 == 2 && !math.IsNaN(float64(bad)) && !math.IsInf(float64(bad), 0)
				if dropped := check(gpu, before, res, what); !dropped && !finiteZ {
					t.Fatalf("%s: triangle was not dropped", what)
				}
			}
			// One poisoned MVP entry at a time; entries that leave the
			// position finite and in range may still draw.
			for i := range identity {
				gpu, before := newGPU(combo)
				m := identity
				m[i] = bad
				mustExec(t, gpu, CmdUniformMatrix4fv(LocMVP, m))
				mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 3, 0, FloatsToBytes(tri)))
				res := mustResolve(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 3))
				check(gpu, before, res, fmt.Sprintf("combo %03b mvp[%d]=%v", combo, i, bad))
			}
		}
	}
	// A vertex just past 2^24 pixels drops the triangle; one just inside
	// draws it.
	for _, tc := range []struct {
		x    float32
		draw bool
	}{{1 << 19, true}, {1 << 20, false}} { // NDC x * w/2 pixels
		gpu, before := newGPU(0)
		verts := append([]float32(nil), tri...)
		verts[3] = tc.x
		mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 3, 0, FloatsToBytes(verts)))
		res := mustResolve(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 3))
		if drew := res.Fragments != 0; drew != tc.draw || bytes.Equal(before, gpu.FB.Pix) == tc.draw {
			t.Fatalf("vertex at NDC x=%v: shaded %d fragments, want drawn=%v", tc.x, res.Fragments, tc.draw)
		}
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("hostile draws took %v: work is not bounded by the framebuffer", d)
	}
}

// TestDrawNeverPanicsOnHostileAttributes feeds NaN, infinities and
// near-overflow values through every float a draw reads — position,
// color and texcoord arrays of every component count, the MVP, the tint
// — under every raster-state combination. Colors and texcoords do not
// gate rasterization, so pixels may be written; nothing may panic and
// every pixel written must lie inside the scissor box.
func TestDrawNeverPanicsOnHostileAttributes(t *testing.T) {
	const w, h = 40, 30
	rng := sim.NewRNG(1729)
	value := func() float32 {
		if rng.Bool(0.3) {
			return hostileFloats[rng.Intn(len(hostileFloats))]
		}
		return float32(rng.Norm(0, 1))
	}
	floats := func(n int) []byte {
		out := make([]float32, n)
		for i := range out {
			out[i] = value()
		}
		return FloatsToBytes(out)
	}
	tex := make([]byte, 4*4*4)
	for i := range tex {
		tex[i] = byte(rng.Intn(256))
	}
	for trial := 0; trial < 3000; trial++ {
		gpu := setupDrawCtx(t, w, h)
		gpu.SetParallelism(1 + trial%3)
		combo := rng.Intn(16)
		if combo&1 != 0 {
			mustExec(t, gpu, CmdEnable(CapBlend))
		}
		if combo&2 != 0 {
			mustExec(t, gpu, CmdEnable(CapDepthTest))
		}
		if combo&4 != 0 {
			mustExec(t, gpu, CmdGenTexture(1))
			mustExec(t, gpu, CmdBindTexture(TexTarget2D, 1))
			mustExec(t, gpu, CmdTexImage2D(TexTarget2D, 0, 4, 4, tex))
		}
		if combo&8 != 0 {
			mustExec(t, gpu, CmdEnable(CapScissorTest))
			mustExec(t, gpu, CmdScissor(5, 5, 10, 10))
		}
		const nVerts = 9
		posSize, colSize, uvSize := int32(1+rng.Intn(4)), int32(1+rng.Intn(4)), int32(1+rng.Intn(4))
		mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, posSize, 0, floats(nVerts*int(posSize))))
		mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
		mustExec(t, gpu, CmdVertexAttribPointerResolved(LocColor, colSize, 0, floats(nVerts*int(colSize))))
		mustExec(t, gpu, CmdEnableVertexAttribArray(LocColor))
		mustExec(t, gpu, CmdVertexAttribPointerResolved(LocTexCoord, uvSize, 0, floats(nVerts*int(uvSize))))
		mustExec(t, gpu, CmdEnableVertexAttribArray(LocTexCoord))
		if rng.Bool(0.5) {
			var m [16]float32
			for i := range m {
				m[i] = value()
			}
			mustExec(t, gpu, CmdUniformMatrix4fv(LocMVP, m))
		}
		mustExec(t, gpu, CmdUniform4f(LocTint, value(), value(), value(), value()))
		before := append([]byte(nil), gpu.FB.Pix...)
		mode := int32(DrawModeTriangles)
		if rng.Bool(0.3) {
			mode = DrawModeTriStrip
		}
		if _, err := gpu.Execute(CmdDrawArrays(mode, 0, nVerts)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mustExec(t, gpu, CmdFinish())
		if combo&8 != 0 {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					inBox := x >= 5 && x < 15 && y >= h-15 && y < h-5
					i := (y*w + x) * 4
					if !inBox && !bytes.Equal(before[i:i+4], gpu.FB.Pix[i:i+4]) {
						t.Fatalf("trial %d: pixel (%d,%d) outside the scissor box written", trial, x, y)
					}
				}
			}
		}
	}
}
