package gles

import (
	"testing"
	"testing/quick"
)

// setupDrawCtx builds a GPU with a linked program and viewport covering
// the whole framebuffer.
func setupDrawCtx(t testing.TB, w, h int) *GPU {
	t.Helper()
	gpu := NewGPU(w, h)
	for _, cmd := range []Command{
		CmdViewport(0, 0, int32(w), int32(h)),
		CmdCreateShader(ShaderTypeVertex, 1),
		CmdShaderSource(1, "attribute vec2 aPosition; uniform mat4 uMVP;"),
		CmdCompileShader(1),
		CmdCreateShader(ShaderTypeFragment, 2),
		CmdShaderSource(2, "uniform vec4 uTint; uniform sampler2D uTexture;"),
		CmdCompileShader(2),
		CmdCreateProgram(1),
		CmdAttachShader(1, 1),
		CmdAttachShader(1, 2),
		CmdLinkProgram(1),
		CmdUseProgram(1),
	} {
		if _, err := gpu.Execute(cmd); err != nil {
			t.Fatalf("setup %v: %v", cmd, err)
		}
	}
	return gpu
}

func drawFullScreenQuad(t *testing.T, gpu *GPU) {
	t.Helper()
	quad := FloatsToBytes([]float32{-1, -1, 1, -1, -1, 1, 1, -1, 1, 1, -1, 1})
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 2, 0, quad))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
	mustResolve(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 6))
}

func mustExec(t testing.TB, gpu *GPU, cmd Command) ExecResult {
	t.Helper()
	res, err := gpu.Execute(cmd)
	if err != nil {
		t.Fatalf("execute %v: %v", cmd, err)
	}
	return res
}

// mustResolve executes cmd, then a Finish that resolves the recording
// into the framebuffer, and returns cmd's result with the fragments the
// resolve shaded: what cmd shaded, when nothing else was recorded.
func mustResolve(t testing.TB, gpu *GPU, cmd Command) ExecResult {
	t.Helper()
	res := mustExec(t, gpu, cmd)
	res.Fragments += mustExec(t, gpu, CmdFinish()).Fragments
	return res
}

func TestClearFillsFramebuffer(t *testing.T) {
	gpu := NewGPU(8, 8)
	mustExec(t, gpu, CmdClearColor(1, 0, 0, 1))
	res := mustResolve(t, gpu, CmdClear(ClearColorBit|ClearDepthBit))
	if res.Fragments != 64 {
		t.Fatalf("clear fragments = %d, want 64", res.Fragments)
	}
	r, g, b, a := gpu.FB.At(3, 3)
	if r != 255 || g != 0 || b != 0 || a != 255 {
		t.Fatalf("cleared pixel = %d,%d,%d,%d, want red", r, g, b, a)
	}
	for _, d := range gpu.FB.Depth {
		if d != 1 {
			t.Fatal("depth not cleared to far plane")
		}
	}
}

func TestDrawFullScreenQuadCoversFramebuffer(t *testing.T) {
	gpu := setupDrawCtx(t, 16, 16)
	mustExec(t, gpu, CmdUniform4f(LocTint, 0, 1, 0, 1))
	drawFullScreenQuad(t, gpu)
	covered := 0
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			_, g, _, _ := gpu.FB.At(x, y)
			if g == 255 {
				covered++
			}
		}
	}
	if covered < 16*16*95/100 {
		t.Fatalf("full-screen quad covered only %d/256 pixels", covered)
	}
	if gpu.FragmentsShaded < int64(covered) {
		t.Fatalf("FragmentsShaded = %d < covered %d", gpu.FragmentsShaded, covered)
	}
}

func TestDrawRespectsWindingNormalization(t *testing.T) {
	// Both CW and CCW triangles must rasterize (no silent culling).
	for name, verts := range map[string][]float32{
		"ccw": {-1, -1, 1, -1, 0, 1},
		"cw":  {-1, -1, 0, 1, 1, -1},
	} {
		gpu := setupDrawCtx(t, 16, 16)
		mustExec(t, gpu, CmdUniform4f(LocTint, 1, 1, 1, 1))
		mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 2, 0, FloatsToBytes(verts)))
		mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
		res := mustResolve(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 3))
		if res.Fragments == 0 {
			t.Errorf("%s triangle shaded no fragments", name)
		}
	}
}

func TestDrawDegenerateTriangleShadesNothing(t *testing.T) {
	gpu := setupDrawCtx(t, 16, 16)
	line := FloatsToBytes([]float32{-1, -1, 0, 0, 1, 1}) // collinear
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 2, 0, line))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
	res := mustResolve(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 3))
	if res.Fragments != 0 {
		t.Fatalf("degenerate triangle shaded %d fragments", res.Fragments)
	}
}

func TestDrawOffscreenTriangleClipped(t *testing.T) {
	gpu := setupDrawCtx(t, 16, 16)
	off := FloatsToBytes([]float32{5, 5, 6, 5, 5, 6}) // entirely outside NDC
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 2, 0, off))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
	res := mustResolve(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 3))
	if res.Fragments != 0 {
		t.Fatalf("offscreen triangle shaded %d fragments", res.Fragments)
	}
}

func TestVertexColorInterpolation(t *testing.T) {
	gpu := setupDrawCtx(t, 32, 32)
	quad := FloatsToBytes([]float32{-1, -1, 1, -1, -1, 1, 1, -1, 1, 1, -1, 1})
	colors := FloatsToBytes([]float32{
		1, 0, 0, 1 /**/, 1, 0, 0, 1 /**/, 1, 0, 0, 1,
		1, 0, 0, 1 /**/, 1, 0, 0, 1 /**/, 1, 0, 0, 1,
	})
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 2, 0, quad))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocColor, 4, 0, colors))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocColor))
	mustResolve(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 6))
	r, g, _, _ := gpu.FB.At(16, 16)
	if r != 255 || g != 0 {
		t.Fatalf("vertex-colored pixel = r%d g%d, want red", r, g)
	}
}

func TestTexturedDraw(t *testing.T) {
	gpu := setupDrawCtx(t, 16, 16)
	// 1x1 blue texture.
	mustExec(t, gpu, CmdGenTexture(1))
	mustExec(t, gpu, CmdBindTexture(TexTarget2D, 1))
	mustExec(t, gpu, CmdTexImage2D(TexTarget2D, 0, 1, 1, []byte{0, 0, 255, 255}))
	mustExec(t, gpu, CmdUniform1i(LocSampler, 0))
	quad := FloatsToBytes([]float32{-1, -1, 1, -1, -1, 1, 1, -1, 1, 1, -1, 1})
	uvs := FloatsToBytes([]float32{0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 1})
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 2, 0, quad))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocTexCoord, 2, 0, uvs))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocTexCoord))
	mustResolve(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 6))
	r, g, b, _ := gpu.FB.At(8, 8)
	if r != 0 || g != 0 || b != 255 {
		t.Fatalf("textured pixel = %d,%d,%d, want blue", r, g, b)
	}
}

func TestDepthTest(t *testing.T) {
	gpu := setupDrawCtx(t, 16, 16)
	mustExec(t, gpu, CmdEnable(CapDepthTest))
	mustResolve(t, gpu, CmdClear(ClearDepthBit))
	tri := func(z float32) []byte {
		return FloatsToBytes([]float32{-1, -1, z, 1, -1, z, 0, 1, z})
	}
	// Near red triangle first.
	mustExec(t, gpu, CmdUniform4f(LocTint, 1, 0, 0, 1))
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 3, 0, tri(-0.5)))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
	mustResolve(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 3))
	// Far green triangle second must be rejected by the depth test.
	mustExec(t, gpu, CmdUniform4f(LocTint, 0, 1, 0, 1))
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 3, 0, tri(0.5)))
	res := mustResolve(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 3))
	if res.Fragments != 0 {
		t.Fatalf("occluded triangle shaded %d fragments", res.Fragments)
	}
	r, g, _, _ := gpu.FB.At(8, 10)
	if r != 255 || g != 0 {
		t.Fatalf("depth-tested pixel = r%d g%d, want red", r, g)
	}
}

func TestAlphaBlend(t *testing.T) {
	gpu := setupDrawCtx(t, 8, 8)
	mustExec(t, gpu, CmdClearColor(0, 0, 0, 1))
	mustResolve(t, gpu, CmdClear(ClearColorBit))
	mustExec(t, gpu, CmdEnable(CapBlend))
	mustExec(t, gpu, CmdBlendFunc(BlendSrcAlpha, BlendOneMinusSrcA))
	mustExec(t, gpu, CmdUniform4f(LocTint, 1, 1, 1, 0.5))
	drawFullScreenQuad(t, gpu)
	r, _, _, _ := gpu.FB.At(4, 4)
	if r < 100 || r > 155 {
		t.Fatalf("blended red channel = %d, want ~128", r)
	}
}

func TestMVPTransformTranslation(t *testing.T) {
	gpu := setupDrawCtx(t, 20, 20)
	// Identity with x translation +0.5 NDC (column-major).
	m := [16]float32{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0.5, 0, 0, 1}
	mustExec(t, gpu, CmdUniformMatrix4fv(LocMVP, m))
	mustExec(t, gpu, CmdUniform4f(LocTint, 1, 1, 1, 1))
	// Small triangle near origin moves right of center.
	tri := FloatsToBytes([]float32{-0.1, -0.1, 0.1, -0.1, 0, 0.1})
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 2, 0, tri))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
	mustResolve(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 3))
	leftLit, rightLit := 0, 0
	for y := 0; y < 20; y++ {
		for x := 0; x < 20; x++ {
			if r, _, _, _ := gpu.FB.At(x, y); r == 255 {
				if x < 10 {
					leftLit++
				} else {
					rightLit++
				}
			}
		}
	}
	if rightLit == 0 || leftLit > rightLit {
		t.Fatalf("translated triangle lit left=%d right=%d, want right side", leftLit, rightLit)
	}
}

func TestTriangleStripMode(t *testing.T) {
	gpu := setupDrawCtx(t, 16, 16)
	mustExec(t, gpu, CmdUniform4f(LocTint, 1, 1, 1, 1))
	strip := FloatsToBytes([]float32{-1, -1, 1, -1, -1, 1, 1, 1})
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 2, 0, strip))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
	res := mustResolve(t, gpu, CmdDrawArrays(DrawModeTriStrip, 0, 4))
	if res.Fragments < 16*16*9/10 {
		t.Fatalf("strip quad shaded %d fragments, want near 256", res.Fragments)
	}
}

func TestDrawElementsClientIndices(t *testing.T) {
	gpu := setupDrawCtx(t, 16, 16)
	mustExec(t, gpu, CmdUniform4f(LocTint, 1, 1, 1, 1))
	verts := FloatsToBytes([]float32{-1, -1, 1, -1, 1, 1, -1, 1})
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 2, 0, verts))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
	res := mustResolve(t, gpu, CmdDrawElementsClient(DrawModeTriangles, []uint16{0, 1, 2, 0, 2, 3}))
	if res.Fragments < 16*16*9/10 {
		t.Fatalf("indexed quad shaded %d fragments", res.Fragments)
	}
}

func TestDrawElementsVBOIndices(t *testing.T) {
	gpu := setupDrawCtx(t, 16, 16)
	mustExec(t, gpu, CmdUniform4f(LocTint, 1, 1, 1, 1))
	verts := FloatsToBytes([]float32{-1, -1, 1, -1, 1, 1, -1, 1})
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 2, 0, verts))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
	mustExec(t, gpu, CmdGenBuffer(9))
	mustExec(t, gpu, CmdBindBuffer(BufTargetElemArray, 9))
	mustExec(t, gpu, CmdBufferData(BufTargetElemArray, U16ToBytes([]uint16{0, 1, 2, 0, 2, 3}), UsageStaticDraw))
	res := mustResolve(t, gpu, CmdDrawElementsVBO(DrawModeTriangles, 6, 0))
	if res.Fragments < 16*16*9/10 {
		t.Fatalf("VBO-indexed quad shaded %d fragments", res.Fragments)
	}
	// Out-of-range offset errors.
	if _, err := gpu.Execute(CmdDrawElementsVBO(DrawModeTriangles, 6, 100)); err == nil {
		t.Fatal("out-of-range index offset succeeded")
	}
}

func TestDrawElementsShortClientData(t *testing.T) {
	gpu := setupDrawCtx(t, 8, 8)
	verts := FloatsToBytes([]float32{-1, -1, 1, -1, 1, 1})
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 2, 0, verts))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
	cmd := Command{Op: OpDrawElements, Ints: []int32{DrawModeTriangles, 6, IndexTypeUshort, 0}, Data: []byte{0, 0}}
	if _, err := gpu.Execute(cmd); err == nil {
		t.Fatal("draw with short index data succeeded")
	}
}

func TestSwapBuffersMarksFrame(t *testing.T) {
	gpu := NewGPU(4, 4)
	res := mustExec(t, gpu, CmdSwapBuffers())
	if !res.FrameDone || gpu.FramesCompleted != 1 {
		t.Fatalf("SwapBuffers result = %+v, frames = %d", res, gpu.FramesCompleted)
	}
}

func TestExecuteAll(t *testing.T) {
	gpu := NewGPU(4, 4)
	res, err := gpu.ExecuteAll([]Command{
		CmdClearColor(0, 0, 1, 1),
		CmdClear(ClearColorBit),
		CmdSwapBuffers(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fragments != 16 || !res.FrameDone {
		t.Fatalf("ExecuteAll result = %+v", res)
	}
	// Stops at first error.
	_, err = gpu.ExecuteAll([]Command{CmdUseProgram(42), CmdClear(ClearColorBit)})
	if err == nil {
		t.Fatal("ExecuteAll did not surface error")
	}
}

func TestFramebufferImageAndBounds(t *testing.T) {
	fb := NewFramebuffer(3, 2)
	fb.Pix[0] = 200
	img := fb.Image()
	if img.Bounds().Dx() != 3 || img.Bounds().Dy() != 2 {
		t.Fatalf("image bounds = %v", img.Bounds())
	}
	if img.Pix[0] != 200 {
		t.Fatal("Image did not copy pixels")
	}
	img.Pix[0] = 10
	if fb.Pix[0] != 200 {
		t.Fatal("Image aliases framebuffer")
	}
	if r, _, _, _ := fb.At(-1, 0); r != 0 {
		t.Fatal("out-of-bounds At not zero")
	}
}

func TestNewFramebufferPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFramebuffer(0,5) did not panic")
		}
	}()
	NewFramebuffer(0, 5)
}

func TestEstimateCostProperties(t *testing.T) {
	ctx := NewContext()
	if c := EstimateCost(ctx, 640, 480, CmdClear(ClearColorBit)); c != 640*480 {
		t.Fatalf("clear cost = %d", c)
	}
	if c := EstimateCost(ctx, 640, 480, CmdSwapBuffers()); c != 0 {
		t.Fatalf("swap cost = %d", c)
	}
	small := EstimateCost(ctx, 640, 480, CmdDrawArrays(DrawModeTriangles, 0, 30))
	big := EstimateCost(ctx, 640, 480, CmdDrawArrays(DrawModeTriangles, 0, 300))
	if small <= 0 || big <= small {
		t.Fatalf("draw cost monotonicity: small=%d big=%d", small, big)
	}
	// Cost capped at one framebuffer of overdraw (plus blend surcharge).
	huge := EstimateCost(ctx, 64, 64, CmdDrawArrays(DrawModeTriangles, 0, 3_000_000))
	if huge > int64(64*64)*2 {
		t.Fatalf("draw cost uncapped: %d", huge)
	}
	if c := EstimateCost(ctx, 640, 480, CmdTexImage2D(TexTarget2D, 0, 64, 64, nil)); c != 64*64 {
		t.Fatalf("teximage cost = %d", c)
	}
	if c := EstimateCost(ctx, 640, 480, CmdUseProgram(1)); c <= 0 {
		t.Fatalf("state-change cost = %d", c)
	}
}

func TestBytesRoundTripProperty(t *testing.T) {
	floats := func(vals []float32) bool {
		got := BytesToFloats(FloatsToBytes(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			// NaN != NaN; compare bit patterns via encode-again.
			a, b := FloatsToBytes(vals[i:i+1]), FloatsToBytes(got[i:i+1])
			for k := range a {
				if a[k] != b[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(floats, nil); err != nil {
		t.Errorf("float round trip: %v", err)
	}
	u16s := func(vals []uint16) bool {
		got := BytesToU16(U16ToBytes(vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(u16s, nil); err != nil {
		t.Errorf("u16 round trip: %v", err)
	}
}

func TestRasterizerDeterministicProperty(t *testing.T) {
	// Property: executing the same stream twice on fresh GPUs produces
	// byte-identical framebuffers (required for multi-device
	// consistency, §VI-B).
	run := func() []byte {
		gpu := setupDrawCtx(t, 24, 24)
		mustExec(t, gpu, CmdUniform4f(LocTint, 0.7, 0.3, 0.9, 1))
		tri := FloatsToBytes([]float32{-0.8, -0.8, 0.9, -0.4, 0, 0.9})
		mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 2, 0, tri))
		mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
		mustResolve(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 3))
		return gpu.FB.Pix
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("framebuffers differ at byte %d", i)
		}
	}
}

func TestScissorClipsDraws(t *testing.T) {
	gpu := setupDrawCtx(t, 16, 16)
	mustExec(t, gpu, CmdUniform4f(LocTint, 1, 1, 1, 1))
	mustExec(t, gpu, CmdEnable(CapScissorTest))
	// Scissor to the left half (GL coordinates: origin bottom-left).
	mustExec(t, gpu, CmdScissor(0, 0, 8, 16))
	drawFullScreenQuad(t, gpu)
	leftLit, rightLit := 0, 0
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if r, _, _, _ := gpu.FB.At(x, y); r == 255 {
				if x < 8 {
					leftLit++
				} else {
					rightLit++
				}
			}
		}
	}
	if rightLit != 0 {
		t.Fatalf("scissored draw lit %d pixels outside the rect", rightLit)
	}
	if leftLit < 100 {
		t.Fatalf("scissored draw lit only %d pixels inside", leftLit)
	}
	// Disable: full screen again.
	mustExec(t, gpu, CmdDisable(CapScissorTest))
	res := mustResolve(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 6))
	if res.Fragments < 200 {
		t.Fatalf("unscissored redraw shaded %d fragments", res.Fragments)
	}
	// Negative scissor rect is rejected.
	if _, err := gpu.Execute(CmdScissor(0, 0, -1, 4)); err == nil {
		t.Fatal("negative scissor accepted")
	}
}

func TestScissoredClear(t *testing.T) {
	gpu := NewGPU(16, 16)
	mustExec(t, gpu, CmdClearColor(0, 0, 1, 1))
	mustResolve(t, gpu, CmdClear(ClearColorBit)) // full clear to blue
	mustExec(t, gpu, CmdEnable(CapScissorTest))
	mustExec(t, gpu, CmdScissor(4, 4, 8, 8))
	mustExec(t, gpu, CmdClearColor(1, 0, 0, 1))
	res := mustResolve(t, gpu, CmdClear(ClearColorBit)) // red only in rect
	if res.Fragments != 64 {
		t.Fatalf("scissored clear touched %d fragments, want 64", res.Fragments)
	}
	// Inside the rect (GL y=4..12 -> rows 4..12 from bottom): red.
	if r, _, b, _ := gpu.FB.At(8, 8); r != 255 || b != 0 {
		t.Fatalf("inside-rect pixel = r%d b%d, want red", r, b)
	}
	// Outside: still blue.
	if r, _, b, _ := gpu.FB.At(1, 1); r != 0 || b != 255 {
		t.Fatalf("outside-rect pixel = r%d b%d, want blue", r, b)
	}
	// Hostile rect clamps rather than panicking.
	mustExec(t, gpu, CmdScissor(12, 12, 100, 100))
	if _, err := gpu.Execute(CmdClear(ClearColorBit)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, gpu, CmdFinish())
}

// TestScissoredClearClipsAsRectangle: a scissor box that pokes out of
// the framebuffer clears exactly its intersection with it — the same
// rectangle a scissored draw is clipped to — and reports that many
// fragments. A box starting at x=-10 with width 20 covers columns
// [0,10), not [0,20).
func TestScissoredClearClipsAsRectangle(t *testing.T) {
	const w, h = 32, 24
	for _, tc := range []struct {
		name           string
		x, y, bw, bh   int32
		x0, y0, x1, y1 int // expected framebuffer rectangle, rows top-down
	}{
		{"negative x keeps the right edge", -10, 0, 20, h, 0, 0, 10, h},
		{"negative y keeps the top edge", 0, -6, w, 10, 0, h - 4, w, h},
		{"both corners outside", -5, -5, 100, 100, 0, 0, w, h},
		{"right overhang", 28, 2, 10, 4, 28, h - 6, w, h - 2},
		{"x at the right edge", w, 0, 8, h, 0, 0, 0, 0},
		{"x beyond the right edge", w + 9, 0, 8, h, 0, 0, 0, 0},
		{"y above the top", 0, h + 3, w, 5, 0, 0, 0, 0},
		{"wholly left of the framebuffer", -30, 0, 20, h, 0, 0, 0, 0},
		{"zero width", 4, 4, 0, 8, 0, 0, 0, 0},
		{"zero height", 4, 4, 8, 0, 0, 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gpu := setupDrawCtx(t, w, h)
			mustExec(t, gpu, CmdClearColor(0, 0, 1, 1))
			mustResolve(t, gpu, CmdClear(ClearColorBit))
			mustExec(t, gpu, CmdEnable(CapScissorTest))
			mustExec(t, gpu, CmdScissor(tc.x, tc.y, tc.bw, tc.bh))
			mustExec(t, gpu, CmdClearColor(1, 0, 0, 1))
			res := mustResolve(t, gpu, CmdClear(ClearColorBit))
			red := 0
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					inside := x >= tc.x0 && x < tc.x1 && y >= tc.y0 && y < tc.y1
					r, _, b, _ := gpu.FB.At(x, y)
					if isRed := r == 255 && b == 0; isRed != inside {
						t.Fatalf("pixel (%d,%d) red=%v, want %v", x, y, isRed, inside)
					}
					if inside {
						red++
					}
				}
			}
			if res.Fragments != int64(red) {
				t.Fatalf("clear reported %d fragments, cleared %d pixels", res.Fragments, red)
			}
			// A draw under the same scissor box touches the same rectangle.
			mustExec(t, gpu, CmdUniform4f(LocTint, 0, 1, 0, 1))
			drawFullScreenQuad(t, gpu)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					inside := x >= tc.x0 && x < tc.x1 && y >= tc.y0 && y < tc.y1
					if _, g, _, _ := gpu.FB.At(x, y); (g == 255) != inside {
						t.Fatalf("draw: pixel (%d,%d) green=%d, inside=%v", x, y, g, inside)
					}
				}
			}
		})
	}
}

// TestClearFillMatchesPerPixelStores: the doubling fill writes what four
// byte stores per pixel wrote, at sizes around its copy boundaries.
func TestClearFillMatchesPerPixelStores(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {2, 1}, {3, 5}, {7, 3}, {64, 2}, {33, 17}} {
		fb := NewFramebuffer(dim[0], dim[1])
		fb.ClearColorBuf(0.2, 0.4, 0.6, 0.8)
		for i := 0; i < len(fb.Pix); i += 4 {
			if fb.Pix[i] != 51 || fb.Pix[i+1] != 102 || fb.Pix[i+2] != 153 || fb.Pix[i+3] != 204 {
				t.Fatalf("%dx%d: pixel %d = %v", dim[0], dim[1], i/4, fb.Pix[i:i+4])
			}
		}
	}
}

// TestDrawZeroAllocSteadyState: once the GPU's draw scratch and its
// recording have grown to the stream's largest frame, recording a draw
// and resolving the frame allocate nothing — whether the vertices come
// from a VBO or a client array, and whether the draw is indexed.
func TestDrawZeroAllocSteadyState(t *testing.T) {
	gpu := setupDrawCtx(t, 64, 48)
	gpu.SetParallelism(1)
	tex := make([]byte, 8*8*4)
	for i := range tex {
		tex[i] = byte(i*13) | 0x80
	}
	interleaved := FloatsToBytes([]float32{ // x, y, u, v
		-0.5, -0.5, 0, 0, 0.5, -0.5, 1, 0, -0.5, 0.5, 0, 1,
		0.5, -0.5, 1, 0, 0.5, 0.5, 1, 1, -0.5, 0.5, 0, 1,
	})
	corners := FloatsToBytes([]float32{-0.8, -0.8, 0.2, -0.8, 0.2, 0.2, -0.8, 0.2})
	for _, cmd := range []Command{
		CmdEnable(CapBlend),
		CmdGenTexture(1), CmdBindTexture(TexTarget2D, 1), CmdTexImage2D(TexTarget2D, 0, 8, 8, tex),
		CmdGenBuffer(1), CmdBindBuffer(BufTargetArray, 1), CmdBufferData(BufTargetArray, interleaved, UsageStaticDraw),
		CmdGenBuffer(2), CmdBindBuffer(BufTargetElemArray, 2),
		CmdBufferData(BufTargetElemArray, U16ToBytes([]uint16{0, 1, 2, 0, 2, 3}), UsageStaticDraw),
		CmdEnableVertexAttribArray(LocPosition),
	} {
		mustExec(t, gpu, cmd)
	}
	// Setting an attribute pointer copies its client array, so each
	// sequence is applied once outside the measured loop; the loop runs a
	// clear and the sequence's draws against the pointers left in place,
	// and a Finish that resolves them.
	sequences := map[string][]Command{
		"vbo": {
			CmdVertexAttribPointerVBO(LocPosition, 2, 16, 0, 1),
			CmdVertexAttribPointerVBO(LocTexCoord, 2, 16, 8, 1),
			CmdEnableVertexAttribArray(LocTexCoord),
			CmdDrawArrays(DrawModeTriangles, 0, 6),
		},
		"client": {
			CmdDisableVertexAttribArray(LocTexCoord),
			CmdVertexAttribPointerResolved(LocPosition, 2, 0, corners),
			CmdDrawElementsVBO(DrawModeTriangles, 6, 0),
			CmdDrawElementsClient(DrawModeTriangles, []uint16{0, 1, 2, 2, 3, 0}),
			CmdDrawArrays(DrawModeTriStrip, 0, 4),
		},
	}
	for name, seq := range sequences {
		measured := []Command{CmdClear(ClearColorBit)}
		for _, cmd := range seq {
			if res := mustResolve(t, gpu, cmd); cmd.IsDraw() {
				if res.Fragments == 0 {
					t.Fatalf("%s: %v shaded nothing", name, cmd)
				}
				measured = append(measured, cmd)
			}
		}
		measured = append(measured, CmdFinish())
		n := testing.AllocsPerRun(50, func() {
			for _, cmd := range measured {
				if _, err := gpu.Execute(cmd); err != nil {
					t.Fatal(err)
				}
			}
		})
		if n != 0 {
			t.Errorf("%s draws allocate %v times per frame", name, n)
		}
	}
}
