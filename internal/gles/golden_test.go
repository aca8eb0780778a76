package gles

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestRasterizerGoldenHash locks the rasterizer's exact output for a
// fixed scene. Multi-device consistency (§VI-B) relies on every replica
// producing byte-identical framebuffers from the same stream, so any
// change to rasterization rules must be deliberate: update the hash
// only when the change is intended, since it invalidates cross-device
// determinism with older builds.
func TestRasterizerGoldenHash(t *testing.T) {
	gpu := NewGPU(64, 64)
	var m [16]float32
	m[0], m[5], m[10], m[15] = 1, 1, 1, 1
	m[12] = 0.25 // translate right
	tex := make([]byte, 8*8*4)
	for i := range tex {
		tex[i] = byte(i * 7)
	}
	stream := []Command{
		CmdViewport(0, 0, 64, 64),
		CmdClearColor(0.05, 0.1, 0.15, 1),
		CmdClear(ClearColorBit | ClearDepthBit),
		CmdCreateProgram(1),
		CmdUseProgram(1),
		CmdEnable(CapBlend),
		CmdBlendFunc(BlendSrcAlpha, BlendOneMinusSrcA),
		CmdGenTexture(1),
		CmdBindTexture(TexTarget2D, 1),
		CmdTexImage2D(TexTarget2D, 0, 8, 8, tex),
		CmdUniform1i(LocSampler, 0),
		CmdUniformMatrix4fv(LocMVP, m),
		CmdUniform4f(LocTint, 0.9, 0.8, 1, 0.7),
		CmdVertexAttribPointerResolved(LocPosition, 2, 0,
			FloatsToBytes([]float32{-0.8, -0.8, 0.6, -0.5, -0.1, 0.7})),
		CmdEnableVertexAttribArray(LocPosition),
		CmdVertexAttribPointerResolved(LocTexCoord, 2, 0,
			FloatsToBytes([]float32{0, 0, 1, 0, 0.5, 1})),
		CmdEnableVertexAttribArray(LocTexCoord),
		CmdDrawArrays(DrawModeTriangles, 0, 3),
		CmdSwapBuffers(),
	}
	if _, err := gpu.ExecuteAll(stream); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(gpu.FB.Pix)
	got := hex.EncodeToString(sum[:8])
	const want = "028d340408b8f8eb"
	if got != want {
		t.Fatalf("framebuffer hash = %s, want %s — rasterization rules changed", got, want)
	}
	// Regardless of pinning, the same stream must re-produce the same
	// bytes within a build.
	gpu2 := NewGPU(64, 64)
	if _, err := gpu2.ExecuteAll(stream); err != nil {
		t.Fatal(err)
	}
	sum2 := sha256.Sum256(gpu2.FB.Pix)
	if sum != sum2 {
		t.Fatal("identical streams produced different framebuffers")
	}
}

// depthHash hashes a depth buffer by its float32 bit patterns.
func depthHash(depth []float32) string {
	h := sha256.New()
	var b [4]byte
	for _, d := range depth {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(d))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestLazyDepthBufferGoldenHash pins a depth-tested scene's color and
// depth output to the hashes it had when NewFramebuffer still allocated
// and cleared the depth buffer up front: allocating it on the first
// depth-tested draw (here after a depth clear that finds no buffer yet)
// must not change a pixel or a depth value.
func TestLazyDepthBufferGoldenHash(t *testing.T) {
	gpu := renderScene(t, 160, 120, 1, 1)
	sum := sha256.Sum256(gpu.FB.Pix)
	if got, want := hex.EncodeToString(sum[:8]), "517d5d6a2aee876a"; got != want {
		t.Fatalf("color hash = %s, want %s", got, want)
	}
	if len(gpu.FB.Depth) != 160*120 {
		t.Fatalf("depth buffer has %d entries after a depth-tested draw", len(gpu.FB.Depth))
	}
	if got, want := depthHash(gpu.FB.Depth), "ff535158c7a98114"; got != want {
		t.Fatalf("depth hash = %s, want %s", got, want)
	}
}

// TestNoDepthTestNoDepthBuffer: clears and draws that never enable the
// depth test leave the framebuffer without a depth buffer.
func TestNoDepthTestNoDepthBuffer(t *testing.T) {
	gpu := setupDrawCtx(t, 16, 16)
	mustExec(t, gpu, CmdClear(ClearColorBit|ClearDepthBit))
	mustExec(t, gpu, CmdUniform4f(LocTint, 0, 1, 0, 1))
	drawFullScreenQuad(t, gpu)
	mustExec(t, gpu, CmdClear(ClearDepthBit))
	if gpu.FB.Depth != nil {
		t.Fatalf("depth buffer allocated (%d entries) with the depth test off", len(gpu.FB.Depth))
	}
}
