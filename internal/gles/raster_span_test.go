package gles

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"github.com/gbooster/gbooster/internal/sim"
)

// spanRig holds two framebuffers that start identical: the oracle
// rasterizes into ref, the span path into got, and after every triangle
// the two must still be bit-identical.
type spanRig struct {
	t        *testing.T
	ref, got *Framebuffer
	d        drawScratch
	tris     []triSetup
}

func newSpanRig(t *testing.T, rng *sim.RNG, w, h int) *spanRig {
	r := &spanRig{t: t, ref: NewFramebuffer(w, h), got: NewFramebuffer(w, h)}
	for i := range r.ref.Pix {
		r.ref.Pix[i] = byte(rng.Intn(256))
	}
	r.ref.Depth = make([]float32, w*h)
	for i := range r.ref.Depth {
		r.ref.Depth[i] = float32(rng.Float64()*2 - 1)
	}
	copy(r.got.Pix, r.ref.Pix)
	r.got.Depth = append([]float32(nil), r.ref.Depth...)
	return r
}

// draw rasterizes one triangle through both paths over rows [yLo, yHi)
// and fails unless color, depth bit patterns and the shaded count agree.
func (r *spanRig) draw(what string, st rasterState, v0, v1, v2 vertex, yLo, yHi int) {
	r.t.Helper()
	want := rasterizeTriangleBand(r.ref, &st, v0, v1, v2, yLo, yHi)
	r.d.st = st
	r.d.verts = append(r.d.verts[:0], v0, v1, v2)
	var op rasterOp
	op, r.tris = r.d.setup(r.tris[:0], r.got, DrawModeTriangles)
	got := op.rasterBand(r.got, r.tris, yLo, yHi)
	if got != want {
		r.t.Fatalf("%s: shaded %d fragments, oracle %d\nv0=%+v\nv1=%+v\nv2=%+v\nstate=%+v rows=[%d,%d)",
			what, got, want, v0, v1, v2, st, yLo, yHi)
	}
	if !bytes.Equal(r.ref.Pix, r.got.Pix) {
		for i := range r.ref.Pix {
			if r.ref.Pix[i] != r.got.Pix[i] {
				p := i / 4
				r.t.Fatalf("%s: color differs at (%d,%d) channel %d: got %d, oracle %d\nv0=%+v\nv1=%+v\nv2=%+v\nstate=%+v rows=[%d,%d)",
					what, p%r.ref.W, p/r.ref.W, i%4, r.got.Pix[i], r.ref.Pix[i], v0, v1, v2, st, yLo, yHi)
			}
		}
	}
	for i := range r.ref.Depth {
		if math.Float32bits(r.ref.Depth[i]) != math.Float32bits(r.got.Depth[i]) {
			r.t.Fatalf("%s: depth differs at (%d,%d): got %v, oracle %v\nv0=%+v\nv1=%+v\nv2=%+v",
				what, i%r.ref.W, i/r.ref.W, r.got.Depth[i], r.ref.Depth[i], v0, v1, v2)
		}
	}
}

// randomState draws one of every tex/blend/depth/scissor combination:
// combo's low four bits select the switches.
func randomState(rng *sim.RNG, combo, w, h int, textures []*Texture) rasterState {
	st := rasterState{
		blend:     combo&1 != 0,
		depthTest: combo&2 != 0,
		scissor:   combo&8 != 0,
	}
	if combo&4 != 0 {
		st.tex = textures[rng.Intn(len(textures))]
	}
	if st.scissor {
		// Boxes that poke out of every side of the framebuffer, and a few
		// empty ones.
		st.scX = rng.Intn(w+w/2) - w/4
		st.scY = rng.Intn(h+h/2) - h/4
		st.scW = rng.Intn(w)
		st.scH = rng.Intn(h)
	}
	return st
}

func randomTextures(rng *sim.RNG) []*Texture {
	var out []*Texture
	for _, dim := range [][2]int{{8, 8}, {5, 3}, {1, 1}, {32, 32}} {
		t := &Texture{Width: dim[0], Height: dim[1], Pixels: make([]byte, dim[0]*dim[1]*4)}
		for i := range t.Pixels {
			t.Pixels[i] = byte(rng.Intn(256))
		}
		out = append(out, t)
	}
	// A texture whose store is shorter than its size claims: texels past
	// the end sample white.
	out = append(out, &Texture{Width: 4, Height: 4, Pixels: out[0].Pixels[:40]})
	return out
}

// shadeVertex fills in the non-position attributes: colors and alphas
// on both sides of the blend threshold, texcoords that wrap in both
// directions, depths across the NDC range.
func shadeVertex(rng *sim.RNG, v *vertex) {
	v.z = float32(rng.Float64()*2.4 - 1.2)
	v.r = float32(rng.Float64() * 1.2)
	v.g = float32(rng.Float64())
	v.b = float32(rng.Float64()*1.4 - 0.2)
	switch rng.Intn(3) {
	case 0:
		v.a = 1
	case 1:
		v.a = float32(rng.Float64())
	default:
		v.a = float32(rng.Float64()*1.5 - 0.25)
	}
	v.u = float32(rng.Float64()*6 - 3)
	v.v = float32(rng.Float64()*6 - 3)
}

// triangleShapes are the position generators of TestSpanMatchesReference.
// Each returns one or two triangles (two for a quad split along its
// diagonal, whose halves must neither overlap nor leave a seam).
var triangleShapes = []struct {
	name string
	gen  func(rng *sim.RNG, w, h float64) [][3][2]float32
}{
	{"scaled", func(rng *sim.RNG, w, h float64) [][3][2]float32 {
		// 0.1x to 10^4x the framebuffer, log-uniform, centred anywhere
		// near it.
		scale := math.Pow(10, rng.Float64()*5-1)
		cx, cy := (rng.Float64()*1.5-0.25)*w, (rng.Float64()*1.5-0.25)*h
		var t [3][2]float32
		for i := range t {
			t[i][0] = float32(cx + (rng.Float64()-0.5)*w*scale)
			t[i][1] = float32(cy + (rng.Float64()-0.5)*h*scale)
		}
		return [][3][2]float32{t}
	}},
	{"long-edge", func(rng *sim.RNG, w, h float64) [][3][2]float32 {
		// A triangle far larger than the framebuffer with one edge
		// through it: the edge values near that edge are differences of
		// huge rounded products, so the rounded rule flips up to several
		// columns away from the real-number crossing.
		px, py := rng.Float64()*w, rng.Float64()*h
		ang := rng.Float64() * 2 * math.Pi
		dx, dy := math.Cos(ang), math.Sin(ang)
		far := math.Pow(10, 2+rng.Float64()*3) * w
		return [][3][2]float32{{
			{float32(px - dx*far*rng.Float64()), float32(py - dy*far*rng.Float64())},
			{float32(px + dx*far), float32(py + dy*far)},
			{float32(px - dy*far), float32(py + dx*far)},
		}}
	}},
	{"sliver", func(rng *sim.RNG, w, h float64) [][3][2]float32 {
		// Long and thinner than a pixel: many rows hold one pixel or none.
		x0, y0 := rng.Float64()*w, rng.Float64()*h
		x1, y1 := rng.Float64()*w, rng.Float64()*h
		off := rng.Float64() * 0.9
		return [][3][2]float32{{
			{float32(x0), float32(y0)}, {float32(x1), float32(y1)},
			{float32(x0 + off*rng.Float64()), float32(y0 + off*rng.Float64())},
		}}
	}},
	{"subpixel", func(rng *sim.RNG, w, h float64) [][3][2]float32 {
		cx, cy := rng.Float64()*w, rng.Float64()*h
		var t [3][2]float32
		for i := range t {
			t[i][0] = float32(cx + rng.Float64()*1.5)
			t[i][1] = float32(cy + rng.Float64()*1.5)
		}
		return [][3][2]float32{t}
	}},
	{"pixel-centres", func(rng *sim.RNG, w, h float64) [][3][2]float32 {
		// Vertices on pixel centres: edges pass exactly through centres,
		// so the tie rule decides whole runs of pixels.
		var t [3][2]float32
		for i := range t {
			t[i][0] = float32(rng.Intn(int(w)+8)-4) + 0.5
			t[i][1] = float32(rng.Intn(int(h)+8)-4) + 0.5
		}
		return [][3][2]float32{t}
	}},
	{"integer", func(rng *sim.RNG, w, h float64) [][3][2]float32 {
		var t [3][2]float32
		for i := range t {
			t[i][0] = float32(rng.Intn(int(w)+8) - 4)
			t[i][1] = float32(rng.Intn(int(h)+8) - 4)
		}
		return [][3][2]float32{t}
	}},
	{"quad-halves", func(rng *sim.RNG, w, h float64) [][3][2]float32 {
		// A sprite: an axis-aligned quad as two triangles sharing the
		// diagonal, in the vertex order workload.Game's VBO uses. Half
		// the time the corners sit on half-pixel positions.
		x0, y0 := rng.Float64()*w, rng.Float64()*h
		x1, y1 := x0+rng.Float64()*w/2, y0+rng.Float64()*h/2
		if rng.Bool(0.5) {
			x0, y0 = math.Round(x0*2)/2, math.Round(y0*2)/2
			x1, y1 = math.Round(x1*2)/2, math.Round(y1*2)/2
		}
		a, b := [2]float32{float32(x0), float32(y1)}, [2]float32{float32(x1), float32(y1)}
		c, d := [2]float32{float32(x0), float32(y0)}, [2]float32{float32(x1), float32(y0)}
		return [][3][2]float32{{a, b, c}, {b, d, c}}
	}},
	{"axis-edges", func(rng *sim.RNG, w, h float64) [][3][2]float32 {
		// One horizontal and one vertical edge.
		x0, y0 := float32(rng.Float64()*w), float32(rng.Float64()*h)
		x1, y1 := float32(rng.Float64()*w), float32(rng.Float64()*h)
		if rng.Bool(0.5) {
			y0 = float32(math.Round(float64(y0))) + 0.5
		}
		return [][3][2]float32{{{x0, y0}, {x1, y0}, {x0, y1}}}
	}},
	{"zero-area", func(rng *sim.RNG, w, h float64) [][3][2]float32 {
		x0, y0 := float32(rng.Float64()*w), float32(rng.Float64()*h)
		x1, y1 := float32(rng.Float64()*w), float32(rng.Float64()*h)
		if rng.Bool(0.5) {
			return [][3][2]float32{{{x0, y0}, {x1, y1}, {x0, y0}}}
		}
		return [][3][2]float32{{{x0, y0}, {x1, y1}, {(x0 + x1) / 2, (y0 + y1) / 2}}}
	}},
}

// TestSpanMatchesReference is the exactness gate of the span solver:
// over random triangles of every awkward shape, under every
// texture/blend/depth/scissor combination and random row bands, the
// product path must leave the color bytes, the depth bit patterns and
// the shaded count exactly as the per-pixel oracle does, checked after
// every triangle.
func TestSpanMatchesReference(t *testing.T) {
	perShape := 500
	if testing.Short() {
		perShape = 40
	}
	rng := sim.NewRNG(20260928)
	textures := randomTextures(rng)
	for _, dim := range [][2]int{{67, 41}, {16, 96}} {
		w, h := dim[0], dim[1]
		rig := newSpanRig(t, rng, w, h)
		for combo := 0; combo < 16; combo++ {
			for _, shape := range triangleShapes {
				for n := 0; n < perShape; n++ {
					st := randomState(rng, combo, w, h, textures)
					yLo, yHi := 0, h
					if rng.Bool(0.5) {
						yLo = rng.Intn(h)
						yHi = yLo + rng.Intn(h-yLo+1)
					}
					for k, pos := range shape.gen(rng, float64(w), float64(h)) {
						var v [3]vertex
						for i := range v {
							v[i].x, v[i].y = pos[i][0], pos[i][1]
							shadeVertex(rng, &v[i])
						}
						if rng.Bool(0.5) { // the other winding
							v[1], v[2] = v[2], v[1]
						}
						what := fmt.Sprintf("%dx%d combo=%04b %s #%d.%d", w, h, combo, shape.name, n, k)
						rig.draw(what, st, v[0], v[1], v[2], yLo, yHi)
					}
				}
			}
		}
	}
}

// TestQuadHalvesShadeEachPixelOnce pins what the top-left rule is for:
// the two triangles of a blended sprite quad cover every pixel of the
// quad exactly once, so the shared diagonal shows neither a seam nor a
// doubly blended line.
func TestQuadHalvesShadeEachPixelOnce(t *testing.T) {
	gpu := setupDrawCtx(t, 64, 64)
	mustExec(t, gpu, CmdEnable(CapBlend))
	mustExec(t, gpu, CmdUniform4f(LocTint, 1, 1, 1, 0.5))
	quad := FloatsToBytes([]float32{-0.5, -0.5, 0.5, -0.5, -0.5, 0.5, 0.5, -0.5, 0.5, 0.5, -0.5, 0.5})
	mustExec(t, gpu, CmdVertexAttribPointerResolved(LocPosition, 2, 0, quad))
	mustExec(t, gpu, CmdEnableVertexAttribArray(LocPosition))
	res := mustResolve(t, gpu, CmdDrawArrays(DrawModeTriangles, 0, 6))
	if res.Fragments != 32*32 {
		t.Fatalf("quad shaded %d fragments, want %d", res.Fragments, 32*32)
	}
	want, _, _, _ := gpu.FB.At(20, 20)
	for y := 16; y < 48; y++ {
		for x := 16; x < 48; x++ {
			if r, _, _, _ := gpu.FB.At(x, y); r != want {
				t.Fatalf("pixel (%d,%d) red=%d, quad interior is %d", x, y, r, want)
			}
		}
	}
}

// TestSettleExactFromAnyGuess: the span solver's answer does not depend
// on how good its first guess is. From every starting column, settle
// lands on the column a scan of the whole row finds.
func TestSettleExactFromAnyGuess(t *testing.T) {
	rng := sim.NewRNG(99)
	const x0, x1 = 3, 40
	for trial := 0; trial < 2000; trial++ {
		scale := math.Pow(10, rng.Float64()*5)
		a := vertex{x: float32((rng.Float64() - 0.5) * 50 * scale), y: float32((rng.Float64() - 0.5) * 50 * scale)}
		b := vertex{x: float32((rng.Float64() - 0.5) * 50 * scale), y: float32((rng.Float64() - 0.5) * 50 * scale)}
		if trial%4 == 0 { // through pixel centres, so ties occur
			a = vertex{x: float32(rng.Intn(40)) + 0.5, y: float32(rng.Intn(40)) + 0.5}
			b = vertex{x: float32(rng.Intn(40)) + 0.5, y: float32(rng.Intn(40)) + 0.5}
		}
		var e edgeSetup
		e.init(&a, &b)
		if e.dy == 0 {
			continue
		}
		rising := e.dy < 0
		inv := float32(1 / (1 + rng.Float64()*scale*scale))
		rowC := float32(e.dx * (float32(rng.Intn(40)) + 0.5 - e.ay))
		want := x1
		for x := x0; x < x1; x++ {
			if e.covers(e.weight(rowC, inv, x)) == rising {
				want = x
				break
			}
		}
		for x := want; x < x1; x++ { // the rule is monotone
			if e.covers(e.weight(rowC, inv, x)) != rising {
				t.Fatalf("trial %d: fill rule flips back at column %d", trial, x)
			}
		}
		for guess := x0; guess <= x1; guess++ {
			if got := e.settle(rowC, inv, rising, guess, x0, x1); got != want {
				t.Fatalf("trial %d: settle from guess %d = %d, scan says %d", trial, guess, got, want)
			}
		}
	}
}
