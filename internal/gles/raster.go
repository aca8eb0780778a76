package gles

import (
	"fmt"
	"image"
	"image/color"
	"math"
)

// Framebuffer is an RGBA8 render target with an optional depth buffer.
type Framebuffer struct {
	W, H int
	Pix  []byte // RGBA, 4 bytes per pixel, row-major
	// Depth has one entry per pixel, cleared to +1 (far plane). It is nil
	// until the first depth-tested draw: a scene that never enables the
	// depth test never pays for it.
	Depth []float32
}

// NewFramebuffer allocates a w×h render target cleared to opaque black.
func NewFramebuffer(w, h int) *Framebuffer {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("gles: framebuffer size %dx%d", w, h))
	}
	fb := &Framebuffer{
		W: w, H: h,
		Pix: make([]byte, w*h*4),
	}
	fb.ClearColorBuf(0, 0, 0, 1)
	return fb
}

// ClearColorBuf fills the color buffer with the given color (components
// in [0,1]).
func (fb *Framebuffer) ClearColorBuf(r, g, b, a float32) {
	fillRGBA(fb.Pix, clamp8(r), clamp8(g), clamp8(b), clamp8(a))
}

// clearRect fills the pixels of r, which must lie inside the
// framebuffer, with one color: the first row by doubling, the rest as
// copies of it.
func (fb *Framebuffer) clearRect(r image.Rectangle, cr, cg, cb, ca uint8) {
	if r.Empty() {
		return
	}
	first := fb.Pix[(r.Min.Y*fb.W+r.Min.X)*4 : (r.Min.Y*fb.W+r.Max.X)*4]
	fillRGBA(first, cr, cg, cb, ca)
	for y := r.Min.Y + 1; y < r.Max.Y; y++ {
		copy(fb.Pix[(y*fb.W+r.Min.X)*4:], first)
	}
}

// fillRGBA sets every pixel of pix to one color: it stores the first
// pixel, then copies the filled prefix onto what follows it, doubling
// the prefix each time.
func fillRGBA(pix []byte, r, g, b, a uint8) {
	if len(pix) < 4 {
		return
	}
	pix[0], pix[1], pix[2], pix[3] = r, g, b, a
	for n := 4; n < len(pix); n *= 2 {
		copy(pix[n:], pix[:n])
	}
}

// ClearDepthBuf resets the depth buffer to the far plane. Before the
// first depth-tested draw there is no buffer and nothing to reset.
func (fb *Framebuffer) ClearDepthBuf() {
	fillDepth(fb.Depth)
}

// fillDepth sets every depth of d to the far plane.
func fillDepth(d []float32) {
	for i := range d {
		d[i] = 1
	}
}

// At returns the pixel at (x, y) or transparent black when out of range.
func (fb *Framebuffer) At(x, y int) (r, g, b, a uint8) {
	if x < 0 || y < 0 || x >= fb.W || y >= fb.H {
		return 0, 0, 0, 0
	}
	i := (y*fb.W + x) * 4
	return fb.Pix[i], fb.Pix[i+1], fb.Pix[i+2], fb.Pix[i+3]
}

// Image copies the framebuffer into an image.Image, for debugging and
// for golden-file style tests.
func (fb *Framebuffer) Image() *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, fb.W, fb.H))
	copy(img.Pix, fb.Pix)
	return img
}

// SetAll fills the framebuffer with a single color; test helper.
func (fb *Framebuffer) SetAll(c color.RGBA) {
	fillRGBA(fb.Pix, c.R, c.G, c.B, c.A)
}

func clamp8(v float32) uint8 {
	switch {
	case v <= 0:
		return 0
	case v >= 1:
		return 255
	default:
		return uint8(v*255 + 0.5)
	}
}

// unorm8[b] is float32(b)/255, the value of a stored color byte. The
// table holds the quotients themselves, so reading it is bit-identical
// to dividing.
var unorm8 = func() (t [256]float32) {
	for b := range t {
		t[b] = float32(b) / 255
	}
	return t
}()

// vertex is a post-transform vertex entering rasterization.
type vertex struct {
	x, y, z    float32 // screen-space position and NDC depth
	r, g, b, a float32 // vertex color (already tinted)
	u, v       float32 // texture coordinates
}

// rasterState gathers everything a draw call needs from the context.
type rasterState struct {
	mvp       [16]float32
	hasMVP    bool
	tint      [4]float32
	tex       *Texture
	blend     bool
	depthTest bool
	vpX, vpY  int
	vpW, vpH  int
	scissor   bool
	scX, scY  int
	scW, scH  int
}

func (c *Context) rasterState() rasterState {
	st := rasterState{
		tint:      [4]float32{1, 1, 1, 1},
		blend:     c.Caps[CapBlend],
		depthTest: c.Caps[CapDepthTest],
		vpX:       int(c.ViewportX), vpY: int(c.ViewportY),
		vpW: int(c.ViewportW), vpH: int(c.ViewportH),
		scissor: c.Caps[CapScissorTest],
		scX:     int(c.ScissorX), scY: int(c.ScissorY),
		scW: int(c.ScissorW), scH: int(c.ScissorH),
	}
	if m, ok := c.Uniforms[LocMVP]; ok && len(m) == 16 {
		copy(st.mvp[:], m)
		st.hasMVP = true
	}
	if tv, ok := c.Uniforms[LocTint]; ok && len(tv) == 4 {
		copy(st.tint[:], tv)
	}
	unit := int32(0)
	if u, ok := c.UniformInts[LocSampler]; ok {
		unit = u
	}
	if unit >= 0 && unit < MaxTextureUnits {
		if id := c.BoundTexture[unit]; id != 0 {
			st.tex = c.Textures[id]
		}
	}
	return st
}

// clipRect is the part of a w×h framebuffer that clears and draws may
// write: all of it, or its intersection with the scissor box when the
// scissor test is on. The box arrives in GL coordinates (origin
// bottom-left); rows here run top-down.
func clipRect(w, h int, scissor bool, scX, scY, scW, scH int) image.Rectangle {
	r := image.Rectangle{Max: image.Point{X: w, Y: h}}
	if scissor {
		r = r.Intersect(image.Rectangle{
			Min: image.Point{X: scX, Y: h - scY - scH},
			Max: image.Point{X: scX + scW, Y: h - scY},
		})
	}
	return r
}

// transform applies the MVP matrix (column-major, as glUniformMatrix4fv
// supplies it) and the viewport transform to one model-space position.
func (st *rasterState) transform(px, py, pz float32) (x, y, z float32) {
	nx, ny, nz, nw := px, py, pz, float32(1)
	if st.hasMVP {
		m := &st.mvp
		nx = m[0]*px + m[4]*py + m[8]*pz + m[12]
		ny = m[1]*px + m[5]*py + m[9]*pz + m[13]
		nz = m[2]*px + m[6]*py + m[10]*pz + m[14]
		nw = m[3]*px + m[7]*py + m[11]*pz + m[15]
	}
	if nw != 0 && nw != 1 {
		nx, ny, nz = nx/nw, ny/nw, nz/nw
	}
	x = float32(st.vpX) + (nx+1)*0.5*float32(st.vpW)
	y = float32(st.vpY) + (1-(ny+1)*0.5)*float32(st.vpH) // flip: GL origin is bottom-left
	return x, y, nz
}

// drawScratch is the working set of one draw call while it is
// recorded. The GPU owns it and reuses it, so recording a draw
// allocates nothing once the slices have grown to the stream's largest
// draw.
type drawScratch struct {
	st rasterState

	pos, col, uv []float32 // attribute components, vertex-major
	// Components per vertex of each array; colSize and uvSize are 0 when
	// the array is disabled.
	posSize, colSize, uvSize int

	idx   []uint16
	verts []vertex
}

// sampler is a draw's texture as the shader reads it; pix is nil for an
// untextured draw. A draw keeps the pixel slice it was issued against:
// TexImage2D replaces a texture's slice rather than writing into it, so
// a later upload never reaches an earlier recorded draw.
type sampler struct {
	pix    []byte
	w, h   int
	fw, fh float32
}

// rasterOp is one recorded clear or draw: everything its rasterization
// reads, fixed when it was recorded.
type rasterOp struct {
	// draw selects between the two kinds. A draw rasterizes the
	// triangles [lo, hi) of the GPU's arena; a clear fills box with
	// color and, when depthClear is set, resets the depth buffer.
	draw bool
	// box bounds the pixels the op may write: the union of a draw's
	// triangle boxes, or the clip rectangle a color clear fills (empty
	// for a depth-only clear).
	box image.Rectangle

	lo, hi    int
	blend     bool
	depthTest bool
	tex       sampler

	color      [4]uint8
	depthClear bool
}

// draw records one draw call: it fetches, transforms and sets up the
// draw's triangles into the GPU's arena, and records the state their
// rasterization needs. indices selects an indexed draw; otherwise
// vertices [first, first+count) are drawn.
func (g *GPU) draw(mode int32, first, count int, indices []uint16) error {
	d, fb := &g.scratch, g.FB
	d.st = g.Ctx.rasterState()
	if err := g.gatherVertices(first, count, indices); err != nil {
		return err
	}
	if d.st.depthTest && fb.Depth == nil {
		// Allocated here, before any resolve, so no band worker races to
		// create it. Clears recorded earlier reset it to the same 1s.
		fb.Depth = make([]float32, fb.W*fb.H)
		fb.ClearDepthBuf()
	}
	var op rasterOp
	if op, g.tris = d.setup(g.tris, fb, mode); op.hi > op.lo {
		g.ops = append(g.ops, op)
	}
	return nil
}

// gatherVertices builds the draw's post-transform vertex list in
// g.scratch.verts.
func (g *GPU) gatherVertices(first, count int, indices []uint16) error {
	c, d := g.Ctx, &g.scratch
	pos := c.Attribs[LocPosition]
	if pos == nil || !pos.Enabled {
		return ErrMissingAttrib
	}
	if first < 0 || count < 0 {
		return fmt.Errorf("%w: first=%d count=%d", ErrBadArguments, first, count)
	}
	maxV := first + count
	if len(indices) > 0 {
		maxV = 0
		for _, ix := range indices {
			if int(ix)+1 > maxV {
				maxV = int(ix) + 1
			}
		}
	}
	var err error
	if d.pos, err = c.appendAttribFloats(d.pos[:0], pos, 0, maxV); err != nil {
		return fmt.Errorf("position attrib: %w", err)
	}
	d.posSize, d.colSize, d.uvSize = int(pos.Size), 0, 0
	if cb := c.Attribs[LocColor]; cb != nil && cb.Enabled {
		if d.col, err = c.appendAttribFloats(d.col[:0], cb, 0, maxV); err != nil {
			return fmt.Errorf("color attrib: %w", err)
		}
		d.colSize = int(cb.Size)
	}
	if tb := c.Attribs[LocTexCoord]; tb != nil && tb.Enabled {
		if d.uv, err = c.appendAttribFloats(d.uv[:0], tb, 0, maxV); err != nil {
			return fmt.Errorf("texcoord attrib: %w", err)
		}
		d.uvSize = int(tb.Size)
	}

	d.verts = d.verts[:0]
	if len(indices) > 0 {
		for _, ix := range indices {
			d.verts = append(d.verts, d.fetch(int(ix)))
		}
	} else {
		for vi := first; vi < first+count; vi++ {
			d.verts = append(d.verts, d.fetch(vi))
		}
	}
	return nil
}

// fetch transforms, tints and assembles vertex vi from the gathered
// attribute components; a component the array does not carry is 0.
func (d *drawScratch) fetch(vi int) vertex {
	var v vertex
	st := &d.st
	base := vi * d.posSize
	px, py, pz := d.pos[base], float32(0), float32(0)
	if d.posSize >= 2 {
		py = d.pos[base+1]
	}
	if d.posSize >= 3 {
		pz = d.pos[base+2]
	}
	v.x, v.y, v.z = st.transform(px, py, pz)
	v.r, v.g, v.b, v.a = st.tint[0], st.tint[1], st.tint[2], st.tint[3]
	if d.colSize > 0 {
		cb := vi * d.colSize
		v.r *= d.col[cb]
		if d.colSize >= 2 {
			v.g *= d.col[cb+1]
		}
		if d.colSize >= 3 {
			v.b *= d.col[cb+2]
		}
		if d.colSize >= 4 {
			v.a *= d.col[cb+3]
		}
	}
	if d.uvSize > 0 {
		v.u = d.uv[vi*d.uvSize]
		if d.uvSize >= 2 {
			v.v = d.uv[vi*d.uvSize+1]
		}
	}
	return v
}

// edgeSetup is one directed triangle edge a→b as the span solver and
// the shader evaluate it: the edge function at pixel center (fx, fy) is
// dx*(fy-ay) - dy*(fx-ax), every operation rounded to float32.
type edgeSetup struct {
	ax, ay float32
	dx, dy float32
	// invDy is 1/dy in double precision, for the crossing estimate only.
	invDy float64
	// incl: pixel centers exactly on the edge count as inside (top-left
	// fill rule).
	incl bool
}

// triSetup is one triangle, winding-normalized, with everything that is
// constant across its pixels computed once, when its draw is recorded,
// rather than once per band. Edge i is opposite vertex i, so its edge
// function scaled by inv is vertex i's barycentric weight.
type triSetup struct {
	v0, v1, v2 vertex
	e          [3]edgeSetup
	inv        float32 // 1 / (twice the signed area)
	// box is the bounding box of the vertices, truncated to pixels,
	// clipped to the framebuffer and the scissor box.
	box image.Rectangle
}

// guardBand bounds the vertex coordinates, in pixels, that rasterize.
// Inside it every intermediate of the edge functions is finite (the
// largest is below 2^51), which is what makes them monotone along a
// scanline; float32 also counts pixels exactly up to here.
const guardBand = 1 << 24

// inGuardBand reports whether v has a finite depth and lies within
// guardBand pixels of the origin. A NaN coordinate fails both
// comparisons.
func inGuardBand(v *vertex) bool {
	return v.x >= -guardBand && v.x <= guardBand &&
		v.y >= -guardBand && v.y <= guardBand &&
		v.z-v.z == 0
}

// init prepares the triangle for rasterization inside clip and reports
// whether any pixel can be covered. A triangle with a vertex outside the
// guard band or with a reciprocal area that is not finite is dropped
// whole, as GPU hardware drops what its guard band cannot hold: no
// weight computed from it would mean anything.
func (t *triSetup) init(v0, v1, v2 *vertex, clip image.Rectangle) bool {
	if !inGuardBand(v0) || !inGuardBand(v1) || !inGuardBand(v2) {
		return false
	}
	t.box = image.Rectangle{
		Min: image.Point{X: int(min3(v0.x, v1.x, v2.x)), Y: int(min3(v0.y, v1.y, v2.y))},
		Max: image.Point{X: int(max3(v0.x, v1.x, v2.x)) + 1, Y: int(max3(v0.y, v1.y, v2.y)) + 1},
	}.Intersect(clip)
	if t.box.Empty() {
		return false
	}
	area := edge(*v0, *v1, v2.x, v2.y)
	if area == 0 {
		return false
	}
	if area < 0 { // normalize winding so both orders rasterize
		v1, v2 = v2, v1
		area = -area
	}
	t.inv = 1 / area
	if math.IsInf(float64(t.inv), 0) {
		return false
	}
	t.v0, t.v1, t.v2 = *v0, *v1, *v2
	t.e[0].init(v1, v2)
	t.e[1].init(v2, v0)
	t.e[2].init(v0, v1)
	return true
}

func (e *edgeSetup) init(a, b *vertex) {
	e.ax, e.ay = a.x, a.y
	e.dx, e.dy = b.x-a.x, b.y-a.y
	e.invDy = 1 / float64(e.dy)
	// Top-left fill rule: a pixel center exactly on an edge belongs to
	// at most one of the two triangles sharing that edge, so adjacent
	// triangles never double-shade (which would show as seams under
	// alpha blending).
	e.incl = edgeIncludesZero(*a, *b)
}

// setup reads what d.st holds constant for the draw — the clip
// rectangle, the sampler and the blend and depth switches — and expands
// d.verts into triangles appended to tris, honoring strip winding (odd
// strip triangles swap the leading pair so both orders rasterize
// consistently) and dropping triangles that cannot cover a pixel. It
// returns the op that rasterizes the kept triangles, tris[op.lo:op.hi],
// and the grown tris.
func (d *drawScratch) setup(tris []triSetup, fb *Framebuffer, mode int32) (rasterOp, []triSetup) {
	st := &d.st
	op := rasterOp{draw: true, lo: len(tris), blend: st.blend, depthTest: st.depthTest}
	clip := clipRect(fb.W, fb.H, st.scissor, st.scX, st.scY, st.scW, st.scH)
	if t := st.tex; t != nil && t.Width > 0 && t.Height > 0 {
		op.tex = sampler{pix: t.Pixels, w: t.Width, h: t.Height, fw: float32(t.Width), fh: float32(t.Height)}
	}
	verts := d.verts
	add := func(a, b, c *vertex) {
		tris = append(tris, triSetup{})
		t := &tris[len(tris)-1]
		if !t.init(a, b, c, clip) {
			tris = tris[:len(tris)-1]
			return
		}
		op.box = op.box.Union(t.box)
	}
	switch mode {
	case DrawModeTriStrip:
		for i := 0; i+2 < len(verts); i++ {
			if i%2 == 0 {
				add(&verts[i], &verts[i+1], &verts[i+2])
			} else {
				add(&verts[i+1], &verts[i], &verts[i+2])
			}
		}
	default: // DrawModeTriangles
		for i := 0; i+2 < len(verts); i += 3 {
			add(&verts[i], &verts[i+1], &verts[i+2])
		}
	}
	op.hi = len(tris)
	return op, tris
}

// rasterBand rasterizes the draw's triangles, arena[op.lo:op.hi], in
// submission order, restricted to rows [yLo, yHi), and returns the
// fragments shaded.
//
// Per scanline it solves each edge function for the columns where the
// fill rule holds. An edge value is a chain of correctly rounded
// float32 operations, each monotone in its operand, so along a scanline
// it is monotone in x and the covered columns of each edge form one
// ray; narrow finds the ray's end by evaluating the very predicate the
// per-pixel rasterizer evaluated, so the span is exactly the set of
// pixels that rasterizer shaded.
func (op *rasterOp) rasterBand(fb *Framebuffer, arena []triSetup, yLo, yHi int) int64 {
	var shaded int64
	tris := arena[op.lo:op.hi]
	for i := range tris {
		t := &tris[i]
		y1 := min(t.box.Max.Y, yHi)
		for y := max(t.box.Min.Y, yLo); y < y1; y++ {
			fy := float32(y) + 0.5
			x0, x1 := t.box.Min.X, t.box.Max.X
			var rowC [3]float32
			for k := range t.e {
				e := &t.e[k]
				rowC[k] = float32(e.dx * (fy - e.ay))
				if x0 < x1 {
					x0, x1 = e.narrow(rowC[k], t.inv, x0, x1)
				}
			}
			switch {
			case x0 >= x1:
			case op.depthTest:
				shaded += op.depthSpan(fb, t, &rowC, y, x0, x1)
			default:
				op.colorSpan(fb, t, &rowC, y, x0, x1)
				shaded += int64(x1 - x0)
			}
		}
	}
	return shaded
}

// weight is the edge's barycentric weight at the center of pixel column
// x, on the scanline whose row term dx*(fy-ay) is rowC.
func (e *edgeSetup) weight(rowC, inv float32, x int) float32 {
	fx := float32(x) + 0.5
	return float32(rowC-float32(e.dy*(fx-e.ax))) * inv
}

// covers is the fill rule for one weight: positive, or zero on an edge
// that owns its pixels.
func (e *edgeSetup) covers(w float32) bool {
	return !(w < 0) && !(w == 0 && !e.incl)
}

// narrow shrinks the columns [x0, x1) of one scanline to those the edge
// covers. The weight is monotone in x — rising for an edge pointing up
// the screen, falling for one pointing down, constant for a horizontal
// one — so the covered columns are a suffix, a prefix, or all or none of
// the interval. The real-number crossing gives a first guess at where
// the rule flips; walking from there with the rounded rule itself makes
// the answer exact, usually within two evaluations.
func (e *edgeSetup) narrow(rowC, inv float32, x0, x1 int) (int, int) {
	if e.dy == 0 {
		if !e.covers(e.weight(rowC, inv, x0)) {
			return x0, x0
		}
		return x0, x1
	}
	rising := e.dy < 0
	// The edge function crosses zero where fx = ax + rowC/dy; as a
	// column index that is 0.5 less. The flip column is its ceiling.
	cross := float64(e.ax) - 0.5 + float64(rowC)*e.invDy
	flip := x1
	if cross <= float64(x0) {
		flip = x0
	} else if cross < float64(x1) {
		flip = int(cross)
		if float64(flip) < cross {
			flip++
		}
	}
	flip = e.settle(rowC, inv, rising, flip, x0, x1)
	if rising {
		return flip, x1
	}
	return x0, flip
}

// settle returns the first column of [x0, x1] from which the edge's
// fill rule equals rising (x1 if none), starting the search at guess.
// Monotonicity makes that column unique, and the two walks reach it from
// any guess in the interval.
func (e *edgeSetup) settle(rowC, inv float32, rising bool, guess, x0, x1 int) int {
	for guess > x0 && e.covers(e.weight(rowC, inv, guess-1)) == rising {
		guess--
	}
	for guess < x1 && e.covers(e.weight(rowC, inv, guess)) != rising {
		guess++
	}
	return guess
}

// depthSpan depth-tests columns [x0, x1) of row y, all inside the
// triangle, writes the depths that pass, colors each run of passing
// columns and returns how many passed. Pixels are independent of one
// another, so testing a run before coloring it changes no result.
func (op *rasterOp) depthSpan(fb *Framebuffer, t *triSetup, rowC *[3]float32, y, x0, x1 int) int64 {
	depth := fb.Depth[y*fb.W : (y+1)*fb.W]
	e0, e1, e2 := &t.e[0], &t.e[1], &t.e[2]
	var passed int64
	run := x0 // first column of the current passing run
	for x := x0; x < x1; x++ {
		w0 := e0.weight(rowC[0], t.inv, x)
		w1 := e1.weight(rowC[1], t.inv, x)
		w2 := e2.weight(rowC[2], t.inv, x)
		z := w0*t.v0.z + w1*t.v1.z + w2*t.v2.z
		if z > depth[x] {
			if run < x {
				op.colorSpan(fb, t, rowC, y, run, x)
				passed += int64(x - run)
			}
			run = x + 1
			continue
		}
		depth[x] = z
	}
	if run < x1 {
		op.colorSpan(fb, t, rowC, y, run, x1)
		passed += int64(x1 - run)
	}
	return passed
}

// colorSpan writes the color of columns [x0, x1) of row y with the span
// routine the draw's state selects. Both routines evaluate the
// per-pixel rasterizer's expressions in its order.
func (op *rasterOp) colorSpan(fb *Framebuffer, t *triSetup, rowC *[3]float32, y, x0, x1 int) {
	pix := fb.Pix[(y*fb.W+x0)*4 : (y*fb.W+x1)*4]
	if op.tex.pix != nil {
		op.spanTextured(pix, t, rowC, x0)
	} else {
		op.spanFlat(pix, t, rowC, x0)
	}
}

// spanFlat shades the pixels of pix, which start at column x0, with the
// interpolated vertex color. The weights are edgeSetup.weight written
// out: calling it three times makes the compiler spill fx, which costs
// 8 % of the loop.
func (op *rasterOp) spanFlat(pix []byte, t *triSetup, rowC *[3]float32, x0 int) {
	blend := op.blend
	v0, v1, v2 := &t.v0, &t.v1, &t.v2
	e0, e1, e2 := &t.e[0], &t.e[1], &t.e[2]
	c0, c1, c2, inv := rowC[0], rowC[1], rowC[2], t.inv
	for i := 0; i < len(pix)/4; i++ {
		fx := float32(x0+i) + 0.5
		w0 := float32(c0-float32(e0.dy*(fx-e0.ax))) * inv
		w1 := float32(c1-float32(e1.dy*(fx-e1.ax))) * inv
		w2 := float32(c2-float32(e2.dy*(fx-e2.ax))) * inv
		r := w0*v0.r + w1*v1.r + w2*v2.r
		g := w0*v0.g + w1*v1.g + w2*v2.g
		b := w0*v0.b + w1*v1.b + w2*v2.b
		a := w0*v0.a + w1*v1.a + w2*v2.a
		px := pix[i*4 : i*4+4 : i*4+4]
		if blend && a < 1 {
			r, g, b, a = blendOver(px, r, g, b, a)
		}
		px[0] = clamp8(r)
		px[1] = clamp8(g)
		px[2] = clamp8(b)
		px[3] = clamp8(a)
	}
}

// spanTextured is spanFlat with the color modulated by the draw's
// texture, sampled at the interpolated texture coordinates.
func (op *rasterOp) spanTextured(pix []byte, t *triSetup, rowC *[3]float32, x0 int) {
	v0, v1, v2 := &t.v0, &t.v1, &t.v2
	e0, e1, e2 := &t.e[0], &t.e[1], &t.e[2]
	c0, c1, c2, inv := rowC[0], rowC[1], rowC[2], t.inv
	blend := op.blend
	texPix, texW, texH, texFW, texFH := op.tex.pix, op.tex.w, op.tex.h, op.tex.fw, op.tex.fh
	for i := 0; i < len(pix)/4; i++ {
		fx := float32(x0+i) + 0.5
		w0 := float32(c0-float32(e0.dy*(fx-e0.ax))) * inv
		w1 := float32(c1-float32(e1.dy*(fx-e1.ax))) * inv
		w2 := float32(c2-float32(e2.dy*(fx-e2.ax))) * inv
		r := w0*v0.r + w1*v1.r + w2*v2.r
		g := w0*v0.g + w1*v1.g + w2*v2.g
		b := w0*v0.b + w1*v1.b + w2*v2.b
		a := w0*v0.a + w1*v1.a + w2*v2.a
		u := w0*v0.u + w1*v1.u + w2*v2.u
		v := w0*v0.v + w1*v1.v + w2*v2.v
		o := (wrapTexel(v, texFH, texH)*texW + wrapTexel(u, texFW, texW)) * 4
		// A texel outside the store samples white, and multiplying by
		// 255/255 changes nothing.
		if o >= 0 && o+3 < len(texPix) {
			tx := texPix[o : o+4 : o+4]
			r *= unorm8[tx[0]]
			g *= unorm8[tx[1]]
			b *= unorm8[tx[2]]
			a *= unorm8[tx[3]]
		}
		px := pix[i*4 : i*4+4 : i*4+4]
		if blend && a < 1 {
			r, g, b, a = blendOver(px, r, g, b, a)
		}
		px[0] = clamp8(r)
		px[1] = clamp8(g)
		px[2] = clamp8(b)
		px[3] = clamp8(a)
	}
}

// blendOver blends a source color over the stored pixel px with
// (SRC_ALPHA, ONE_MINUS_SRC_ALPHA).
func blendOver(px []byte, r, g, b, a float32) (float32, float32, float32, float32) {
	ia := 1 - a
	r = r*a + unorm8[px[0]]*ia
	g = g*a + unorm8[px[1]]*ia
	b = b*a + unorm8[px[2]]*ia
	a = a + unorm8[px[3]]*ia
	return r, g, b, a
}

// edge is the edge function of a→b at (px, py). The conversions keep
// each product a rounded float32 on architectures that would otherwise
// fuse the multiply into the subtraction.
func edge(a, b vertex, px, py float32) float32 {
	return float32((b.x-a.x)*(py-a.y)) - float32((b.y-a.y)*(px-a.x))
}

// edgeIncludesZero reports whether pixel centers lying exactly on the
// a→b edge count as inside. With normalized (positive-area) winding,
// edges pointing "down" in screen space (and, for ties, horizontal
// edges pointing left) own their pixels; the opposite edge of the
// neighbouring triangle points the other way and gives them up.
func edgeIncludesZero(a, b vertex) bool {
	dy := b.y - a.y
	if dy != 0 {
		return dy > 0
	}
	return b.x-a.x < 0
}

func min3(a, b, c float32) float32 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

func max3(a, b, c float32) float32 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}
