package gles

import (
	"fmt"
	"image"
	"image/color"
	"sync/atomic"

	"github.com/gbooster/gbooster/internal/parallel"
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
	cr, cg, cb, ca := clamp8(r), clamp8(g), clamp8(b), clamp8(a)
	for i := 0; i < len(fb.Pix); i += 4 {
		fb.Pix[i], fb.Pix[i+1], fb.Pix[i+2], fb.Pix[i+3] = cr, cg, cb, ca
	}
}

// ClearDepthBuf resets the depth buffer to the far plane. Before the
// first depth-tested draw there is no buffer and nothing to reset.
func (fb *Framebuffer) ClearDepthBuf() {
	for i := range fb.Depth {
		fb.Depth[i] = 1
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
	for i := 0; i < len(fb.Pix); i += 4 {
		fb.Pix[i], fb.Pix[i+1], fb.Pix[i+2], fb.Pix[i+3] = c.R, c.G, c.B, c.A
	}
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

// gatherVertices builds the post-transform vertex list for a draw.
func (c *Context) gatherVertices(first, count int, indices []uint16) ([]vertex, error) {
	st := c.rasterState()
	pos := c.Attribs[LocPosition]
	if pos == nil || !pos.Enabled {
		return nil, ErrMissingAttrib
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
	posData, err := c.AttribFloats(pos, 0, maxV)
	if err != nil {
		return nil, fmt.Errorf("position attrib: %w", err)
	}
	var colData, uvData []float32
	var colSize int32
	if cb := c.Attribs[LocColor]; cb != nil && cb.Enabled {
		if colData, err = c.AttribFloats(cb, 0, maxV); err != nil {
			return nil, fmt.Errorf("color attrib: %w", err)
		}
		colSize = cb.Size
	}
	if tb := c.Attribs[LocTexCoord]; tb != nil && tb.Enabled {
		if uvData, err = c.AttribFloats(tb, 0, maxV); err != nil {
			return nil, fmt.Errorf("texcoord attrib: %w", err)
		}
	}

	fetch := func(vi int) vertex {
		var v vertex
		base := vi * int(pos.Size)
		px, py, pz := posData[base], posData[base+1], float32(0)
		if pos.Size >= 3 {
			pz = posData[base+2]
		}
		v.x, v.y, v.z = st.transform(px, py, pz)
		v.r, v.g, v.b, v.a = st.tint[0], st.tint[1], st.tint[2], st.tint[3]
		if colData != nil {
			cb := vi * int(colSize)
			v.r *= colData[cb]
			if colSize >= 2 {
				v.g *= colData[cb+1]
			}
			if colSize >= 3 {
				v.b *= colData[cb+2]
			}
			if colSize >= 4 {
				v.a *= colData[cb+3]
			}
		}
		if uvData != nil {
			v.u, v.v = uvData[vi*2], uvData[vi*2+1]
		}
		return v
	}

	verts := make([]vertex, 0, count)
	if len(indices) > 0 {
		for _, ix := range indices {
			verts = append(verts, fetch(int(ix)))
		}
	} else {
		for vi := first; vi < first+count; vi++ {
			verts = append(verts, fetch(vi))
		}
	}
	return verts, nil
}

// tri is one assembled triangle, in submission order.
type tri struct{ v0, v1, v2 vertex }

// assembleTriangles expands the vertex list into triangles, honoring
// strip winding (odd strip triangles swap the leading pair so both
// orders rasterize consistently).
func assembleTriangles(dst []tri, verts []vertex, mode int32) []tri {
	switch mode {
	case DrawModeTriStrip:
		for i := 0; i+2 < len(verts); i++ {
			if i%2 == 0 {
				dst = append(dst, tri{verts[i], verts[i+1], verts[i+2]})
			} else {
				dst = append(dst, tri{verts[i+1], verts[i], verts[i+2]})
			}
		}
	default: // DrawModeTriangles
		for i := 0; i+2 < len(verts); i += 3 {
			dst = append(dst, tri{verts[i], verts[i+1], verts[i+2]})
		}
	}
	return dst
}

// minParallelRows is the framebuffer height below which band decomposition
// is not worth the fan-out overhead.
const minParallelRows = 64

// drawTriangles rasterizes the vertex list as triangles (or a strip)
// into fb and returns the number of fragments shaded — the quantity the
// fillrate-based GPU-time model consumes.
//
// par is the scanline-band worker degree. For par > 1 the framebuffer
// rows are split into contiguous bands and every band rasterizes the
// full triangle list, in submission order, clipped to its own rows
// (sort-middle style). Each pixel is owned by exactly one band, so the
// per-pixel sequence of depth tests and blends is exactly the serial
// one and the output is byte-identical at every degree — the
// determinism tests assert this on Pix and Depth both.
func (c *Context) drawTriangles(fb *Framebuffer, verts []vertex, mode int32, par int) int64 {
	st := c.rasterState()
	if st.depthTest && fb.Depth == nil {
		// Allocated here, before the band fan-out, so no worker races to
		// create it.
		fb.Depth = make([]float32, fb.W*fb.H)
		fb.ClearDepthBuf()
	}
	tris := assembleTriangles(nil, verts, mode)
	if par <= 1 || len(tris) == 0 || fb.H < minParallelRows {
		var shaded int64
		for _, t := range tris {
			shaded += rasterizeTriangleBand(fb, &st, t.v0, t.v1, t.v2, 0, fb.H)
		}
		return shaded
	}
	var total int64
	parallel.Do(par, fb.H, func(lo, hi int) {
		var shaded int64
		for _, t := range tris {
			shaded += rasterizeTriangleBand(fb, &st, t.v0, t.v1, t.v2, lo, hi)
		}
		// Per-pixel work is disjoint across bands; only the fragment
		// counter is shared. Integer addition commutes, so the total
		// matches the serial count exactly.
		atomic.AddInt64(&total, shaded)
	})
	return total
}

// rasterizeTriangleBand fills one screen-space triangle with
// interpolated color, optional texturing, optional depth test, and
// optional alpha blending, restricted to rows [yLo, yHi). It returns
// the number of fragments shaded. The serial path passes [0, fb.H);
// the parallel path gives each worker a disjoint row band.
func rasterizeTriangleBand(fb *Framebuffer, st *rasterState, v0, v1, v2 vertex, yLo, yHi int) int64 {
	minX := int(min3(v0.x, v1.x, v2.x))
	maxX := int(max3(v0.x, v1.x, v2.x)) + 1
	minY := int(min3(v0.y, v1.y, v2.y))
	maxY := int(max3(v0.y, v1.y, v2.y)) + 1
	if minX < 0 {
		minX = 0
	}
	if minY < yLo {
		minY = yLo
	}
	if maxX > fb.W {
		maxX = fb.W
	}
	if maxY > yHi {
		maxY = yHi
	}
	if st.scissor {
		// GL scissor origin is bottom-left; framebuffer rows run
		// top-down, so convert before clipping the bounding box.
		top := fb.H - st.scY - st.scH
		bottom := fb.H - st.scY
		if minX < st.scX {
			minX = st.scX
		}
		if maxX > st.scX+st.scW {
			maxX = st.scX + st.scW
		}
		if minY < top {
			minY = top
		}
		if maxY > bottom {
			maxY = bottom
		}
	}
	if minX >= maxX || minY >= maxY {
		return 0
	}

	area := edge(v0, v1, v2.x, v2.y)
	if area == 0 {
		return 0
	}
	if area < 0 { // normalize winding so both orders rasterize
		v1, v2 = v2, v1
		area = -area
	}
	inv := 1 / area

	// Top-left fill rule: a pixel center exactly on an edge belongs to
	// at most one of the two triangles sharing that edge, so adjacent
	// triangles never double-shade (which would show as seams under
	// alpha blending).
	in0 := edgeIncludesZero(v1, v2)
	in1 := edgeIncludesZero(v2, v0)
	in2 := edgeIncludesZero(v0, v1)

	var shaded int64
	for y := minY; y < maxY; y++ {
		fy := float32(y) + 0.5
		for x := minX; x < maxX; x++ {
			fx := float32(x) + 0.5
			w0 := edge(v1, v2, fx, fy) * inv
			w1 := edge(v2, v0, fx, fy) * inv
			w2 := edge(v0, v1, fx, fy) * inv
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			if (w0 == 0 && !in0) || (w1 == 0 && !in1) || (w2 == 0 && !in2) {
				continue
			}
			idx := y*fb.W + x
			z := w0*v0.z + w1*v1.z + w2*v2.z
			if st.depthTest {
				if z > fb.Depth[idx] {
					continue
				}
				fb.Depth[idx] = z
			}
			r := w0*v0.r + w1*v1.r + w2*v2.r
			g := w0*v0.g + w1*v1.g + w2*v2.g
			b := w0*v0.b + w1*v1.b + w2*v2.b
			a := w0*v0.a + w1*v1.a + w2*v2.a
			if st.tex != nil {
				u := w0*v0.u + w1*v1.u + w2*v2.u
				v := w0*v0.v + w1*v1.v + w2*v2.v
				tr, tg, tb, ta := st.tex.Sample(u, v)
				r *= float32(tr) / 255
				g *= float32(tg) / 255
				b *= float32(tb) / 255
				a *= float32(ta) / 255
			}
			pi := idx * 4
			if st.blend && a < 1 {
				ia := 1 - a
				r = r*a + float32(fb.Pix[pi])/255*ia
				g = g*a + float32(fb.Pix[pi+1])/255*ia
				b = b*a + float32(fb.Pix[pi+2])/255*ia
				a = a + float32(fb.Pix[pi+3])/255*ia
			}
			fb.Pix[pi] = clamp8(r)
			fb.Pix[pi+1] = clamp8(g)
			fb.Pix[pi+2] = clamp8(b)
			fb.Pix[pi+3] = clamp8(a)
			shaded++
		}
	}
	return shaded
}

func edge(a, b vertex, px, py float32) float32 {
	return (b.x-a.x)*(py-a.y) - (b.y-a.y)*(px-a.x)
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
