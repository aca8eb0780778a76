package gles

// This file is the test oracle: the per-pixel bounding-box rasterizer
// the package shipped before the span solver, moved here unchanged.
// TestSpanMatchesReference holds the product path to its output bit for
// bit; nothing outside tests may call it.

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
