// Package turbo implements the incremental frame codec GBooster uses on
// the downlink (paper §V-A). Following the TurboVNC lineage the paper
// cites, the encoder transmits only the tiles that changed since the
// previous frame and compresses each changed tile with a JPEG-style
// transform pipeline (YCbCr conversion, 8×8 DCT, quantization, zig-zag,
// zero-run entropy coding). The encoder is closed-loop: it reconstructs
// what the decoder will see, so lossy tiles never drift.
//
// The transform hot path is pure fixed-point integer arithmetic
// (DESIGN.md §14): an LLM-style scaled-integer DCT/IDCT, integer YCbCr
// conversion, and quantization by precomputed reciprocal multiply. The
// float64 reference pipeline this replaced produced different wire
// bytes; both sides of a stream always run the same integer code, so
// only self-consistency (closed-loop, byte-identity across parallel
// degrees) matters, not cross-version bit equality.
//
// The package also provides VideoEncoder, a deliberately naive
// motion-search encoder standing in for x264. The paper's finding —
// software video encoding is an order of magnitude too slow on weak
// CPUs while the turbo codec sustains real-time rates — reproduces with
// these two implementations.
package turbo

// blockSize is the DCT block and tile edge length.
const blockSize = 8

// Fixed-point DCT parameters (LLM / jfdctint lineage). constBits is the
// precision of the trig constants; pass1Bits of extra headroom is kept
// between the row and column passes so pass-1 rounding error stays below
// the final descale.
const (
	constBits = 13
	pass1Bits = 2
)

// Scaled trig constants: fix_K = round(K * 2^constBits).
const (
	fix0_298631336 = 2446
	fix0_390180644 = 3196
	fix0_541196100 = 4433
	fix0_765366865 = 6270
	fix0_899976223 = 7373
	fix1_175875602 = 9633
	fix1_501321110 = 12299
	fix1_847759065 = 15137
	fix1_961570560 = 16069
	fix2_053119869 = 16819
	fix2_562915447 = 20995
	fix3_072711026 = 25172
)

// descale rounds x to n fewer fractional bits (round half up).
func descale(x, n int) int { return (x + (1 << (n - 1))) >> n }

// fdct8 computes the forward 8×8 DCT-II of blk in place. Input samples
// are centred on 0 (range ±255 is safe); the output coefficients are
// scaled by 8 relative to the orthonormal DCT — the ×8 is folded into
// the quantizer reciprocals (see buildQuantizers) instead of being
// descaled away here, which saves one rounding per coefficient.
func fdct8(blk *[blockSize * blockSize]int32) {
	// Pass 1: rows. Intermediate results carry pass1Bits extra
	// fractional bits into pass 2.
	for i := 0; i < blockSize*blockSize; i += blockSize {
		tmp0 := int(blk[i+0]) + int(blk[i+7])
		tmp7 := int(blk[i+0]) - int(blk[i+7])
		tmp1 := int(blk[i+1]) + int(blk[i+6])
		tmp6 := int(blk[i+1]) - int(blk[i+6])
		tmp2 := int(blk[i+2]) + int(blk[i+5])
		tmp5 := int(blk[i+2]) - int(blk[i+5])
		tmp3 := int(blk[i+3]) + int(blk[i+4])
		tmp4 := int(blk[i+3]) - int(blk[i+4])

		// Even part.
		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2
		blk[i+0] = int32((tmp10 + tmp11) << pass1Bits)
		blk[i+4] = int32((tmp10 - tmp11) << pass1Bits)
		z1 := (tmp12 + tmp13) * fix0_541196100
		blk[i+2] = int32(descale(z1+tmp13*fix0_765366865, constBits-pass1Bits))
		blk[i+6] = int32(descale(z1-tmp12*fix1_847759065, constBits-pass1Bits))

		// Odd part.
		z1 = tmp4 + tmp7
		z2 := tmp5 + tmp6
		z3 := tmp4 + tmp6
		z4 := tmp5 + tmp7
		z5 := (z3 + z4) * fix1_175875602
		tmp4 *= fix0_298631336
		tmp5 *= fix2_053119869
		tmp6 *= fix3_072711026
		tmp7 *= fix1_501321110
		z1 = -z1 * fix0_899976223
		z2 = -z2 * fix2_562915447
		z3 = -z3*fix1_961570560 + z5
		z4 = -z4*fix0_390180644 + z5
		blk[i+7] = int32(descale(tmp4+z1+z3, constBits-pass1Bits))
		blk[i+5] = int32(descale(tmp5+z2+z4, constBits-pass1Bits))
		blk[i+3] = int32(descale(tmp6+z2+z3, constBits-pass1Bits))
		blk[i+1] = int32(descale(tmp7+z1+z4, constBits-pass1Bits))
	}
	// Pass 2: columns. Removes the pass1Bits headroom, leaving the ×8
	// block scale.
	for i := 0; i < blockSize; i++ {
		tmp0 := int(blk[i+0*blockSize]) + int(blk[i+7*blockSize])
		tmp7 := int(blk[i+0*blockSize]) - int(blk[i+7*blockSize])
		tmp1 := int(blk[i+1*blockSize]) + int(blk[i+6*blockSize])
		tmp6 := int(blk[i+1*blockSize]) - int(blk[i+6*blockSize])
		tmp2 := int(blk[i+2*blockSize]) + int(blk[i+5*blockSize])
		tmp5 := int(blk[i+2*blockSize]) - int(blk[i+5*blockSize])
		tmp3 := int(blk[i+3*blockSize]) + int(blk[i+4*blockSize])
		tmp4 := int(blk[i+3*blockSize]) - int(blk[i+4*blockSize])

		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2
		blk[i+0*blockSize] = int32(descale(tmp10+tmp11, pass1Bits))
		blk[i+4*blockSize] = int32(descale(tmp10-tmp11, pass1Bits))
		z1 := (tmp12 + tmp13) * fix0_541196100
		blk[i+2*blockSize] = int32(descale(z1+tmp13*fix0_765366865, constBits+pass1Bits))
		blk[i+6*blockSize] = int32(descale(z1-tmp12*fix1_847759065, constBits+pass1Bits))

		z1 = tmp4 + tmp7
		z2 := tmp5 + tmp6
		z3 := tmp4 + tmp6
		z4 := tmp5 + tmp7
		z5 := (z3 + z4) * fix1_175875602
		tmp4 *= fix0_298631336
		tmp5 *= fix2_053119869
		tmp6 *= fix3_072711026
		tmp7 *= fix1_501321110
		z1 = -z1 * fix0_899976223
		z2 = -z2 * fix2_562915447
		z3 = -z3*fix1_961570560 + z5
		z4 = -z4*fix0_390180644 + z5
		blk[i+7*blockSize] = int32(descale(tmp4+z1+z3, constBits+pass1Bits))
		blk[i+5*blockSize] = int32(descale(tmp5+z2+z4, constBits+pass1Bits))
		blk[i+3*blockSize] = int32(descale(tmp6+z2+z3, constBits+pass1Bits))
		blk[i+1*blockSize] = int32(descale(tmp7+z1+z4, constBits+pass1Bits))
	}
}

// idct8 computes the inverse 8×8 DCT of blk in place. Input is
// dequantized coefficients at the fdct8 output scale (8× orthonormal);
// the final descale removes both the transform's 8× gain and the
// constBits/pass1Bits working precision, so the output is centred
// spatial samples. Arithmetic is done in int (64-bit on every supported
// target), so even hostile coefficient values — bounded to ±maxCoeff by
// the decoder — cannot overflow.
func idct8(blk *[blockSize * blockSize]int32) {
	// Pass 1: columns, keeping pass1Bits extra precision.
	for i := 0; i < blockSize; i++ {
		// A column with no AC term is its DC term in every row: the
		// butterfly below computes descale(dc<<constBits, constBits-
		// pass1Bits) eight times, which is exactly dc<<pass1Bits.
		// Quantized blocks are mostly such columns.
		if blk[i+1*blockSize]|blk[i+2*blockSize]|blk[i+3*blockSize]|blk[i+4*blockSize]|
			blk[i+5*blockSize]|blk[i+6*blockSize]|blk[i+7*blockSize] == 0 {
			dc := blk[i] << pass1Bits
			blk[i+0*blockSize], blk[i+1*blockSize], blk[i+2*blockSize], blk[i+3*blockSize] = dc, dc, dc, dc
			blk[i+4*blockSize], blk[i+5*blockSize], blk[i+6*blockSize], blk[i+7*blockSize] = dc, dc, dc, dc
			continue
		}

		// Even part.
		z2 := int(blk[i+2*blockSize])
		z3 := int(blk[i+6*blockSize])
		z1 := (z2 + z3) * fix0_541196100
		tmp2 := z1 - z3*fix1_847759065
		tmp3 := z1 + z2*fix0_765366865
		tmp0 := (int(blk[i+0*blockSize]) + int(blk[i+4*blockSize])) << constBits
		tmp1 := (int(blk[i+0*blockSize]) - int(blk[i+4*blockSize])) << constBits
		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2

		// Odd part.
		t0 := int(blk[i+7*blockSize])
		t1 := int(blk[i+5*blockSize])
		t2 := int(blk[i+3*blockSize])
		t3 := int(blk[i+1*blockSize])
		z1 = t0 + t3
		z2 = t1 + t2
		z3 = t0 + t2
		z4 := t1 + t3
		z5 := (z3 + z4) * fix1_175875602
		t0 *= fix0_298631336
		t1 *= fix2_053119869
		t2 *= fix3_072711026
		t3 *= fix1_501321110
		z1 = -z1 * fix0_899976223
		z2 = -z2 * fix2_562915447
		z3 = -z3*fix1_961570560 + z5
		z4 = -z4*fix0_390180644 + z5
		t0 += z1 + z3
		t1 += z2 + z4
		t2 += z2 + z3
		t3 += z1 + z4

		blk[i+0*blockSize] = int32(descale(tmp10+t3, constBits-pass1Bits))
		blk[i+7*blockSize] = int32(descale(tmp10-t3, constBits-pass1Bits))
		blk[i+1*blockSize] = int32(descale(tmp11+t2, constBits-pass1Bits))
		blk[i+6*blockSize] = int32(descale(tmp11-t2, constBits-pass1Bits))
		blk[i+2*blockSize] = int32(descale(tmp12+t1, constBits-pass1Bits))
		blk[i+5*blockSize] = int32(descale(tmp12-t1, constBits-pass1Bits))
		blk[i+3*blockSize] = int32(descale(tmp13+t0, constBits-pass1Bits))
		blk[i+4*blockSize] = int32(descale(tmp13-t0, constBits-pass1Bits))
	}
	// Pass 2: rows. The final shift of constBits+pass1Bits+3 removes the
	// working precision plus the transform's 8× scale.
	for i := 0; i < blockSize*blockSize; i += blockSize {
		z2 := int(blk[i+2])
		z3 := int(blk[i+6])
		z1 := (z2 + z3) * fix0_541196100
		tmp2 := z1 - z3*fix1_847759065
		tmp3 := z1 + z2*fix0_765366865
		tmp0 := (int(blk[i+0]) + int(blk[i+4])) << constBits
		tmp1 := (int(blk[i+0]) - int(blk[i+4])) << constBits
		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2

		t0 := int(blk[i+7])
		t1 := int(blk[i+5])
		t2 := int(blk[i+3])
		t3 := int(blk[i+1])
		z1 = t0 + t3
		z2 = t1 + t2
		z3 = t0 + t2
		z4 := t1 + t3
		z5 := (z3 + z4) * fix1_175875602
		t0 *= fix0_298631336
		t1 *= fix2_053119869
		t2 *= fix3_072711026
		t3 *= fix1_501321110
		z1 = -z1 * fix0_899976223
		z2 = -z2 * fix2_562915447
		z3 = -z3*fix1_961570560 + z5
		z4 = -z4*fix0_390180644 + z5
		t0 += z1 + z3
		t1 += z2 + z4
		t2 += z2 + z3
		t3 += z1 + z4

		blk[i+0] = int32(descale(tmp10+t3, constBits+pass1Bits+3))
		blk[i+7] = int32(descale(tmp10-t3, constBits+pass1Bits+3))
		blk[i+1] = int32(descale(tmp11+t2, constBits+pass1Bits+3))
		blk[i+6] = int32(descale(tmp11-t2, constBits+pass1Bits+3))
		blk[i+2] = int32(descale(tmp12+t1, constBits+pass1Bits+3))
		blk[i+5] = int32(descale(tmp12-t1, constBits+pass1Bits+3))
		blk[i+3] = int32(descale(tmp13+t0, constBits+pass1Bits+3))
		blk[i+4] = int32(descale(tmp13-t0, constBits+pass1Bits+3))
	}
}

// _zigzag maps coefficient index -> raster position within a block.
var _zigzag = buildZigzag()

func buildZigzag() [blockSize * blockSize]int {
	var order [blockSize * blockSize]int
	x, y, i := 0, 0, 0
	up := true
	for i < blockSize*blockSize {
		order[i] = y*blockSize + x
		i++
		if up {
			switch {
			case x == blockSize-1:
				y++
				up = false
			case y == 0:
				x++
				up = false
			default:
				x++
				y--
			}
		} else {
			switch {
			case y == blockSize-1:
				x++
				up = true
			case x == 0:
				y++
				up = true
			default:
				x--
				y++
			}
		}
	}
	return order
}

// _baseQuant is the JPEG luminance quantization table; chroma reuses it
// (a simplification documented in DESIGN.md).
var _baseQuant = [blockSize * blockSize]int{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// clampQuality maps any int onto the valid quality range [1,100]. All
// constructors and the quality byte on the wire go through it, so the
// stored/serialized quality is always the effective one.
func clampQuality(q int) int {
	switch {
	case q < 1:
		return 1
	case q > 100:
		return 100
	default:
		return q
	}
}

// quantTable scales the base table for a quality in [1,100], matching
// the libjpeg convention (50 = base table, 100 = near lossless).
func quantTable(quality int) [blockSize * blockSize]int {
	quality = clampQuality(quality)
	var scale int
	if quality < 50 {
		scale = 5000 / quality
	} else {
		scale = 200 - 2*quality
	}
	var t [blockSize * blockSize]int
	for i, q := range _baseQuant {
		v := (q*scale + 50) / 100
		if v < 1 {
			v = 1
		}
		if v > 255 {
			v = 255
		}
		t[i] = v
	}
	return t
}

// Reciprocal-quantizer precision: quantizing multiplies a coefficient
// by round(2^quantShift / (8*quant)) and shifts right, replacing a
// division per coefficient with a multiply.
const (
	quantShift = 19
	quantHalf  = 1 << (quantShift - 1)
)

// maxCoeff bounds coefficient magnitudes accepted off the wire. The
// encoder never produces |q| > 2048 (±255 samples through the 8×-scaled
// DCT at quant ≥ 1), so the bound only clips hostile packets, keeping
// the IDCT input small enough that its arithmetic stays exact.
const maxCoeff = 1 << 15

// quantizers bundles one quality level's per-coefficient dequantization
// multipliers with the fixed-point reciprocals the encoder quantizes
// by. The transform's 8× output scale is folded into the reciprocal
// (divisor = 8*quant), so dequantized coefficients land at exactly the
// scale idct8 expects with no extra descale step.
type quantizers struct {
	dequant [blockSize * blockSize]int32
	recip   [blockSize * blockSize]int32
}

func buildQuantizers(quality int) quantizers {
	qt := quantTable(quality)
	var z quantizers
	for i, q := range qt {
		z.dequant[i] = int32(q)
		div := q << 3
		z.recip[i] = int32(((1 << quantShift) + div/2) / div)
	}
	return z
}

// quantize turns fdct8's output in blk into quantized levels in zig-zag
// order in zz and returns the index of the last nonzero one (-1 for an
// all-zero block). Quantization is a branch-free reciprocal multiply per
// coefficient. blk is left holding the dequantized coefficients in
// raster order — exactly what a decoder feeds idct8 after parsing zz.
func (z *quantizers) quantize(blk, zz *[blockSize * blockSize]int32) int {
	last := -1
	for i := range zz {
		pos := _zigzag[i]
		c := int(blk[pos])
		s := c >> 63 // all-ones for negative c (int is 64-bit on supported targets)
		q := (((c^s)-s)*int(z.recip[pos]) + quantHalf) >> quantShift
		q = (q ^ s) - s
		zz[i] = int32(q)
		blk[pos] = int32(q) * z.dequant[pos]
		if q != 0 {
			last = i
		}
	}
	return last
}

// Integer color conversion: coefficients scaled by 2^colorBits,
// rounded. The forward luma weights sum to exactly 1<<colorBits, so a
// gray input converts with zero error.
const (
	colorBits = 16
	colorHalf = 1 << (colorBits - 1)
)

// rgbToYCbCr converts one pixel to the JPEG YCbCr color space. Inputs
// are 0..255; y comes back in 0..255 and cb/cr centred on 0.
func rgbToYCbCr(r, g, b int) (y, cb, cr int) {
	y = (19595*r + 38470*g + 7471*b + colorHalf) >> colorBits
	cb = (-11059*r - 21710*g + 32768*b + colorHalf) >> colorBits
	cr = (32768*r - 27439*g - 5329*b + colorHalf) >> colorBits
	return y, cb, cr
}

// yCbCrToRGB converts back (y 0..255, cb/cr centred on 0), clamping to
// [0,255].
func yCbCrToRGB(y, cb, cr int) (r, g, b int) {
	dr, dg, db := chromaToRGB(cb, cr)
	return clamp255(y + dr), clamp255(y + dg), clamp255(y + db)
}

// chromaToRGB is what a pixel's chroma adds to its luma in each of the
// three channels, before clamping.
func chromaToRGB(cb, cr int) (dr, dg, db int) {
	dr = (91881*cr + colorHalf) >> colorBits
	dg = -((22554*cb + 46802*cr + colorHalf) >> colorBits)
	db = (116130*cb + colorHalf) >> colorBits
	return dr, dg, db
}

// clamp255 is clampInt(v, 0, 255) with one compare on the common path.
func clamp255(v int) int {
	if uint(v) > 255 {
		return clampInt(v, 0, 255)
	}
	return v
}
