package turbo

import (
	"errors"
	"math"
	"testing"

	"github.com/gbooster/gbooster/internal/sim"
)

// testFrame renders a deterministic synthetic scene: gradient
// background with a colored square at (ox, oy).
func testFrame(w, h, ox, oy int) []byte {
	f := make([]byte, w*h*4)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := (y*w + x) * 4
			f[i] = byte(x * 255 / w)
			f[i+1] = byte(y * 255 / h)
			f[i+2] = 60
			f[i+3] = 255
		}
	}
	for y := oy; y < oy+16 && y < h; y++ {
		for x := ox; x < ox+16 && x < w; x++ {
			if x < 0 || y < 0 {
				continue
			}
			i := (y*w + x) * 4
			f[i], f[i+1], f[i+2] = 220, 40, 40
		}
	}
	return f
}

func TestDCTRoundTrip(t *testing.T) {
	// Fixed-point forward + inverse: fdct8 output is 8× the orthonormal
	// coefficients and idct8 removes the scale, so a quant-free round
	// trip (quality-100 tables are all 1) must reproduce samples within
	// the rounding error of the two integer passes.
	r := sim.NewRNG(3)
	var src, blk [blockSize * blockSize]int32
	for i := range src {
		src[i] = int32(r.Intn(256) - 128)
	}
	blk = src
	fdct8(&blk)
	qz := buildQuantizers(100)
	for i := range blk {
		c := int(blk[i])
		s := c >> 63
		q := (((c^s)-s)*int(qz.recip[i]) + quantHalf) >> quantShift
		q = (q ^ s) - s
		blk[i] = int32(q) * qz.dequant[i]
	}
	idct8(&blk)
	for i := range src {
		if d := blk[i] - src[i]; d > 3 || d < -3 {
			t.Fatalf("DCT round trip error at %d: %v vs %v", i, blk[i], src[i])
		}
	}
}

func TestDCTDCOnly(t *testing.T) {
	// A flat block cancels every butterfly difference exactly, so the
	// integer transform must produce exact zeros for the ACs and exactly
	// 8×(8×mean) for the DC (the 8× block scale on the orthonormal 800).
	var blk [blockSize * blockSize]int32
	for i := range blk {
		blk[i] = 100
	}
	fdct8(&blk)
	if blk[0] != 6400 {
		t.Fatalf("DC coefficient = %v, want 6400 (8x orthonormal 800)", blk[0])
	}
	for i := 1; i < len(blk); i++ {
		if blk[i] != 0 {
			t.Fatalf("AC coefficient %d = %v for flat block", i, blk[i])
		}
	}
}

func TestZigzagPermutation(t *testing.T) {
	seen := make(map[int]bool)
	for _, p := range _zigzag {
		if p < 0 || p >= blockSize*blockSize || seen[p] {
			t.Fatalf("zigzag is not a permutation: %v", _zigzag)
		}
		seen[p] = true
	}
	// Standard JPEG order starts 0, 1, 8, 16, 9, 2.
	want := []int{0, 1, 8, 16, 9, 2}
	for i, w := range want {
		if _zigzag[i] != w {
			t.Fatalf("zigzag prefix = %v, want %v", _zigzag[:6], want)
		}
	}
}

func TestQuantTableQualityMonotonic(t *testing.T) {
	lo, mid, hi := quantTable(10), quantTable(50), quantTable(95)
	if mid != _baseQuant {
		t.Fatal("quality 50 must reproduce the base table")
	}
	for i := range lo {
		if lo[i] < mid[i] {
			t.Fatalf("low quality quant[%d]=%d < base %d", i, lo[i], mid[i])
		}
		if hi[i] > mid[i] {
			t.Fatalf("high quality quant[%d]=%d > base %d", i, hi[i], mid[i])
		}
		if hi[i] < 1 {
			t.Fatalf("quant[%d]=%d below 1", i, hi[i])
		}
	}
	// Out-of-range qualities clamp rather than misbehave.
	if quantTable(-5) != quantTable(1) || quantTable(500) != quantTable(100) {
		t.Fatal("quality clamping wrong")
	}
}

func TestColorConversionRoundTrip(t *testing.T) {
	// Exhaustive-ish: every corner plus a sampled lattice. Two integer
	// roundings (forward + inverse) bound the round-trip error at ±2.
	check := func(r0, g0, b0 int) {
		y, cb, cr := rgbToYCbCr(r0, g0, b0)
		r, g, b := yCbCrToRGB(y, cb, cr)
		if abs(r-r0) > 2 || abs(g-g0) > 2 || abs(b-b0) > 2 {
			t.Fatalf("color round trip (%d,%d,%d) -> (%d,%d,%d)", r0, g0, b0, r, g, b)
		}
	}
	for _, rgb := range [][3]int{{0, 0, 0}, {255, 255, 255}, {255, 0, 0}, {0, 255, 0}, {0, 0, 255}, {123, 45, 67}} {
		check(rgb[0], rgb[1], rgb[2])
	}
	for r := 0; r < 256; r += 17 {
		for g := 0; g < 256; g += 17 {
			for b := 0; b < 256; b += 17 {
				check(r, g, b)
			}
		}
	}
	// Gray must convert losslessly: the luma weights sum to exactly 2^16.
	for v := 0; v < 256; v++ {
		y, cb, cr := rgbToYCbCr(v, v, v)
		if y != v || cb != 0 || cr != 0 {
			t.Fatalf("gray %d -> y=%d cb=%d cr=%d", v, y, cb, cr)
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestEncodeDecodeKeyframe(t *testing.T) {
	const w, h = 64, 48
	frame := testFrame(w, h, 10, 10)
	enc := NewEncoder(w, h, 90)
	dec := NewDecoder(w, h, 90)
	pkt, err := enc.Encode(frame, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if psnr := PSNR(frame, got); psnr < 30 {
		t.Fatalf("keyframe PSNR = %.1f dB, want >= 30", psnr)
	}
	if enc.Stats.KeyFrames != 1 || enc.Stats.TilesSent != enc.Stats.TilesTotal {
		t.Fatalf("keyframe stats: %+v", enc.Stats)
	}
}

func TestDeltaFramesOnlyShipChangedTiles(t *testing.T) {
	const w, h = 64, 64
	enc := NewEncoder(w, h, 75)
	dec := NewDecoder(w, h, 75)
	f0 := testFrame(w, h, 8, 8)
	pkt0, err := enc.Encode(f0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = dec.Decode(pkt0); err != nil {
		t.Fatal(err)
	}
	// Move the square slightly: only tiles around it change.
	f1 := testFrame(w, h, 16, 8)
	pkt1, err := enc.Encode(f1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt1) >= len(pkt0)/2 {
		t.Fatalf("delta packet %dB not much smaller than key %dB", len(pkt1), len(pkt0))
	}
	got, err := dec.Decode(pkt1)
	if err != nil {
		t.Fatal(err)
	}
	if psnr := PSNR(f1, got); psnr < 28 {
		t.Fatalf("delta PSNR = %.1f dB", psnr)
	}
}

func TestStaticSceneProducesTinyDeltas(t *testing.T) {
	// The paper's motivation for incremental encoding: static frames
	// cost almost nothing.
	const w, h = 64, 64
	enc := NewEncoder(w, h, 75)
	f := testFrame(w, h, 8, 8)
	if _, err := enc.Encode(f, false); err != nil {
		t.Fatal(err)
	}
	pkt, err := enc.Encode(f, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) > 32 {
		t.Fatalf("static delta packet = %dB, want header-only", len(pkt))
	}
}

func TestClosedLoopNoDrift(t *testing.T) {
	// Re-encoding the same frame many times must not degrade quality:
	// the encoder tracks the decoder's reconstruction, so a stable
	// input eventually ships zero tiles, and PSNR stays flat.
	const w, h = 48, 48
	enc := NewEncoder(w, h, 40) // low quality makes drift visible if present
	dec := NewDecoder(w, h, 40)
	f := testFrame(w, h, 12, 12)
	var prevPSNR float64
	for i := 0; i < 10; i++ {
		pkt, err := enc.Encode(f, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		psnr := PSNR(f, got)
		if i > 0 && psnr < prevPSNR-0.01 {
			t.Fatalf("PSNR degraded across stable frames: %.2f -> %.2f", prevPSNR, psnr)
		}
		prevPSNR = psnr
	}
}

func TestForceKeyframe(t *testing.T) {
	const w, h = 32, 32
	enc := NewEncoder(w, h, 75)
	f := testFrame(w, h, 4, 4)
	if _, err := enc.Encode(f, false); err != nil {
		t.Fatal(err)
	}
	pkt, err := enc.Encode(f, true)
	if err != nil {
		t.Fatal(err)
	}
	if pkt[0] != packetKeyQ {
		t.Fatal("forceKey did not produce a keyframe")
	}
	if enc.Stats.KeyFrames != 2 {
		t.Fatalf("KeyFrames = %d", enc.Stats.KeyFrames)
	}
}

func TestEncodeSizeMismatch(t *testing.T) {
	enc := NewEncoder(16, 16, 75)
	if _, err := enc.Encode(make([]byte, 10), false); !errors.Is(err, ErrBadSize) {
		t.Fatalf("size mismatch error = %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	dec := NewDecoder(16, 16, 75)
	if _, err := dec.Decode(nil); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("empty packet error = %v", err)
	}
	if _, err := dec.Decode([]byte{9}); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("bad kind error = %v", err)
	}
	// Delta before keyframe.
	enc := NewEncoder(16, 16, 75)
	f := testFrame(16, 16, 0, 0)
	if _, err := enc.Encode(f, false); err != nil {
		t.Fatal(err)
	}
	delta, err := enc.Encode(testFrame(16, 16, 4, 4), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(delta); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("delta-before-key error = %v", err)
	}
	// Wrong geometry: rejected as a packet the decoder cannot honor,
	// never decoded with mismatched dimensions.
	other := NewDecoder(32, 32, 75)
	key, err := NewEncoder(16, 16, 75).Encode(f, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Decode(key); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("geometry mismatch error = %v", err)
	}
	// Truncated packet.
	if _, err := NewDecoder(16, 16, 75).Decode(key[:len(key)-3]); err == nil {
		t.Fatal("truncated packet accepted")
	}
}

func TestNonMultipleOfEightDimensions(t *testing.T) {
	const w, h = 30, 22 // edge tiles are partial
	enc := NewEncoder(w, h, 80)
	dec := NewDecoder(w, h, 80)
	f := testFrame(w, h, 5, 5)
	pkt, err := enc.Encode(f, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if psnr := PSNR(f, got); psnr < 28 {
		t.Fatalf("odd-size PSNR = %.1f dB", psnr)
	}
}

func TestCompressionRatioOnGameLikeContent(t *testing.T) {
	// The paper reports up to 25:1; our gradient+sprite frames should
	// comfortably beat 5:1 on keyframes at default quality.
	const w, h = 128, 128
	enc := NewEncoder(w, h, DefaultQuality)
	f := testFrame(w, h, 30, 40)
	pkt, err := enc.Encode(f, false)
	if err != nil {
		t.Fatal(err)
	}
	raw := w * h * 4
	if ratio := float64(raw) / float64(len(pkt)); ratio < 5 {
		t.Fatalf("keyframe compression ratio = %.1f:1, want >= 5", ratio)
	}
}

func TestPSNR(t *testing.T) {
	a := []byte{10, 20, 30, 255, 40, 50, 60, 255}
	if !math.IsInf(PSNR(a, a), 1) {
		t.Fatal("identical buffers should have infinite PSNR")
	}
	if PSNR(a, a[:4]) != 0 {
		t.Fatal("length mismatch should return 0")
	}
	b := []byte{11, 20, 30, 255, 40, 50, 60, 255}
	if p := PSNR(a, b); p < 40 || math.IsInf(p, 1) {
		t.Fatalf("near-identical PSNR = %v", p)
	}
}

func TestVideoEncoderRoughlyTracksContent(t *testing.T) {
	const w, h = 48, 48
	v := NewVideoEncoder(w, h, 75, 4)
	f0 := testFrame(w, h, 8, 8)
	p0, err := v.Encode(f0)
	if err != nil {
		t.Fatal(err)
	}
	// Translated content: motion search should find the shift, making
	// the residual (and packet) small relative to the first frame.
	f1 := testFrame(w, h, 10, 8)
	p1, err := v.Encode(f1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) >= len(p0) {
		t.Fatalf("inter frame %dB not smaller than intra %dB", len(p1), len(p0))
	}
	if v.Stats.SADChecked == 0 {
		t.Fatal("motion search did not run")
	}
	if _, err := v.Encode(make([]byte, 7)); !errors.Is(err, ErrBadSize) {
		t.Fatalf("size mismatch error = %v", err)
	}
}

func TestVideoEncoderMuchSlowerThanTurbo(t *testing.T) {
	// The §V-A conclusion in miniature: per-pixel work of the video
	// encoder dwarfs the turbo codec's on moving content.
	const w, h = 64, 64
	turboEnc := NewEncoder(w, h, 75)
	videoEnc := NewVideoEncoder(w, h, 75, 8)
	frames := 5
	for i := 0; i < frames; i++ {
		f := testFrame(w, h, i*4, i*3)
		if _, err := turboEnc.Encode(f, false); err != nil {
			t.Fatal(err)
		}
		if _, err := videoEnc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	// SAD positions checked per pixel is the dominant cost; turbo does
	// zero motion search.
	perPixel := float64(videoEnc.Stats.SADChecked*blockSize*blockSize) / float64(videoEnc.Stats.PixelsIn)
	if perPixel < 50 {
		t.Fatalf("video encoder per-pixel SAD work = %.0f, expected heavy search", perPixel)
	}
}

// BenchmarkIDCT8 times the inverse transform on the three shapes a
// quantized block takes: every coefficient set, DC alone (all eight
// columns take the pass-1 shortcut), and a DC plus a few low-frequency
// terms (most columns do).
func BenchmarkIDCT8(b *testing.B) {
	var dense, dcOnly, sparse [blockSize * blockSize]int32
	r := sim.NewRNG(8)
	for i := range dense {
		dense[i] = int32(r.Intn(401) - 200)
	}
	dcOnly[0] = 640
	sparse[0], sparse[1], sparse[8], sparse[9] = 640, -96, 48, 24
	for _, c := range []struct {
		name string
		src  *[blockSize * blockSize]int32
	}{{"dense", &dense}, {"dc-only", &dcOnly}, {"sparse", &sparse}} {
		b.Run(c.name, func(b *testing.B) {
			var blk [blockSize * blockSize]int32
			for i := 0; i < b.N; i++ {
				blk = *c.src
				idct8(&blk)
			}
		})
	}
}

func BenchmarkVideoEncode(b *testing.B) {
	const w, h = 320, 240
	enc := NewVideoEncoder(w, h, DefaultQuality, 8)
	frames := [][]byte{testFrame(w, h, 10, 10), testFrame(w, h, 14, 12)}
	if _, err := enc.Encode(frames[0]); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(w * h * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(frames[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}
