package turbo

import (
	"encoding/binary"
	"fmt"
)

// VideoEncoder is the x264 stand-in used by the §V-A encoder-speed
// comparison. Like a software H.264 encoder it performs exhaustive
// block motion search against the previous frame and transform-codes
// the residual — and like x264 on an ARM CPU without SIMD tuning, it is
// roughly two orders of magnitude slower than the turbo codec. It
// exists to reproduce the paper's "real-time video encoding is
// infeasible on service devices' CPUs" result, not to emit H.264.
type VideoEncoder struct {
	w, h        int
	quality     int // effective quality, always in [1,100]
	qz          quantizers
	prev        []byte
	started     bool
	searchRange int

	// Stats accumulate for speed accounting.
	Stats VideoStats
}

// VideoStats counts encoder work.
type VideoStats struct {
	Frames     int
	BytesOut   int64
	PixelsIn   int64
	SADChecked int64 // motion-search candidate positions examined
}

// NewVideoEncoder returns an encoder for w×h RGBA frames. searchRange
// is the ± motion search window in pixels (the knob that makes real
// encoders slow; x264's default is ±16). Out-of-range qualities are
// clamped to [1,100].
func NewVideoEncoder(w, h, quality, searchRange int) *VideoEncoder {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("turbo: video encoder size %dx%d", w, h))
	}
	if searchRange < 0 {
		searchRange = 0
	}
	quality = clampQuality(quality)
	return &VideoEncoder{
		w: w, h: h,
		quality:     quality,
		qz:          buildQuantizers(quality),
		prev:        make([]byte, w*h*4),
		searchRange: searchRange,
	}
}

// Encode compresses one frame and returns an opaque packet (the format
// is internal — only its size matters to the experiments).
func (v *VideoEncoder) Encode(frame []byte) ([]byte, error) {
	if len(frame) != v.w*v.h*4 {
		return nil, fmt.Errorf("%w: got %d bytes, want %d", ErrBadSize, len(frame), v.w*v.h*4)
	}
	tw, th := tilesDim(v.w), tilesDim(v.h)
	out := binary.AppendUvarint(nil, uint64(v.w))
	out = binary.AppendUvarint(out, uint64(v.h))

	var yBlk, cbBlk, crBlk [blockSize * blockSize]int32
	for ty := 0; ty < th; ty++ {
		for tx := 0; tx < tw; tx++ {
			mvx, mvy := 0, 0
			if v.started {
				mvx, mvy = v.motionSearch(frame, tx, ty)
			}
			out = binary.AppendVarint(out, int64(mvx))
			out = binary.AppendVarint(out, int64(mvy))
			v.loadResidual(frame, tx, ty, mvx, mvy, &yBlk, &cbBlk, &crBlk)
			// Residuals go through turbo's own transform and coefficient
			// writer (no reconstruction — the speed model does not decode).
			bw := bitWriter{out: out}
			for _, blk := range [...]*[blockSize * blockSize]int32{&yBlk, &cbBlk, &crBlk} {
				v.qz.codeBlock(&bw, blk)
			}
			out = bw.flush()
		}
	}
	copy(v.prev, frame) // open-loop reference is fine for a speed model
	v.started = true
	v.Stats.Frames++
	v.Stats.BytesOut += int64(len(out))
	v.Stats.PixelsIn += int64(v.w * v.h)
	return out, nil
}

// motionSearch exhaustively scans the ±searchRange window for the
// lowest-SAD match of the tile in the previous frame.
func (v *VideoEncoder) motionSearch(frame []byte, tx, ty int) (mvx, mvy int) {
	x0, y0 := tx*blockSize, ty*blockSize
	best := int64(1) << 62
	for dy := -v.searchRange; dy <= v.searchRange; dy++ {
		for dx := -v.searchRange; dx <= v.searchRange; dx++ {
			sad := v.tileSAD(frame, x0, y0, x0+dx, y0+dy, best)
			v.Stats.SADChecked++
			if sad < best {
				best = sad
				mvx, mvy = dx, dy
			}
		}
	}
	return mvx, mvy
}

// tileSAD computes the luma sum of absolute differences between the
// tile at (x0,y0) in frame and the tile at (rx,ry) in prev, early-
// exiting once it exceeds best.
func (v *VideoEncoder) tileSAD(frame []byte, x0, y0, rx, ry int, best int64) int64 {
	var sad int64
	for dy := 0; dy < blockSize; dy++ {
		fy, py := y0+dy, ry+dy
		if fy >= v.h {
			fy = v.h - 1
		}
		py = clampInt(py, 0, v.h-1)
		for dx := 0; dx < blockSize; dx++ {
			fx, px := x0+dx, rx+dx
			if fx >= v.w {
				fx = v.w - 1
			}
			px = clampInt(px, 0, v.w-1)
			fi := (fy*v.w + fx) * 4
			pi := (py*v.w + px) * 4
			// Approximate luma as G (dominant coefficient).
			d := int64(frame[fi+1]) - int64(v.prev[pi+1])
			if d < 0 {
				d = -d
			}
			sad += d
		}
		if sad > best {
			return sad
		}
	}
	return sad
}

// loadResidual fills the blocks with frame − motion-compensated prev in
// YCbCr space (cb/cr centred on 0, so the zero reference for the first
// frame is simply 0).
func (v *VideoEncoder) loadResidual(frame []byte, tx, ty, mvx, mvy int, yBlk, cbBlk, crBlk *[blockSize * blockSize]int32) {
	x0, y0 := tx*blockSize, ty*blockSize
	for dy := 0; dy < blockSize; dy++ {
		fy := clampInt(y0+dy, 0, v.h-1)
		py := clampInt(y0+dy+mvy, 0, v.h-1)
		for dx := 0; dx < blockSize; dx++ {
			fx := clampInt(x0+dx, 0, v.w-1)
			px := clampInt(x0+dx+mvx, 0, v.w-1)
			fi := (fy*v.w + fx) * 4
			pi := (py*v.w + px) * 4
			fYv, fCb, fCr := rgbToYCbCr(int(frame[fi]), int(frame[fi+1]), int(frame[fi+2]))
			var pY, pCb, pCr int
			if v.started {
				pY, pCb, pCr = rgbToYCbCr(int(v.prev[pi]), int(v.prev[pi+1]), int(v.prev[pi+2]))
			}
			k := dy*blockSize + dx
			yBlk[k] = int32(fYv - pY)
			cbBlk[k] = int32(fCb - pCb)
			crBlk[k] = int32(fCr - pCr)
		}
	}
}

func clampInt(v, lo, hi int) int {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}
