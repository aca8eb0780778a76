package turbo

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// The entropy layer (DESIGN.md §14). A block is a 7-bit count of the
// zig-zag positions it covers (index of the last nonzero coefficient
// plus one, 0 for an empty block) and then, per nonzero coefficient,
//
//	gamma(run+1) · gamma(|level|) · sign
//
// where run is the number of zeros skipped since the previous nonzero
// coefficient, sign is 1 for a negative level, and gamma(n) is the
// Elias-gamma code of n >= 1: len(n)-1 zero bits, then n itself in
// len(n) bits — which is simply n written in 2·len(n)-1 bits. Bits are
// packed MSB first. The code is static: nothing is built per frame, per
// packet or per quality.

const (
	// countBits is the width of a block's coefficient-count prefix.
	countBits = 7

	// maxGammaZeros bounds the zero prefix the reader accepts, so one
	// gamma code is at most 47 bits and always fits a refilled
	// accumulator. It admits every level up to 2^24-1, far past
	// maxCoeff; the encoder's own levels stop at 2048 (11 zeros).
	maxGammaZeros = 23

	// pairBits is the width of the reader's one-peek table.
	pairBits = 12
)

// Bitstream errors, all ErrBadPacket: built once, so a hostile packet
// cannot make the decoder allocate.
var (
	errCoeffCount = fmt.Errorf("%w: coeff count", ErrBadPacket)
	errGamma      = fmt.Errorf("%w: gamma code too wide", ErrBadPacket)
	errRun        = fmt.Errorf("%w: run past block", ErrBadPacket)
	errTruncated  = fmt.Errorf("%w: tile bitstream truncated", ErrBadPacket)
	errUnread     = fmt.Errorf("%w: tile has unread bytes", ErrBadPacket)
	errPadding    = fmt.Errorf("%w: nonzero padding bits", ErrBadPacket)
)

// bitWriter appends an MSB-first bitstream to out through a 64-bit
// accumulator that is drained four bytes at a time.
type bitWriter struct {
	out []byte
	acc uint64 // pending bits in the low n bits
	n   uint   // always < 32 between calls
}

// put appends the low width bits of v; width <= 32.
func (w *bitWriter) put(v uint64, width uint) {
	w.acc = w.acc<<width | v
	w.n += width
	if w.n >= 32 {
		w.n -= 32
		w.out = binary.BigEndian.AppendUint32(w.out, uint32(w.acc>>w.n))
	}
}

// flush zero-pads the stream to a whole byte and returns the buffer.
func (w *bitWriter) flush() []byte {
	for ; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc>>(w.n-8)))
	}
	if w.n > 0 {
		w.out = append(w.out, byte(w.acc<<(8-w.n)))
		w.n = 0
	}
	return w.out
}

// putBlock writes one block of zig-zag-ordered quantised coefficients;
// last is the index of the final nonzero one (-1 for an empty block).
func (w *bitWriter) putBlock(zz *[blockSize * blockSize]int32, last int) {
	w.put(uint64(last+1), countBits)
	run := uint64(1) // run+1, the value the code carries
	for _, v := range zz[:last+1] {
		if v == 0 {
			run++
			continue
		}
		s := v >> 31
		level := uint64((v^s)-s)<<1 | uint64(s&1) // |level| · sign
		runBits := uint(2*bits.Len64(run) - 1)
		levelBits := uint(2*bits.Len64(level) - 2) // gamma(|level|) plus the sign bit
		if runBits+levelBits <= 32 {
			w.put(run<<levelBits|level, runBits+levelBits)
		} else {
			w.put(run, runBits)
			w.put(level, levelBits)
		}
		run = 1
	}
}

// pairEntry is one slot of the reader's peek table: the (run, level)
// pair whose whole code is a prefix of the slot's index, and the code's
// width; width 0 means the pair does not fit pairBits.
type pairEntry struct {
	run   uint8
	level int8
	width uint8
}

// _pairs resolves the common symbols with one lookup of the next
// pairBits bits.
var _pairs = buildPairs()

func buildPairs() (t [1 << pairBits]pairEntry) {
	for run := uint(1); ; run++ {
		runBits := uint(2*bits.Len(run) - 1)
		if runBits+2 > pairBits {
			return t
		}
		for mag := uint(1); ; mag++ {
			width := runBits + uint(2*bits.Len(mag))
			if width > pairBits {
				break
			}
			for sign := uint(0); sign < 2; sign++ {
				code := (run<<(width-runBits) | mag<<1 | sign) << (pairBits - width)
				level := int8(mag)
				if sign == 1 {
					level = -level
				}
				for i := code; i < code+1<<(pairBits-width); i++ {
					t[i] = pairEntry{run: uint8(run - 1), level: level, width: uint8(width)}
				}
			}
		}
	}
}

// bitReader reads an MSB-first bitstream. Past the end of data it reads
// zeros and keeps counting, so a truncated stream is found by comparing
// used() with the stream's length once, not by a check per symbol.
type bitReader struct {
	data []byte
	pos  int    // next byte to load; runs past len(data) on phantom zeros
	acc  uint64 // the next bit is bit 63
	n    int    // bits of acc already accounted to pos
}

// refill tops the accumulator up to at least 56 bits, eight bytes at a
// time while eight remain. Bits loaded beyond n are the leading bits of
// the byte at pos and are loaded again, identically, by the next refill.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.data) {
		r.acc |= binary.BigEndian.Uint64(r.data[r.pos:]) >> uint(r.n)
		k := (63 - r.n) >> 3
		r.pos += k
		r.n += k << 3
		return
	}
	for ; r.n <= 56; r.n += 8 {
		if r.pos < len(r.data) {
			r.acc |= uint64(r.data[r.pos]) << uint(56-r.n)
		}
		r.pos++
	}
}

func (r *bitReader) skip(width int) {
	r.acc <<= uint(width)
	r.n -= width
}

// used is the number of bits consumed so far.
func (r *bitReader) used() int { return r.pos<<3 - r.n }

// gamma reads one Elias-gamma code from a refilled accumulator.
func (r *bitReader) gamma() (uint64, bool) {
	z := bits.LeadingZeros64(r.acc)
	if z > maxGammaZeros {
		return 0, false
	}
	v := r.acc >> uint(63-2*z)
	r.skip(2*z + 1)
	return v, true
}

// block parses one block, leaving its dequantised coefficients in blk
// in raster order. Levels beyond ±maxCoeff are clamped, so the IDCT
// input stays in range whatever the packet says.
func (r *bitReader) block(blk, dequant *[blockSize * blockSize]int32) error {
	r.refill()
	count := int(r.acc >> (64 - countBits))
	r.skip(countBits)
	if count > blockSize*blockSize {
		return errCoeffCount
	}
	*blk = [blockSize * blockSize]int32{}
	for i := 0; i < count; i++ {
		if r.n < pairBits {
			r.refill()
		}
		var run, level int
		if e := _pairs[r.acc>>(64-pairBits)]; e.width != 0 {
			run, level = int(e.run), int(e.level)
			r.skip(int(e.width))
		} else {
			r.refill()
			g, ok := r.gamma()
			if !ok {
				return errGamma
			}
			if g > blockSize*blockSize {
				return errRun
			}
			run = int(g) - 1
			r.refill()
			if g, ok = r.gamma(); !ok {
				return errGamma
			}
			level = int(min(g, maxCoeff))
			if r.acc>>63 != 0 {
				level = -level
			}
			r.skip(1)
		}
		if run >= count-i {
			return errRun
		}
		i += run
		pos := _zigzag[i]
		blk[pos] = int32(level) * dequant[pos]
	}
	return nil
}
