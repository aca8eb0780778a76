package turbo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/gbooster/gbooster/internal/parallel"
)

// Codec errors.
var (
	ErrBadPacket = errors.New("turbo: malformed packet")
	ErrBadSize   = errors.New("turbo: frame size mismatch")
)

// Packet kinds of wire version 3, the only version (DESIGN.md §14): the
// header carries the encoder's effective quality, so the decoder always
// dequantizes with the right table, and each tile entry carries its
// byte length ahead of a bit-packed payload. Kinds 1-4 belonged to the
// byte-oriented versions 1 and 2 and are answered with ErrBadPacket.
const (
	packetKeyQ   = 5 // every tile encoded
	packetDeltaQ = 6 // only changed tiles encoded
)

// DefaultQuality balances the paper's reported ~25:1 compression
// against visible artifacts.
const DefaultQuality = 60

// DefaultDiffThreshold is the per-tile mean absolute difference (in
// 8-bit code values) up to which a tile is considered unchanged. The
// scan compares integers: SAD > DefaultDiffThreshold × samples.
const DefaultDiffThreshold = 2

// Encoder compresses a stream of RGBA frames into keyframe/delta
// packets. It is closed-loop: prev holds the decoder's reconstruction,
// not the original pixels, so quantization error never accumulates
// into drift between the phone and the service device.
type Encoder struct {
	w, h    int
	quality int // effective quality, always in [1,100]
	qz      quantizers
	prev    []byte // decoder-visible reconstruction, RGBA
	started bool

	// src is the source pixels each tile was last evaluated from (same
	// layout as prev). settled[t] says prev's tile t is either within
	// the diff threshold of src's tile or is src's tile reconstructed at
	// the current quality — so a delta tile whose source still equals
	// src needs neither scan nor transform: the scan would repeat its
	// answer, and a re-encode would reproduce prev byte for byte.
	src     []byte
	settled []bool

	// outBuf is the reused packet buffer: Encode appends into it and
	// returns a slice of it, so steady-state encoding allocates nothing.
	outBuf []byte

	// par is the tile-parallel worker degree; <= 1 keeps the serial
	// reference path. Tiles are independent — each reads only its own
	// region of frame/prev and writes only its own region of prev — so
	// the parallel path produces byte-identical packets (see
	// encodeTilesParallel and the determinism tests).
	par   int
	spans []encSpan // per-worker-span encoded output, reused across frames

	// Stats accumulate for the traffic experiments.
	Stats EncoderStats
}

// encSpan is what one parallel worker span produced: the entries of the
// tiles it shipped, in grid order, how many, and the tile row the next
// span starts at. It lives in Encoder.spans at the span's first tile row.
type encSpan struct {
	buf  []byte
	sent uint32
	end  int
}

// EncoderStats counts encoder work.
type EncoderStats struct {
	Frames     int
	KeyFrames  int
	TilesSent  int
	TilesTotal int
	BytesOut   int64
	PixelsIn   int64
}

// NewEncoder returns an encoder for w×h RGBA frames at the given JPEG-
// style quality. Out-of-range qualities are clamped to [1,100] and the
// effective value is what SetQuality/Quality and the packet header see.
func NewEncoder(w, h, quality int) *Encoder {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("turbo: encoder size %dx%d", w, h))
	}
	quality = clampQuality(quality)
	return &Encoder{
		w: w, h: h,
		quality: quality,
		qz:      buildQuantizers(quality),
		prev:    make([]byte, w*h*4),
		src:     make([]byte, w*h*4),
		settled: make([]bool, tilesDim(w)*tilesDim(h)),
	}
}

// SetParallelism sets the tile-parallel worker degree: n <= 0 means one
// worker per CPU, n == 1 the serial reference path. Output is
// byte-identical at every degree.
func (e *Encoder) SetParallelism(n int) { e.par = parallel.Degree(n) }

// SetQuality changes the quality for subsequent frames (clamped to
// [1,100]). The change is safe mid-stream: each packet carries its
// quality, and the closed loop keeps already-reconstructed tiles
// consistent — only re-shipped tiles use the new tables. Every tile is
// unsettled: one whose reconstruction sits beyond the diff threshold
// must ship again at the new quality even if its source never changes.
func (e *Encoder) SetQuality(q int) {
	q = clampQuality(q)
	if q == e.quality {
		return
	}
	e.quality = q
	e.qz = buildQuantizers(q)
	clear(e.settled)
}

// Quality reports the effective quality in use.
func (e *Encoder) Quality() int { return e.quality }

// tilesDim returns tile grid dimensions (ceil division).
func tilesDim(px int) int { return (px + blockSize - 1) / blockSize }

// Encode compresses one frame (len must be w*h*4) and returns the
// packet. The first frame is a keyframe; later frames are deltas unless
// forceKey is set. The returned slice aliases the encoder's internal
// buffer and is valid until the next Encode call; callers that retain
// it must copy.
func (e *Encoder) Encode(frame []byte, forceKey bool) ([]byte, error) {
	return e.EncodeWith(frame, forceKey, nil)
}

// EncodeWith is Encode for a frame that is not drawn yet: render(y0, y1)
// must leave pixel rows [y0, y1) of frame final. Each row is rendered
// exactly once, before the encoder reads it. The serial path renders
// the whole frame in one call; on the parallel path every worker span
// renders its own rows just before it encodes them, so a frame's render
// and its encode share one fan-out and each band is encoded while it is
// still in cache. Calls on disjoint rows may run concurrently. A nil
// render is Encode. The packet is the same as Encode's of the rendered
// frame, at every degree.
func (e *Encoder) EncodeWith(frame []byte, forceKey bool, render func(y0, y1 int)) ([]byte, error) {
	if len(frame) != e.w*e.h*4 {
		return nil, fmt.Errorf("%w: got %d bytes, want %d", ErrBadSize, len(frame), e.w*e.h*4)
	}
	key := forceKey || !e.started
	e.started = true

	tw, th := tilesDim(e.w), tilesDim(e.h)
	kind := byte(packetDeltaQ)
	if key {
		kind = packetKeyQ
	}
	out := append(e.outBuf[:0], kind)
	out = binary.AppendUvarint(out, uint64(e.w))
	out = binary.AppendUvarint(out, uint64(e.h))
	out = append(out, byte(e.quality))
	countAt := len(out)
	out = append(out, 0, 0, 0, 0) // fixed 32-bit tile count, patched below

	var sent uint32
	if e.par > 1 && tw*th > 1 {
		out, sent = e.encodeTilesParallel(out, frame, key, tw, th, render)
	} else {
		if render != nil {
			render(0, e.h)
		}
		out, sent = e.encodeBands(out, frame, key, 0, th, tw)
	}
	e.Stats.TilesTotal += tw * th
	binary.LittleEndian.PutUint32(out[countAt:], sent)
	e.outBuf = out

	e.Stats.Frames++
	if key {
		e.Stats.KeyFrames++
	}
	e.Stats.TilesSent += int(sent)
	e.Stats.BytesOut += int64(len(out))
	e.Stats.PixelsIn += int64(e.w * e.h)
	return out, nil
}

// encodeTileInto appends one tile's entry — index uvarint, payload
// length, and the three YCbCr blocks as one bitstream padded to a byte —
// to out, and mirrors the decoder's reconstruction into prev. Both the
// serial loop and the parallel path funnel through here, and an entry
// depends on nothing outside its tile, which is what makes their output
// byte-identical by construction.
func (e *Encoder) encodeTileInto(out []byte, frame []byte, tx, ty, tw int, yBlk, cbBlk, crBlk *[blockSize * blockSize]int32) []byte {
	e.loadTile(frame, tx, ty, yBlk, cbBlk, crBlk)
	out = binary.AppendUvarint(out, uint64(ty*tw+tx))
	lenAt := len(out)
	bw := bitWriter{out: append(out, 0)} // one length byte; most tiles need no more
	for _, blk := range [...]*[blockSize * blockSize]int32{yBlk, cbBlk, crBlk} {
		e.qz.codeBlock(&bw, blk)
		idct8(blk) // reconstruct, exactly as the decoder will
	}
	out = bw.flush()
	if size := len(out) - lenAt - 1; size < 0x80 {
		out[lenAt] = byte(size)
	} else {
		out = append(out, 0)
		copy(out[lenAt+2:], out[lenAt+1:])
		out[lenAt], out[lenAt+1] = byte(size)|0x80, byte(size>>7)
	}
	e.storeTile(e.prev, tx, ty, yBlk, cbBlk, crBlk)
	return out
}

// encodeBands decides and encodes tile rows [lo,hi), appending the
// entries of the tiles that ship to out in grid order, and returns how
// many shipped. The serial path is one call over the whole grid; the
// parallel path is one call per worker span. Each 8-row band's source is
// left in src once its tiles are decided; one comparison of the whole
// band stands in for the per-tile comparisons where that strip of the
// screen did not change at all.
func (e *Encoder) encodeBands(out []byte, frame []byte, key bool, lo, hi, tw int) ([]byte, uint32) {
	var yBlk, cbBlk, crBlk [blockSize * blockSize]int32
	var sent uint32
	for ty := lo; ty < hi; ty++ {
		band0, band1 := ty*blockSize*e.w*4, min((ty+1)*blockSize, e.h)*e.w*4
		band, srcBand := frame[band0:band1], e.src[band0:band1]
		bandSame := !key && bytes.Equal(band, srcBand)
		for tx := 0; tx < tw; tx++ {
			if e.tileShips(frame, key, bandSame, tx, ty, tw) {
				out = e.encodeTileInto(out, frame, tx, ty, tw, &yBlk, &cbBlk, &crBlk)
				sent++
			}
		}
		if !bandSame {
			copy(srcBand, band)
		}
	}
	return out, sent
}

// tileShips decides one tile and settles it. A keyframe ships every
// tile. A delta tile that is settled and whose source still equals src
// is skipped unseen; any other tile ships iff the scan against prev says
// so — either way prev will then be within threshold of this source or
// be its reconstruction.
func (e *Encoder) tileShips(frame []byte, key, bandSame bool, tx, ty, tw int) bool {
	t := ty*tw + tx
	settled := e.settled[t]
	e.settled[t] = true
	if key {
		return true
	}
	if settled && (bandSame || e.tileSame(frame, tx, ty)) {
		return false
	}
	return e.tileChanged(frame, tx, ty)
}

// encodeTilesParallel fans the tile grid out across the shared worker
// pool in spans of whole tile rows. Safety and determinism: a span
// renders, when render is set, and then reads its own pixel rows of
// frame, reads its own rows of prev and src, writes its own rows of prev
// (reconstruction) and src (memo), its own tiles' settled slots and the
// encSpan at its first row — all disjoint across spans. The span buffers
// are then joined in grid order, reproducing the serial packet byte for
// byte.
func (e *Encoder) encodeTilesParallel(out []byte, frame []byte, key bool, tw, th int, render func(y0, y1 int)) ([]byte, uint32) {
	if len(e.spans) < th {
		e.spans = make([]encSpan, th)
	}
	spans := e.spans
	parallel.Do(e.par, th, func(lo, hi int) {
		if render != nil {
			render(lo*blockSize, min(hi*blockSize, e.h))
		}
		s := &spans[lo]
		s.buf, s.sent = e.encodeBands(s.buf[:0], frame, key, lo, hi, tw)
		s.end = hi
	})
	var sent uint32
	for ty := 0; ty < th; ty = spans[ty].end {
		out = append(out, spans[ty].buf...)
		sent += spans[ty].sent
	}
	return out, sent
}

// tileRows returns the byte offset of the tile's first row in an RGBA
// buffer, the byte length of one tile row, and the tile's row count
// (edge tiles are clipped to the frame).
func (e *Encoder) tileRows(tx, ty int) (off, rowLen, rows int) {
	x0, y0 := tx*blockSize, ty*blockSize
	return (y0*e.w + x0) * 4, min(blockSize, e.w-x0) * 4, min(blockSize, e.h-y0)
}

// tileSame reports whether the frame tile is byte-equal to src's.
func (e *Encoder) tileSame(frame []byte, tx, ty int) bool {
	off, rowLen, rows := e.tileRows(tx, ty)
	for ; rows > 0; rows-- {
		if !bytes.Equal(frame[off:off+rowLen], e.src[off:off+rowLen]) {
			return false
		}
		off += e.w * 4
	}
	return true
}

// tileChanged compares the frame tile against the reconstruction: the
// sum of absolute differences over RGB exceeds DefaultDiffThreshold per
// sample. SAD only grows, so a changed tile leaves after the row that
// crosses the limit.
func (e *Encoder) tileChanged(frame []byte, tx, ty int) bool {
	off, rowLen, rows := e.tileRows(tx, ty)
	limit := DefaultDiffThreshold * 3 * (rowLen / 4) * rows
	sad := 0
	for ; rows > 0; rows-- {
		f, p := frame[off:off+rowLen], e.prev[off:off+rowLen]
		for i := 0; i+3 < len(f) && i+3 < len(p); i += 4 {
			sad += absDiff(f[i], p[i]) + absDiff(f[i+1], p[i+1]) + absDiff(f[i+2], p[i+2])
		}
		if sad > limit {
			return true
		}
		off += e.w * 4
	}
	return false
}

func absDiff(a, b byte) int {
	if a > b {
		return int(a - b)
	}
	return int(b - a)
}

// loadTile converts a tile to centred YCbCr blocks (edge tiles
// replicate the last row/column).
func (e *Encoder) loadTile(frame []byte, tx, ty int, yBlk, cbBlk, crBlk *[blockSize * blockSize]int32) {
	x0, y0 := tx*blockSize, ty*blockSize
	for dy := 0; dy < blockSize; dy++ {
		sy := y0 + dy
		if sy >= e.h {
			sy = e.h - 1
		}
		for dx := 0; dx < blockSize; dx++ {
			sx := x0 + dx
			if sx >= e.w {
				sx = e.w - 1
			}
			i := (sy*e.w + sx) * 4
			y, cb, cr := rgbToYCbCr(int(frame[i]), int(frame[i+1]), int(frame[i+2]))
			k := dy*blockSize + dx
			yBlk[k] = int32(y - 128)
			cbBlk[k] = int32(cb)
			crBlk[k] = int32(cr)
		}
	}
}

// codeBlock forward-transforms and quantizes blk and writes its
// coefficients to bw. blk is left holding the dequantized coefficients,
// one idct8 away from the samples a decoder will reconstruct.
func (z *quantizers) codeBlock(bw *bitWriter, blk *[blockSize * blockSize]int32) {
	fdct8(blk)
	var zz [blockSize * blockSize]int32
	bw.putBlock(&zz, z.quantize(blk, &zz))
}

// storeTile writes reconstructed YCbCr blocks back into an RGBA buffer.
func (e *Encoder) storeTile(dst []byte, tx, ty int, yBlk, cbBlk, crBlk *[blockSize * blockSize]int32) {
	storeTileInto(dst, e.w, e.h, tx, ty, yBlk, cbBlk, crBlk)
}

func storeTileInto(dst []byte, w, h, tx, ty int, yBlk, cbBlk, crBlk *[blockSize * blockSize]int32) {
	x0, y0 := tx*blockSize, ty*blockSize
	cols, rows := min(blockSize, w-x0), min(blockSize, h-y0) // edge tiles are clipped to the frame
	for dy := 0; dy < rows; dy++ {
		i := ((y0+dy)*w + x0) * 4
		row := dst[i : i+cols*4 : i+cols*4]
		k := dy * blockSize
		for dx := 0; dx < len(row); dx += 4 {
			y := int(yBlk[k]) + 128
			dr, dg, db := chromaToRGB(int(cbBlk[k]), int(crBlk[k]))
			k++
			row[dx], row[dx+1], row[dx+2], row[dx+3] = byte(clamp255(y+dr)), byte(clamp255(y+dg)), byte(clamp255(y+db)), 255
		}
	}
}

// Decoder reconstructs the frame stream from packets.
type Decoder struct {
	w, h    int
	quality int // effective quality, tracks packet headers
	dequant [blockSize * blockSize]int32
	frame   []byte
	started bool

	// par is the tile-parallel worker degree; <= 1 decodes the tiles on
	// the calling goroutine. See decodeTiles for the determinism argument.
	par     int
	entries []tileEntry // scratch: the packet's tile entries, reused
	winner  []int32     // scratch: tile index -> its last entry

	// Stats accumulate decoded volume.
	Stats DecoderStats
}

// tileEntry is one located tile entry: its grid index and where in the
// packet its payload lies.
type tileEntry struct {
	idx, off, size int
}

// DecoderStats counts decoder work. Tiles, Frames and BytesIn advance
// only for packets that decoded.
type DecoderStats struct {
	Frames  int
	Tiles   int
	BytesIn int64
	// QualityChanges counts header quality switches that forced a
	// dequantization-table rebuild.
	QualityChanges int
}

// NewDecoder returns a decoder matching NewEncoder(w, h, quality).
// Out-of-range qualities are clamped to [1,100]. The constructed
// quality only stands until the first packet: every packet carries the
// encoder's quality in the header and the decoder follows it.
func NewDecoder(w, h, quality int) *Decoder {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("turbo: decoder size %dx%d", w, h))
	}
	quality = clampQuality(quality)
	return &Decoder{
		w: w, h: h,
		quality: quality,
		dequant: buildQuantizers(quality).dequant,
		frame:   make([]byte, w*h*4),
	}
}

// SetParallelism sets the tile-parallel worker degree: n <= 0 means one
// worker per CPU, n == 1 the calling goroutine alone. Decode accepts the
// same packets, with the same error, and produces byte-identical frames
// at every degree.
func (d *Decoder) SetParallelism(n int) { d.par = parallel.Degree(n) }

// Quality reports the effective quality: the constructed value until a
// packet arrives, then whatever the latest packet header carried.
func (d *Decoder) Quality() int { return d.quality }

// Decode applies one packet and returns the current full frame. The
// returned slice aliases the decoder's internal buffer; callers that
// retain it across Decode calls must copy. Geometry or quality the
// decoder cannot honor is rejected with ErrBadPacket — it never decodes
// with mismatched tables. A packet can fail with some of its tiles
// already applied, leaving a frame no encoder produced, so any error
// puts the decoder back where it started: only a keyframe is accepted
// next.
func (d *Decoder) Decode(packet []byte) ([]byte, error) {
	tiles, err := d.decode(packet)
	if err != nil {
		d.started = false
		return nil, err
	}
	d.started = true
	d.Stats.Frames++
	d.Stats.Tiles += tiles
	d.Stats.BytesIn += int64(len(packet))
	return d.frame, nil
}

// decode parses the header, locates the tile entries, and applies them;
// it returns how many entries the packet carried.
func (d *Decoder) decode(packet []byte) (int, error) {
	if len(packet) < 1 {
		return 0, fmt.Errorf("%w: empty", ErrBadPacket)
	}
	kind := packet[0]
	if kind != packetKeyQ && kind != packetDeltaQ {
		return 0, fmt.Errorf("%w: kind %d", ErrBadPacket, kind)
	}
	p := packet[1:]
	w, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, fmt.Errorf("%w: width", ErrBadPacket)
	}
	p = p[n:]
	h, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, fmt.Errorf("%w: height", ErrBadPacket)
	}
	p = p[n:]
	if int64(w) != int64(d.w) || int64(h) != int64(d.h) {
		return 0, fmt.Errorf("%w: packet %dx%d, decoder %dx%d", ErrBadPacket, w, h, d.w, d.h)
	}
	if len(p) < 1 {
		return 0, fmt.Errorf("%w: quality", ErrBadPacket)
	}
	q := int(p[0])
	p = p[1:]
	if q < 1 || q > 100 {
		return 0, fmt.Errorf("%w: quality %d", ErrBadPacket, q)
	}
	if q != d.quality {
		d.quality = q
		d.dequant = buildQuantizers(q).dequant
		d.Stats.QualityChanges++
	}
	if kind == packetDeltaQ && !d.started {
		return 0, fmt.Errorf("%w: delta before keyframe", ErrBadPacket)
	}
	if len(p) < 4 {
		return 0, fmt.Errorf("%w: tile count", ErrBadPacket)
	}
	count := binary.LittleEndian.Uint32(p)
	p = p[4:]

	tw, th := tilesDim(d.w), tilesDim(d.h)
	maxTiles := tw * th
	if int64(count) > int64(maxTiles) {
		return 0, fmt.Errorf("%w: %d tiles, grid has %d", ErrBadPacket, count, maxTiles)
	}

	// Locate every entry by its length prefix: O(tiles), no coefficient
	// is looked at. A framing error is found here, before any pixel moves.
	entries := d.entries[:0]
	for t := uint32(0); t < count; t++ {
		idx, n := binary.Uvarint(p)
		// The index is range-checked in uint64 before any int cast: a
		// crafted 64-bit index must not wrap negative and slip past.
		if n <= 0 || idx >= uint64(maxTiles) {
			return 0, fmt.Errorf("%w: tile index", ErrBadPacket)
		}
		p = p[n:]
		if len(p) < 1 {
			return 0, fmt.Errorf("%w: tile length", ErrBadPacket)
		}
		size, n := int(p[0]), 1
		if size >= 0x80 {
			if len(p) < 2 || p[1] >= 0x80 {
				return 0, fmt.Errorf("%w: tile length", ErrBadPacket)
			}
			size, n = size&0x7f|int(p[1])<<7, 2
		}
		p = p[n:]
		if size > len(p) {
			return 0, fmt.Errorf("%w: tile length %d past packet end", ErrBadPacket, size)
		}
		entries = append(entries, tileEntry{idx: int(idx), off: len(packet) - len(p), size: size})
		p = p[size:]
	}
	d.entries = entries
	if len(p) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrBadPacket, len(p))
	}
	return len(entries), d.decodeTiles(packet, tw, maxTiles)
}

// decodeTiles parses and applies the located entries, fanned out across
// the worker pool when par > 1. Each entry's coefficients are parsed
// once, straight into the blocks the IDCT runs on. Tiles write disjoint
// frame regions, except that a (malformed but decodable) packet may list
// a tile twice: every entry is parsed and validated, but only the last
// one per tile index is stored, which is what applying them in entry
// order on one goroutine leaves behind. The error returned is that of
// the first bad entry in entry order, at every degree.
func (d *Decoder) decodeTiles(packet []byte, tw, maxTiles int) error {
	if len(d.winner) < maxTiles {
		d.winner = make([]int32, maxTiles)
	}
	for t, en := range d.entries {
		d.winner[en.idx] = int32(t)
	}
	n := len(d.entries)
	if d.par <= 1 || n <= 1 {
		_, err := d.decodeSpan(packet, tw, 0, n)
		return err
	}
	var (
		mu       sync.Mutex
		firstBad = n
		firstErr error
	)
	parallel.Do(d.par, n, func(lo, hi int) {
		if bad, err := d.decodeSpan(packet, tw, lo, hi); err != nil {
			mu.Lock()
			if bad < firstBad {
				firstBad, firstErr = bad, err
			}
			mu.Unlock()
		}
	})
	return firstErr
}

// decodeSpan applies entries [lo,hi) in order and stops at the first
// bad one, returning its position and error.
func (d *Decoder) decodeSpan(packet []byte, tw, lo, hi int) (int, error) {
	var yBlk, cbBlk, crBlk [blockSize * blockSize]int32
	for t := lo; t < hi; t++ {
		en := d.entries[t]
		if err := d.decodeTile(packet[en.off:], en.size, &yBlk, &cbBlk, &crBlk); err != nil {
			return t, err
		}
		if d.winner[en.idx] == int32(t) {
			storeTileInto(d.frame, d.w, d.h, en.idx%tw, en.idx/tw, &yBlk, &cbBlk, &crBlk)
		}
	}
	return hi, nil
}

// decodeTile parses one tile's bitstream — the first size bytes of rest,
// which runs on to the end of the packet so the reader can load eight
// bytes at a time — and inverse-transforms its three blocks. The stream
// must end inside its last byte, with zero padding.
func (d *Decoder) decodeTile(rest []byte, size int, yBlk, cbBlk, crBlk *[blockSize * blockSize]int32) error {
	r := bitReader{data: rest}
	for _, blk := range [...]*[blockSize * blockSize]int32{yBlk, cbBlk, crBlk} {
		if err := r.block(blk, &d.dequant); err != nil {
			return err
		}
		idct8(blk)
	}
	pad := size<<3 - r.used()
	switch {
	case pad < 0:
		return errTruncated
	case pad >= 8:
		return errUnread
	case rest[size-1]&(1<<uint(pad)-1) != 0:
		return errPadding
	}
	return nil
}

// PSNR computes peak signal-to-noise ratio between two same-length RGBA
// buffers, ignoring alpha. Identical inputs return +Inf.
func PSNR(a, b []byte) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var mse float64
	n := 0
	for i := 0; i+3 < len(a); i += 4 {
		for k := 0; k < 3; k++ {
			d := float64(a[i+k]) - float64(b[i+k])
			mse += d * d
			n++
		}
	}
	mse /= float64(n)
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}
