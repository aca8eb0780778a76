package turbo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"github.com/gbooster/gbooster/internal/sim"
)

// appendCoeffs and decodeBlock are the varint-pair coefficient coder the
// bit coder replaced (packet kinds 3/4), moved here verbatim as the
// reference the new writer and reader are checked against.

// appendCoeffs encodes zig-zag-ordered quantized coefficients as
// (zeroRun uvarint, value varint) pairs after a coefficient-count
// prefix; last is the index of the final nonzero coefficient (-1 for an
// all-zero block).
func appendCoeffs(out []byte, zz *[blockSize * blockSize]int32, last int) []byte {
	out = binary.AppendUvarint(out, uint64(last+1))
	run := 0
	for i := 0; i <= last; i++ {
		v := zz[i]
		if v == 0 {
			run++
			continue
		}
		out = binary.AppendUvarint(out, uint64(run))
		out = binary.AppendVarint(out, int64(v))
		run = 0
	}
	return out
}

// decodeBlock parses one entropy-coded block and inverse-transforms it
// into blk. A nil blk runs in scan-only mode: full parse and validation
// with the transform skipped — the parallel path uses it so structural
// errors surface exactly as the serial path reports them.
func (d *Decoder) decodeBlock(p []byte, blk *[blockSize * blockSize]int32) ([]byte, error) {
	total, n := binary.Uvarint(p)
	if n <= 0 || total > blockSize*blockSize {
		return nil, fmt.Errorf("%w: coeff count", ErrBadPacket)
	}
	p = p[n:]
	if blk != nil {
		*blk = [blockSize * blockSize]int32{}
	}
	for i := uint64(0); i < total; {
		run, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, fmt.Errorf("%w: zero run", ErrBadPacket)
		}
		p = p[n:]
		// Validated in uint64 before advancing: a crafted 64-bit run
		// must not wrap the position negative and index out of bounds.
		if run >= total-i {
			return nil, fmt.Errorf("%w: run past block", ErrBadPacket)
		}
		i += run
		v, n := binary.Varint(p)
		if n <= 0 {
			return nil, fmt.Errorf("%w: coeff value", ErrBadPacket)
		}
		p = p[n:]
		if blk != nil {
			// Bound hostile coefficients so the IDCT arithmetic stays in
			// range; honest encoders never exceed this (see maxCoeff).
			if v > maxCoeff {
				v = maxCoeff
			} else if v < -maxCoeff {
				v = -maxCoeff
			}
			pos := _zigzag[i]
			blk[pos] = int32(v) * d.dequant[pos]
		}
		i++
	}
	if blk == nil {
		return p, nil
	}
	idct8(blk)
	return p, nil
}

// bitField is one hand-placed field of a test bitstream.
type bitField struct {
	v     uint64
	width uint
}

// gamma is the Elias-gamma code of n as a field.
func gamma(n uint64) bitField { return bitField{n, uint(2*bits.Len64(n) - 1)} }

// tileBits packs fields MSB first and zero-pads to a byte.
func tileBits(fields ...bitField) []byte {
	var bw bitWriter
	for _, f := range fields {
		if f.width > 32 {
			bw.put(f.v>>32, f.width-32)
			f = bitField{f.v & (1<<32 - 1), 32}
		}
		bw.put(f.v, f.width)
	}
	return bw.flush()
}

// appendTile appends a tile entry — index, one-byte length, payload —
// whose bitstream is exactly fields.
func appendTile(pkt []byte, idx uint64, fields ...bitField) []byte {
	payload := tileBits(fields...)
	if len(payload) >= 0x80 {
		panic("appendTile: payload needs a two-byte length")
	}
	pkt = binary.AppendUvarint(pkt, idx)
	pkt = append(pkt, byte(len(payload)))
	return append(pkt, payload...)
}

// lastNonzero is the index of the final nonzero coefficient, -1 if none.
func lastNonzero(zz *[blockSize * blockSize]int32) int {
	last := -1
	for i, v := range zz {
		if v != 0 {
			last = i
		}
	}
	return last
}

// TestBitCoderMatchesReference: for random and extreme blocks, what the
// new reader parses from the new writer's bits is what the varint-pair
// reference round-trips — the same dequantised coefficients, hence the
// same samples out of the IDCT.
func TestBitCoderMatchesReference(t *testing.T) {
	var blocks [][blockSize * blockSize]int32
	add := func(fill func(zz *[blockSize * blockSize]int32)) {
		var zz [blockSize * blockSize]int32
		fill(&zz)
		blocks = append(blocks, zz)
	}
	add(func(zz *[blockSize * blockSize]int32) {})                        // empty
	add(func(zz *[blockSize * blockSize]int32) { zz[0] = -37 })           // DC only
	add(func(zz *[blockSize * blockSize]int32) { zz[63] = 1 })            // last = 63, run 63
	add(func(zz *[blockSize * blockSize]int32) { zz[0], zz[63] = 5, -1 }) // run 62
	for _, level := range []int32{1, -1, 31, -32, 2047, -2047, 2048, -2048, 40000, -40000} {
		add(func(zz *[blockSize * blockSize]int32) { zz[0], zz[7], zz[40] = level, -level, level })
		add(func(zz *[blockSize * blockSize]int32) { // all 64 nonzero
			for i := range zz {
				zz[i] = level
			}
		})
	}
	rng := sim.NewRNG(16)
	for n := 0; n < 2000; n++ {
		density, spread := 1+rng.Intn(64), 1<<rng.Intn(13)
		add(func(zz *[blockSize * blockSize]int32) {
			for k := 0; k < density; k++ {
				zz[rng.Intn(64)] = int32(rng.Intn(2*spread+1) - spread)
			}
		})
	}

	for _, q := range []int{DefaultQuality, 100} {
		dec := NewDecoder(8, 8, q)
		for n, zz := range blocks {
			last := lastNonzero(&zz)
			refBytes := appendCoeffs(nil, &zz, last)
			var want [blockSize * blockSize]int32
			if rest, err := dec.decodeBlock(refBytes, &want); err != nil || len(rest) != 0 {
				t.Fatalf("block %d: reference round trip: %v, %d bytes left", n, err, len(rest))
			}

			var bw bitWriter
			bw.putBlock(&zz, last)
			stream := bw.flush()
			r := bitReader{data: stream}
			var got [blockSize * blockSize]int32
			if err := r.block(&got, &dec.dequant); err != nil {
				t.Fatalf("block %d: %v", n, err)
			}
			if pad := len(stream)*8 - r.used(); pad < 0 || pad >= 8 {
				t.Fatalf("block %d: reader used %d of %d bits", n, r.used(), len(stream)*8)
			}
			for i, v := range zz {
				pos := _zigzag[i]
				level := min(max(v, -maxCoeff), maxCoeff)
				if got[pos] != level*dec.dequant[pos] {
					t.Fatalf("block %d q %d: coefficient %d parsed as %d, want %d x %d", n, q, i, got[pos], level, dec.dequant[pos])
				}
			}
			idct8(&got)
			if got != want {
				t.Fatalf("block %d q %d: samples differ from the reference decode", n, q)
			}
		}
	}
}

// TestWorstCaseTileFitsLengthPrefix: the largest tile the encoder can
// emit — three blocks, every coefficient at the extreme level the
// quantiser reaches — fits the two-byte length prefix with room to spare.
func TestWorstCaseTileFitsLengthPrefix(t *testing.T) {
	const maxTileBytes = 1<<14 - 1 // what two 7-bit length bytes can announce
	var zz [blockSize * blockSize]int32
	for i := range zz {
		zz[i] = 2048 * int32(1-2*(i&1))
	}
	var bw bitWriter
	for b := 0; b < 3; b++ {
		bw.putBlock(&zz, 63)
	}
	size := len(bw.flush())
	if want := (3*(countBits+64*(1+23+1)) + 7) / 8; size != want {
		t.Fatalf("worst-case tile is %d bytes, want %d", size, want)
	}
	if size > maxTileBytes {
		t.Fatalf("worst-case tile %d bytes exceeds the length prefix's %d", size, maxTileBytes)
	}

	// The encoder really does stay under it, and the two-byte length
	// round-trips: the noisiest frame at the finest quantiser.
	const w, h = 64, 64
	frame := randomFrame(sim.NewRNG(5), w, h, nil)
	for i := 3; i < len(frame); i += 4 {
		frame[i] = 255
	}
	enc, dec := NewEncoder(w, h, 100), NewDecoder(w, h, 100)
	pkt, err := enc.Encode(frame, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) < 64*0x80 {
		t.Fatalf("noise keyframe is %d bytes: tiles too small to need a two-byte length", len(pkt))
	}
	got, err := dec.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, enc.prev) {
		t.Fatal("decoder frame != encoder reconstruction")
	}
}

// TestPairTableAgreesWithGammaPath: every slot of the one-peek table
// holds exactly what the LeadingZeros path parses from the same bits.
func TestPairTableAgreesWithGammaPath(t *testing.T) {
	hits := 0
	for idx, e := range _pairs {
		r := bitReader{acc: uint64(idx) << (64 - pairBits), n: 64}
		run, ok1 := r.gamma()
		mag, ok2 := r.gamma()
		neg := r.acc>>63 != 0
		r.skip(1)
		width := 64 - r.n
		fits := ok1 && ok2 && width <= pairBits
		if !fits {
			if e.width != 0 {
				t.Fatalf("slot %012b: table has a %d-bit pair, gamma path needs more than %d bits", idx, e.width, pairBits)
			}
			continue
		}
		hits++
		level := int(mag)
		if neg {
			level = -level
		}
		if int(e.width) != width || int(e.run) != int(run)-1 || int(e.level) != level {
			t.Fatalf("slot %012b: table (run %d, level %d, %d bits), gamma path (run %d, level %d, %d bits)",
				idx, e.run, e.level, e.width, run-1, level, width)
		}
	}
	if hits < 1<<(pairBits-1) {
		t.Fatalf("only %d of %d slots resolve in one peek", hits, 1<<pairBits)
	}
}

// emptyBlock is a block with no coefficients: a zero count.
var emptyBlock = bitField{0, countBits}

// emptyTile appends a well-formed entry of three empty blocks.
func emptyTile(pkt []byte, idx uint64) []byte {
	return appendTile(pkt, idx, emptyBlock, emptyBlock, emptyBlock)
}

// malformedPackets is one packet per way a w×h keyframe can be wrong
// below the header: framing and bitstream. Each is a mutation of two
// well-formed empty tiles, so par > 1 decoders fan out. They are what
// TestDecodeRejectsMalformedPackets asserts on and what FuzzDecode starts
// from.
func malformedPackets(w, h int) map[string][]byte {
	header := func() []byte { return hostileHeader(w, h, 2) }
	tile0 := func(payload ...byte) []byte { // tile 0 with a raw payload, then a good tile 1
		pkt := binary.AppendUvarint(header(), 0)
		return emptyTile(append(append(pkt, byte(len(payload))), payload...), 1)
	}
	cases := map[string][]byte{
		"tile index past the grid": emptyTile(emptyTile(header(), 0), uint64(tilesDim(w)*tilesDim(h))),
		"tile index wraps int":     emptyTile(emptyTile(header(), 0), 1<<63),
		"truncated tile index":     append(emptyTile(header(), 0), 0xFF, 0xFF),
		"truncated tile length":    append(binary.AppendUvarint(emptyTile(header(), 0), 1), 0x83),
		"three-byte tile length":   append(binary.AppendUvarint(emptyTile(header(), 0), 1), 0x83, 0x80, 0, 0, 0, 0),
		"tile length past packet":  append(binary.AppendUvarint(emptyTile(header(), 0), 1), 9, 0, 0, 0),
		"whole unread byte":        tile0(0, 0, 0, 0), // 21 bits of blocks in 4 bytes
		"nonzero padding":          tile0(0, 0, 1),
		"trailing bytes":           append(emptyTile(emptyTile(header(), 0), 1), 0),
		// Count 1, then the zero prefix of a gamma code, as the last tile.
		"truncated mid-gamma": append(binary.AppendUvarint(emptyTile(header(), 0), 1), 1, 0b0000001_0),
		"gamma with 24 leading zeros": emptyTile(appendTile(header(), 0,
			bitField{1, countBits}, gamma(1), bitField{0, 24}, bitField{1<<25 - 1, 25}, bitField{0, 1}, emptyBlock, emptyBlock), 1),
		"count 65": emptyTile(appendTile(header(), 0, bitField{65, countBits}, emptyBlock, emptyBlock), 1),
		"run past the count": emptyTile(appendTile(header(), 0,
			bitField{10, countBits}, gamma(11), gamma(3), bitField{1, 1}, emptyBlock, emptyBlock), 1),
		"run no block can hold": emptyTile(appendTile(header(), 0,
			bitField{64, countBits}, gamma(1<<20), gamma(5), bitField{0, 1}, emptyBlock, emptyBlock), 1),
	}
	for kind := byte(0); kind <= 4; kind++ { // 1-4 are the retired versions
		pkt := emptyTile(emptyTile(header(), 0), 1)
		pkt[0] = kind
		cases[fmt.Sprintf("kind %d", kind)] = pkt
	}
	return cases
}

// TestDecodeRejectsMalformedPackets: each way a packet can be wrong is
// ErrBadPacket at every degree — before a hostile index or run computes
// an offset — never a panic or a guess.
func TestDecodeRejectsMalformedPackets(t *testing.T) {
	const w, h = 16, 8
	for name, pkt := range malformedPackets(w, h) {
		for _, par := range []int{1, 4} {
			dec := NewDecoder(w, h, DefaultQuality)
			dec.SetParallelism(par)
			if _, err := dec.Decode(pkt); !errors.Is(err, ErrBadPacket) {
				t.Errorf("%s par=%d: err = %v, want ErrBadPacket", name, par, err)
			}
		}
	}
	// The well-formed packet the cases are mutations of does decode.
	if _, err := NewDecoder(w, h, DefaultQuality).Decode(emptyTile(emptyTile(hostileHeader(w, h, 2), 0), 1)); err != nil {
		t.Fatalf("well-formed hand-built packet: %v", err)
	}
}

// TestFailedDecodeNeedsKeyframe: a packet that fails — here midway
// through its tiles, after some were applied — must not be built upon.
// The decoder refuses deltas until a keyframe, and is then
// indistinguishable from a decoder that never saw the corrupt packet.
func TestFailedDecodeNeedsKeyframe(t *testing.T) {
	const w, h = 64, 48
	var pkts [][]byte
	enc := NewEncoder(w, h, DefaultQuality)
	for i := 0; i < 5; i++ {
		pkt, err := enc.Encode(testFrame(w, h, 4+9*i, 4+5*i), i == 3)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, append([]byte(nil), pkt...))
	}
	// pkts: key, delta, delta (to be corrupted), forced key, delta. The
	// framing of packet 2 stays intact and only the end of its last tile's
	// bitstream breaks, so every tile before it is applied first.
	corrupt := append([]byte(nil), pkts[2]...)
	corrupt[len(corrupt)-1] = 0xFF
	corrupt[len(corrupt)-2] = 0xFF

	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			clean := NewDecoder(w, h, DefaultQuality)
			clean.SetParallelism(par)
			dec := NewDecoder(w, h, DefaultQuality)
			dec.SetParallelism(par)
			for i := 0; i < 2; i++ {
				if _, err := dec.Decode(pkts[i]); err != nil {
					t.Fatal(err)
				}
			}
			before := dec.Stats
			if _, err := dec.Decode(corrupt); !errors.Is(err, ErrBadPacket) {
				t.Fatalf("corrupt delta: err = %v, want ErrBadPacket", err)
			}
			if dec.Stats != before {
				t.Fatalf("failed decode moved stats: %+v -> %+v", before, dec.Stats)
			}
			if _, err := dec.Decode(pkts[2]); !errors.Is(err, ErrBadPacket) {
				t.Fatalf("valid delta after a failed decode: err = %v, want ErrBadPacket (delta before keyframe)", err)
			}
			// The clean decoder sees packets 0, 1, 3, 4; a keyframe carries
			// every tile, so from packet 3 on the two must agree exactly.
			for _, i := range []int{0, 1} {
				if _, err := clean.Decode(pkts[i]); err != nil {
					t.Fatal(err)
				}
			}
			for _, i := range []int{3, 4} {
				want, err := clean.Decode(pkts[i])
				if err != nil {
					t.Fatal(err)
				}
				got, err := dec.Decode(pkts[i])
				if err != nil {
					t.Fatalf("packet %d after resync: %v", i, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("packet %d: frame differs from a decoder that never saw the corrupt packet", i)
				}
			}
			if dec.Stats != clean.Stats {
				t.Fatalf("stats: %+v, clean decoder %+v", dec.Stats, clean.Stats)
			}
		})
	}
}
