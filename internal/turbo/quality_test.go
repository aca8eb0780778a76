package turbo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestPacketHeaderCarriesQuality is the quality-handshake regression:
// before the header carried it, a decoder constructed at a different
// quality silently dequantized with the wrong table and emitted corrupt
// frames. Now the packet carries the encoder's quality and the decoder follows
// it, so a mismatched decoder reconstructs the exact same frame as a
// matched one.
func TestPacketHeaderCarriesQuality(t *testing.T) {
	const w, h = 48, 32
	f := testFrame(w, h, 6, 6)
	enc := NewEncoder(w, h, 90)
	pkt, err := enc.Encode(f, false)
	if err != nil {
		t.Fatal(err)
	}

	matched := NewDecoder(w, h, 90)
	want, err := matched.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	mismatched := NewDecoder(w, h, 30)
	got, err := mismatched.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("decoder constructed at the wrong quality diverged despite the header quality byte")
	}
	if q := mismatched.Quality(); q != 90 {
		t.Fatalf("decoder quality = %d after the packet, want 90", q)
	}
	if mismatched.Stats.QualityChanges != 1 || matched.Stats.QualityChanges != 0 {
		t.Fatalf("QualityChanges: mismatched %d (want 1), matched %d (want 0)",
			mismatched.Stats.QualityChanges, matched.Stats.QualityChanges)
	}
}

// TestDecodeRejectsBadQualityByte: quality the decoder cannot honor
// (outside [1,100]) is ErrBadPacket, not a garbage decode.
func TestDecodeRejectsBadQualityByte(t *testing.T) {
	const w, h = 16, 16
	enc := NewEncoder(w, h, 75)
	pkt, err := enc.Encode(testFrame(w, h, 0, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	p := pkt[1:]
	_, n1 := binary.Uvarint(p)
	_, n2 := binary.Uvarint(p[n1:])
	qAt := 1 + n1 + n2
	for _, bad := range []byte{0, 101, 255} {
		buf := append([]byte(nil), pkt...)
		buf[qAt] = bad
		dec := NewDecoder(w, h, 75)
		if _, err := dec.Decode(buf); !errors.Is(err, ErrBadPacket) {
			t.Fatalf("quality byte %d: err = %v, want ErrBadPacket", bad, err)
		}
	}
}

// TestQualityClampedAtConstruction: out-of-range qualities are clamped
// once, at the API boundary, and the stored effective value is what
// every later consumer (packet headers, comparisons) sees.
func TestQualityClampedAtConstruction(t *testing.T) {
	cases := []struct{ in, want int }{{0, 1}, {-5, 1}, {1000, 100}, {60, 60}}
	for _, c := range cases {
		if got := NewEncoder(8, 8, c.in).Quality(); got != c.want {
			t.Fatalf("NewEncoder quality %d -> %d, want %d", c.in, got, c.want)
		}
		if got := NewDecoder(8, 8, c.in).Quality(); got != c.want {
			t.Fatalf("NewDecoder quality %d -> %d, want %d", c.in, got, c.want)
		}
		if got := NewVideoEncoder(8, 8, c.in, 0).quality; got != c.want {
			t.Fatalf("NewVideoEncoder quality %d -> %d, want %d", c.in, got, c.want)
		}
	}
	// A clamped encoder behaves exactly like one built at the boundary.
	f := testFrame(16, 16, 2, 2)
	a, err := NewEncoder(16, 16, -5).Encode(f, false)
	if err != nil {
		t.Fatal(err)
	}
	a = append([]byte(nil), a...)
	b, err := NewEncoder(16, 16, 1).Encode(f, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("clamped quality -5 packet differs from quality 1")
	}
	// SetQuality clamps the same way.
	e := NewEncoder(8, 8, 50)
	e.SetQuality(1000)
	if e.Quality() != 100 {
		t.Fatalf("SetQuality(1000) -> %d", e.Quality())
	}
}

// TestSetQualityMidStream: a quality step between frames is carried in
// the next packet header, the decoder rebuilds its tables, and the
// closed loop holds exactly across the step.
func TestSetQualityMidStream(t *testing.T) {
	const w, h = 48, 48
	enc := NewEncoder(w, h, 80)
	dec := NewDecoder(w, h, 80)
	for i, q := range []int{0, 0, 35, 35, 90} {
		if q != 0 {
			enc.SetQuality(q)
		}
		pkt, err := enc.Encode(testFrame(w, h, i*6, 4), false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(pkt)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(enc.prev, got) {
			t.Fatalf("frame %d: encoder prev diverged from decoder output", i)
		}
	}
	if dec.Quality() != 90 {
		t.Fatalf("decoder quality = %d, want 90", dec.Quality())
	}
	if dec.Stats.QualityChanges != 2 {
		t.Fatalf("QualityChanges = %d, want 2", dec.Stats.QualityChanges)
	}
}

// hostileHeader builds a valid keyframe header for a w×h decoder with the
// given tile count.
func hostileHeader(w, h int, count uint32) []byte {
	pkt := []byte{packetKeyQ}
	pkt = binary.AppendUvarint(pkt, uint64(w))
	pkt = binary.AppendUvarint(pkt, uint64(h))
	pkt = append(pkt, DefaultQuality)
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], count)
	return append(pkt, c[:]...)
}

// TestDecodeRejectsHugeTileIndex: a 64-bit tile index that would wrap
// negative when cast to int must be rejected before it computes a
// pixel offset (pre-fix this panicked with an out-of-range write).
func TestDecodeRejectsHugeTileIndex(t *testing.T) {
	const w, h = 32, 32
	// count=2 so par>1 decoders take the parallel scan path (count=1
	// falls back to serial); the scan rejects on the first entry.
	pkt := hostileHeader(w, h, 2)
	pkt = binary.AppendUvarint(pkt, 1<<63) // wraps to negative int
	pkt = append(pkt, 0)                   // empty Y block would follow
	for _, par := range []int{1, 4} {
		dec := NewDecoder(w, h, DefaultQuality)
		dec.SetParallelism(par)
		if _, err := dec.Decode(pkt); !errors.Is(err, ErrBadPacket) {
			t.Fatalf("par=%d: huge tile index err = %v, want ErrBadPacket", par, err)
		}
	}
}

// TestDecodeRejectsHugeZeroRun: a zero run reaching past the block must
// be rejected before it indexes the zigzag table — both a run the gamma
// code can carry but no block can hold, and one that merely overshoots
// the block's own count.
func TestDecodeRejectsHugeZeroRun(t *testing.T) {
	const w, h = 16, 8
	for name, run := range map[string]uint64{"2^20": 1 << 20, "past count": 40} {
		pkt := hostileHeader(w, h, 2) // two entries, so par > 1 fans out
		pkt = appendTile(pkt, 0,
			bitField{40, countBits}, gamma(run+1), gamma(5), bitField{0, 1},
			bitField{0, countBits}, bitField{0, countBits})
		pkt = appendTile(pkt, 1, bitField{0, countBits}, bitField{0, countBits}, bitField{0, countBits})
		for _, par := range []int{1, 4} {
			dec := NewDecoder(w, h, DefaultQuality)
			dec.SetParallelism(par)
			if _, err := dec.Decode(pkt); !errors.Is(err, ErrBadPacket) {
				t.Fatalf("run %s par=%d: huge run err = %v, want ErrBadPacket", name, par, err)
			}
		}
	}
}

// TestDecodeClampsHostileCoefficients: absurd coefficient magnitudes
// decode without error (they are clamped, keeping IDCT arithmetic in
// range) and must not corrupt decoder state for subsequent packets.
func TestDecodeClampsHostileCoefficients(t *testing.T) {
	const w, h = 8, 8
	pkt := hostileHeader(w, h, 1)
	var fields []bitField
	for b := 0; b < 3; b++ {
		// One coefficient, the widest level the reader parses: far
		// beyond maxCoeff.
		fields = append(fields, bitField{1, countBits}, gamma(1), gamma(1<<(maxGammaZeros+1)-1), bitField{uint64(b & 1), 1})
	}
	pkt = appendTile(pkt, 0, fields...)
	dec := NewDecoder(w, h, DefaultQuality)
	if _, err := dec.Decode(pkt); err != nil {
		t.Fatalf("clamped hostile coefficients should decode: %v", err)
	}
	// A normal packet still decodes cleanly afterwards.
	enc := NewEncoder(w, h, DefaultQuality)
	good, err := enc.Encode(testFrame(w, h, 1, 1), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(good); err != nil {
		t.Fatalf("decode after hostile packet: %v", err)
	}
}

// TestEncodeZeroAllocSteadyState is the pooling acceptance gate: after
// warmup, the serial encode path performs zero heap allocations per
// frame — the packet buffer, tile scratch, and stats are all reused.
func TestEncodeZeroAllocSteadyState(t *testing.T) {
	const w, h = 320, 240
	frames := benchFrames(w, h)
	enc := NewEncoder(w, h, DefaultQuality)
	for i := 0; i < 4; i++ {
		if _, err := enc.Encode(frames[i%2], false); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	var encErr error
	allocs := testing.AllocsPerRun(50, func() {
		i++
		if _, err := enc.Encode(frames[i%2], false); err != nil {
			encErr = err
		}
	})
	if encErr != nil {
		t.Fatal(encErr)
	}
	if allocs != 0 {
		t.Fatalf("steady-state Encode allocates %.1f times per frame, want 0", allocs)
	}
}
