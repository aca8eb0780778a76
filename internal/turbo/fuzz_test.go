package turbo

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/gbooster/gbooster/internal/sim"
)

// FuzzDecode drives the decoder with arbitrary packets at serial and
// parallel degrees. The seed corpus holds valid key and delta packets at
// two qualities, so the fuzz explores mutations of real structure; one
// packet for each hostile shape the parser must refuse (malformedPackets:
// int-wrapping tile indices, truncated uvarints, tile lengths that
// overrun the packet or leave bytes unread, a stream cut mid-gamma, a
// gamma code with 24 leading zeros, count 65, runs past the block,
// nonzero padding, the retired kinds 1-4); a decodable duplicate tile
// entry; and a bad quality byte.
func FuzzDecode(f *testing.F) {
	const w, h = 32, 32
	for _, q := range []int{60, 25} {
		enc := NewEncoder(w, h, q)
		for _, ox := range []int{5, 9} {
			pkt, err := enc.Encode(testFrame(w, h, ox, 5), false)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(append([]byte(nil), pkt...))
		}
	}
	for _, pkt := range malformedPackets(w, h) {
		f.Add(pkt)
	}
	f.Add(emptyTile(emptyTile(hostileHeader(w, h, 2), 0), 0)) // last entry must win
	badQuality := hostileHeader(w, h, 0)
	badQuality[3] = 0
	f.Add(badQuality)
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(w, h, 60)
		dec.started = true // deltas reach the tile parser too
		frame, err := dec.Decode(data)
		if err == nil && len(frame) != w*h*4 {
			t.Fatalf("accepted packet returned %d-byte frame", len(frame))
		}
		if (err == nil) != dec.started {
			t.Fatalf("err=%v leaves started=%v", err, dec.started)
		}
		// The parallel path must agree with serial on accept/reject, on
		// the error, and on the decoded pixels.
		par := NewDecoder(w, h, 60)
		par.started = true
		par.SetParallelism(4)
		pframe, perr := par.Decode(data)
		if (err == nil) != (perr == nil) || (err != nil && err.Error() != perr.Error()) {
			t.Fatalf("serial err=%v, parallel err=%v", err, perr)
		}
		if err == nil && !bytes.Equal(frame, pframe) {
			t.Fatal("parallel decode diverged from serial on fuzz input")
		}
	})
}

func TestDecodeNeverPanicsOnArbitraryBytes(t *testing.T) {
	check := func(data []byte) bool {
		dec := NewDecoder(32, 32, 60)
		_, _ = dec.Decode(data)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeNeverPanicsOnCorruptedPackets(t *testing.T) {
	rng := sim.NewRNG(17)
	enc := NewEncoder(32, 32, 60)
	f := testFrame(32, 32, 5, 5)
	pkt, err := enc.Encode(f, false)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3000; trial++ {
		buf := append([]byte(nil), pkt...)
		for flips := 0; flips < 1+rng.Intn(5); flips++ {
			buf[rng.Intn(len(buf))] ^= byte(1 << rng.Intn(8))
		}
		dec := NewDecoder(32, 32, 60)
		_, _ = dec.Decode(buf)
	}
}

func TestDecodeNeverPanicsOnTruncations(t *testing.T) {
	enc := NewEncoder(24, 24, 60)
	f := testFrame(24, 24, 3, 3)
	pkt, err := enc.Encode(f, false)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(pkt); cut++ {
		dec := NewDecoder(24, 24, 60)
		_, _ = dec.Decode(pkt[:cut])
	}
}
