package turbo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/gbooster/gbooster/internal/sim"
)

// uniqueDegrees dedupes a degree list (NumCPU may collide with the
// fixed entries).
func uniqueDegrees(ds []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, d := range ds {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// parDegrees are the worker degrees the determinism contract is tested
// at: the serial reference, the smallest parallel case, a deliberately
// odd degree, and the full machine.
func parDegrees() []int {
	return uniqueDegrees([]int{1, 2, 3, runtime.NumCPU()})
}

// benchDegrees are the worker degrees the benchmark suite sweeps; a
// speedup compares a series' par=1 ns/op against the rest.
func benchDegrees() []int {
	return uniqueDegrees([]int{1, 2, 4, runtime.NumCPU()})
}

// randomFrame fills a w×h RGBA buffer from rng, optionally perturbing
// only a sub-rectangle of base (to exercise the delta path's
// changed-tile selection).
func randomFrame(rng *sim.RNG, w, h int, base []byte) []byte {
	f := make([]byte, w*h*4)
	if base != nil {
		copy(f, base)
		x0, y0 := rng.Intn(w), rng.Intn(h)
		bw, bh := 1+rng.Intn(w-x0), 1+rng.Intn(h-y0)
		for y := y0; y < y0+bh; y++ {
			for x := x0; x < x0+bw; x++ {
				i := (y*w + x) * 4
				f[i], f[i+1], f[i+2], f[i+3] = byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), 255
			}
		}
		return f
	}
	for i := range f {
		f[i] = byte(rng.Intn(256))
	}
	return f
}

// TestParallelEncodeByteIdentical is the tentpole determinism property:
// across random frame sequences (keyframes, full-motion deltas, partial
// deltas, static repeats) every parallel degree must produce exactly
// the serial encoder's packets, reconstruction state, and stats.
func TestParallelEncodeByteIdentical(t *testing.T) {
	sizes := [][2]int{{64, 48}, {30, 22}, {8, 8}, {129, 65}}
	for _, sz := range sizes {
		w, h := sz[0], sz[1]
		for _, par := range parDegrees() {
			t.Run(fmt.Sprintf("%dx%d/par=%d", w, h, par), func(t *testing.T) {
				rng := sim.NewRNG(uint64(w*h + par))
				ref := NewEncoder(w, h, DefaultQuality)
				enc := NewEncoder(w, h, DefaultQuality)
				enc.SetParallelism(par)
				var frame []byte
				for i := 0; i < 8; i++ {
					switch i % 4 {
					case 0:
						frame = randomFrame(rng, w, h, nil)
					case 1, 2:
						frame = randomFrame(rng, w, h, frame)
					case 3:
						// Static repeat: zero-tile delta.
					}
					forceKey := i == 5
					want, err := ref.Encode(frame, forceKey)
					if err != nil {
						t.Fatal(err)
					}
					got, err := enc.Encode(frame, forceKey)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want, got) {
						t.Fatalf("frame %d: parallel packet (%dB) != serial packet (%dB)", i, len(got), len(want))
					}
					if !bytes.Equal(ref.prev, enc.prev) {
						t.Fatalf("frame %d: reconstruction state diverged", i)
					}
				}
				if ref.Stats != enc.Stats {
					t.Fatalf("stats diverged: serial %+v parallel %+v", ref.Stats, enc.Stats)
				}
			})
		}
	}
}

// TestEncodeWithRendersEachRowOnce: an encoder handed a render hook
// instead of a finished frame renders every pixel row exactly once,
// before it reads the row, and produces the packets, reconstruction and
// stats Encode produces from the finished frames, at every degree.
func TestEncodeWithRendersEachRowOnce(t *testing.T) {
	for _, sz := range [][2]int{{64, 48}, {30, 22}, {8, 8}, {129, 65}} {
		w, h := sz[0], sz[1]
		for _, par := range parDegrees() {
			t.Run(fmt.Sprintf("%dx%d/par=%d", w, h, par), func(t *testing.T) {
				rng := sim.NewRNG(uint64(w*h + par))
				ref := NewEncoder(w, h, DefaultQuality)
				enc := NewEncoder(w, h, DefaultQuality)
				enc.SetParallelism(par)
				canvas := make([]byte, w*h*4)
				var frame []byte
				for i := 0; i < 8; i++ {
					switch i % 4 {
					case 0:
						frame = randomFrame(rng, w, h, nil)
					case 1, 2:
						frame = randomFrame(rng, w, h, frame)
					}
					// The canvas holds garbage until a row is rendered,
					// so a row read before its render shows in the packet.
					for j := range canvas {
						canvas[j] = byte(rng.Intn(256))
					}
					renders := make([]atomic.Int32, h)
					render := func(y0, y1 int) {
						copy(canvas[y0*w*4:y1*w*4], frame[y0*w*4:y1*w*4])
						for y := y0; y < y1; y++ {
							renders[y].Add(1)
						}
					}
					forceKey := i == 5
					want, err := ref.Encode(frame, forceKey)
					if err != nil {
						t.Fatal(err)
					}
					got, err := enc.EncodeWith(canvas, forceKey, render)
					if err != nil {
						t.Fatal(err)
					}
					for y := range renders {
						if n := renders[y].Load(); n != 1 {
							t.Fatalf("frame %d: row %d rendered %d times", i, y, n)
						}
					}
					if !bytes.Equal(want, got) {
						t.Fatalf("frame %d: packet (%dB) != Encode's of the finished frame (%dB)", i, len(got), len(want))
					}
					if !bytes.Equal(ref.prev, enc.prev) || !bytes.Equal(ref.src, enc.src) {
						t.Fatalf("frame %d: reconstruction or memo state diverged", i)
					}
				}
				if ref.Stats != enc.Stats {
					t.Fatalf("stats diverged: Encode %+v, EncodeWith %+v", ref.Stats, enc.Stats)
				}
			})
		}
	}
}

// TestParallelDecodeByteIdentical: decoding the same packet stream at
// every degree must yield the serial decoder's frames and stats.
func TestParallelDecodeByteIdentical(t *testing.T) {
	sizes := [][2]int{{64, 48}, {30, 22}, {129, 65}}
	for _, sz := range sizes {
		w, h := sz[0], sz[1]
		rng := sim.NewRNG(uint64(w) * 31)
		enc := NewEncoder(w, h, DefaultQuality)
		var packets [][]byte
		var frame []byte
		for i := 0; i < 6; i++ {
			if i%3 == 0 {
				frame = randomFrame(rng, w, h, nil)
			} else {
				frame = randomFrame(rng, w, h, frame)
			}
			pkt, err := enc.Encode(frame, false)
			if err != nil {
				t.Fatal(err)
			}
			// Encode's return aliases the encoder's reused buffer; copy
			// to retain across calls.
			packets = append(packets, append([]byte(nil), pkt...))
		}
		ref := NewDecoder(w, h, DefaultQuality)
		var want [][]byte
		for _, pkt := range packets {
			f, err := ref.Decode(pkt)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, append([]byte(nil), f...))
		}
		for _, par := range parDegrees() {
			t.Run(fmt.Sprintf("%dx%d/par=%d", w, h, par), func(t *testing.T) {
				dec := NewDecoder(w, h, DefaultQuality)
				dec.SetParallelism(par)
				for i, pkt := range packets {
					got, err := dec.Decode(pkt)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want[i], got) {
						t.Fatalf("frame %d: parallel decode diverged from serial", i)
					}
				}
				if ref.Stats != dec.Stats {
					t.Fatalf("stats diverged: serial %+v parallel %+v", ref.Stats, dec.Stats)
				}
			})
		}
	}
}

// TestParallelDecodeDuplicateTileLastWins: a packet listing the same
// tile twice decodes with the last entry winning, at every degree —
// matching the serial path's overwrite order.
func TestParallelDecodeDuplicateTileLastWins(t *testing.T) {
	const w, h = 16, 8 // 2x1 tile grid, so count=2 stays within bounds
	// entry cuts tile 0's entry out of a real keyframe: index byte, length
	// byte, payload.
	entry := func(shade byte) []byte {
		f := make([]byte, w*h*4)
		for i := 0; i < len(f); i += 4 {
			f[i], f[i+1], f[i+2], f[i+3] = shade, shade, shade, 255
		}
		pkt, err := NewEncoder(w, h, DefaultQuality).Encode(f, false)
		if err != nil {
			t.Fatal(err)
		}
		header := 1 + 1 + 1 + 1 + 4 // kind, w uvarint, h uvarint, quality, count
		if pkt[header] != 0 || pkt[header+1] >= 0x80 {
			t.Fatalf("entry starts % x, want tile 0 with a one-byte length", pkt[header:header+2])
		}
		return pkt[header : header+2+int(pkt[header+1])]
	}
	a, b := entry(40), entry(200)
	pkt := []byte{packetKeyQ}
	pkt = binary.AppendUvarint(pkt, w)
	pkt = binary.AppendUvarint(pkt, h)
	pkt = append(pkt, DefaultQuality)
	pkt = append(pkt, 2, 0, 0, 0) // two entries, both for tile 0
	pkt = append(pkt, a...)
	pkt = append(pkt, b...)

	ref := NewDecoder(w, h, DefaultQuality)
	want, err := ref.Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if want[0] < 150 {
		t.Fatalf("serial decode kept the first duplicate (pixel %d)", want[0])
	}
	for _, par := range parDegrees()[1:] {
		dec := NewDecoder(w, h, DefaultQuality)
		dec.SetParallelism(par)
		got, err := dec.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("par=%d: duplicate-tile decode diverged from serial", par)
		}
	}
}

// TestParallelDecodeRejectsMalformedLikeSerial: corrupted and truncated
// packets must error at every degree whenever the serial path errors
// (the parallel scan mirrors its validation).
func TestParallelDecodeRejectsMalformedLikeSerial(t *testing.T) {
	const w, h = 32, 32
	enc := NewEncoder(w, h, DefaultQuality)
	pkt, err := enc.Encode(randomFrame(sim.NewRNG(7), w, h, nil), false)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(99)
	for trial := 0; trial < 500; trial++ {
		buf := append([]byte(nil), pkt...)
		for flips := 0; flips < 1+rng.Intn(4); flips++ {
			buf[rng.Intn(len(buf))] ^= byte(1 << rng.Intn(8))
		}
		serial := NewDecoder(w, h, DefaultQuality)
		_, serr := serial.Decode(buf)
		par := NewDecoder(w, h, DefaultQuality)
		par.SetParallelism(4)
		_, perr := par.Decode(buf)
		if (serr == nil) != (perr == nil) {
			t.Fatalf("trial %d: serial err %v, parallel err %v", trial, serr, perr)
		}
	}
	for cut := 0; cut <= len(pkt); cut++ {
		par := NewDecoder(w, h, DefaultQuality)
		par.SetParallelism(4)
		_, _ = par.Decode(pkt[:cut]) // must not panic
	}
}

// benchFrames builds a pair of full-motion frames (every tile differs)
// so encode benchmarks measure the whole-frame transform cost, the
// regime the paper's §V-A comparison targets.
func benchFrames(w, h int) [][]byte {
	mk := func(phase int) []byte {
		f := make([]byte, w*h*4)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				i := (y*w + x) * 4
				f[i] = byte((x + phase) * 255 / w)
				f[i+1] = byte((y + phase) * 255 / h)
				f[i+2] = byte(x ^ y)
				f[i+3] = 255
			}
		}
		return f
	}
	return [][]byte{mk(0), mk(16)}
}

// BenchmarkTurboEncode measures tile-parallel encode throughput across
// worker degrees at the paper's streaming resolutions. The par=1 series
// is the serial reference the parallel degrees are compared against.
func BenchmarkTurboEncode(b *testing.B) {
	for _, sz := range []struct {
		name string
		w, h int
	}{{"320x240", 320, 240}, {"1280x720", 1280, 720}} {
		frames := benchFrames(sz.w, sz.h)
		for _, par := range benchDegrees() {
			b.Run(fmt.Sprintf("%s/par=%d", sz.name, par), func(b *testing.B) {
				enc := NewEncoder(sz.w, sz.h, DefaultQuality)
				enc.SetParallelism(par)
				// Warm up on the frame iteration 0 does not encode, so
				// every timed iteration encodes a changed frame.
				if _, err := enc.Encode(frames[1], false); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(sz.w * sz.h * 4))
				b.ResetTimer()
				packetBytes := 0
				for i := 0; i < b.N; i++ {
					pkt, err := enc.Encode(frames[i%2], false)
					if err != nil {
						b.Fatal(err)
					}
					packetBytes += len(pkt)
				}
				b.ReportMetric(float64(packetBytes)/float64(b.N), "packetB/frame")
			})
		}
	}
}

// BenchmarkTurboDecode measures tile-parallel decode throughput across
// worker degrees.
func BenchmarkTurboDecode(b *testing.B) {
	for _, sz := range []struct {
		name string
		w, h int
	}{{"1280x720", 1280, 720}} {
		frames := benchFrames(sz.w, sz.h)
		enc := NewEncoder(sz.w, sz.h, DefaultQuality)
		var pkts [][]byte
		for i := 0; i < 2; i++ {
			pkt, err := enc.Encode(frames[i], false)
			if err != nil {
				b.Fatal(err)
			}
			pkts = append(pkts, append([]byte(nil), pkt...))
		}
		for _, par := range benchDegrees() {
			b.Run(fmt.Sprintf("%s/par=%d", sz.name, par), func(b *testing.B) {
				dec := NewDecoder(sz.w, sz.h, DefaultQuality)
				dec.SetParallelism(par)
				if _, err := dec.Decode(pkts[0]); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(sz.w * sz.h * 4))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := dec.Decode(pkts[i%2]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(pkts[0])+len(pkts[1]))/2, "packetB/frame")
			})
		}
	}
}
