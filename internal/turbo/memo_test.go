package turbo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/glwire"
	"github.com/gbooster/gbooster/internal/workload"
)

// scanOnlyEncoder is the reference the memo is checked against: it
// decides every delta tile by the SAD scan against its own
// reconstruction and nothing else, with the float threshold compare the
// encoder used before it remembered sources. Only the transform
// (encodeTileInto, a pure function of tile and quantiser) is shared.
type scanOnlyEncoder struct {
	e         *Encoder
	sent, all int
}

func (r *scanOnlyEncoder) encode(frame []byte, forceKey bool) []byte {
	e := r.e
	key := forceKey || !e.started
	e.started = true
	tw, th := tilesDim(e.w), tilesDim(e.h)
	kind := byte(packetDeltaQ)
	if key {
		kind = packetKeyQ
	}
	out := []byte{kind}
	out = binary.AppendUvarint(out, uint64(e.w))
	out = binary.AppendUvarint(out, uint64(e.h))
	out = append(out, byte(e.quality))
	countAt := len(out)
	out = append(out, 0, 0, 0, 0)
	var sent uint32
	var yBlk, cbBlk, crBlk [blockSize * blockSize]int32
	for ty := 0; ty < th; ty++ {
		for tx := 0; tx < tw; tx++ {
			if !key && !r.tileChanged(frame, tx, ty) {
				continue
			}
			out = e.encodeTileInto(out, frame, tx, ty, tw, &yBlk, &cbBlk, &crBlk)
			sent++
		}
	}
	binary.LittleEndian.PutUint32(out[countAt:], sent)
	r.sent += int(sent)
	r.all += tw * th
	return out
}

func (r *scanOnlyEncoder) tileChanged(frame []byte, tx, ty int) bool {
	e := r.e
	x0, y0 := tx*blockSize, ty*blockSize
	sad, n := 0, 0
	for dy := 0; dy < blockSize && y0+dy < e.h; dy++ {
		for dx := 0; dx < blockSize && x0+dx < e.w; dx++ {
			i := ((y0+dy)*e.w + x0 + dx) * 4
			sad += absDiff(frame[i], e.prev[i]) + absDiff(frame[i+1], e.prev[i+1]) + absDiff(frame[i+2], e.prev[i+2])
			n += 3
		}
	}
	return n > 0 && float64(sad) > 2.0*float64(n)
}

// packetTiles reads the tile count out of a packet header.
func packetTiles(t *testing.T, pkt []byte) (kind byte, count int) {
	t.Helper()
	p := pkt[1:]
	for i := 0; i < 2; i++ {
		_, n := binary.Uvarint(p)
		if n <= 0 {
			t.Fatal("bad packet header")
		}
		p = p[n:]
	}
	return pkt[0], int(binary.LittleEndian.Uint32(p[1:]))
}

// renderer drives a workload's real command stream through the wire
// codec and the software GPU, as the service device does.
type renderer struct {
	game *workload.Game
	enc  *glwire.Encoder
	dec  glwire.Decoder
	gpu  *gles.GPU
	buf  []byte
}

func newRenderer(t *testing.T, id string, w, h int) *renderer {
	t.Helper()
	p, err := workload.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	game := workload.NewGame(p, 1)
	return &renderer{game: game, enc: glwire.NewEncoder(game.Arrays()), gpu: gles.NewGPU(w, h)}
}

func (r *renderer) next(t *testing.T) []byte {
	t.Helper()
	var err error
	if r.buf, err = r.enc.EncodeAll(r.buf[:0], r.game.NextFrame().Commands); err != nil {
		t.Fatal(err)
	}
	cmds, err := r.dec.DecodeAll(r.buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.gpu.ExecuteAll(cmds); err != nil {
		t.Fatal(err)
	}
	return r.gpu.FB.Pix
}

// TestMemoMatchesScanOnlyReference is the exactness property of the
// source memo: on real rendered streams, through quality steps down and
// back up and a forced keyframe, an encoder that skips settled tiles
// unseen drives its decoder to exactly the frames a scan-only encoder
// drives its own — while never sending a larger packet.
func TestMemoMatchesScanOnlyReference(t *testing.T) {
	const (
		w, h    = 320, 240
		frames  = 300
		keyAt   = 240
		allTile = (w / blockSize) * (h / blockSize)
	)
	qualityAt := map[int]int{60: 25, 120: 28, 180: DefaultQuality}
	type stream struct {
		enc *Encoder
		dec *Decoder
	}
	for _, id := range []string{"A1", "G1", "G5"} {
		t.Run(id, func(t *testing.T) {
			rend := newRenderer(t, id, w, h)
			ref := &scanOnlyEncoder{e: NewEncoder(w, h, DefaultQuality)}
			refDec := NewDecoder(w, h, DefaultQuality)
			var streams []stream
			for _, par := range uniqueDegrees([]int{1, 2, runtime.NumCPU()}) {
				s := stream{NewEncoder(w, h, DefaultQuality), NewDecoder(w, h, DefaultQuality)}
				s.enc.SetParallelism(par)
				streams = append(streams, s)
			}
			for f := 0; f < frames; f++ {
				frame := rend.next(t)
				if q, ok := qualityAt[f]; ok {
					ref.e.SetQuality(q)
					for _, s := range streams {
						s.enc.SetQuality(q)
					}
				}
				refPkt := ref.encode(frame, f == keyAt)
				want, err := refDec.Decode(refPkt)
				if err != nil {
					t.Fatalf("frame %d: reference decode: %v", f, err)
				}
				if !bytes.Equal(ref.e.prev, want) {
					t.Fatalf("frame %d: reference loop open", f)
				}
				for _, s := range streams {
					pkt, err := s.enc.Encode(frame, f == keyAt)
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.dec.Decode(pkt)
					if err != nil {
						t.Fatalf("frame %d par %d: decode: %v", f, s.enc.par, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("frame %d par %d: displayed frame differs from the scan-only reference", f, s.enc.par)
					}
					if !bytes.Equal(s.enc.prev, got) {
						t.Fatalf("frame %d par %d: encoder reconstruction != decoder frame", f, s.enc.par)
					}
					if len(pkt) > len(refPkt) {
						t.Fatalf("frame %d par %d: packet %d B > reference %d B", f, s.enc.par, len(pkt), len(refPkt))
					}
					if f == 0 || f == keyAt {
						if kind, n := packetTiles(t, pkt); kind != packetKeyQ || n != allTile {
							t.Fatalf("frame %d par %d: keyframe kind %d carries %d of %d tiles", f, s.enc.par, kind, n, allTile)
						}
					}
				}
			}
			if id != "A1" {
				return
			}
			// The regression this memo exists for: an app's static
			// sharp-edged tiles used to re-ship every frame.
			refShare := float64(ref.sent) / float64(ref.all)
			for _, s := range streams {
				share := float64(s.enc.Stats.TilesSent) / float64(s.enc.Stats.TilesTotal)
				if share >= 0.04 || refShare <= 0.08 {
					t.Fatalf("par %d: shipped tile share %.4f (want < 0.04), scan-only %.4f (want > 0.08)", s.enc.par, share, refShare)
				}
			}
		})
	}
}

// TestMemoReevaluatesContentThatReturns: a tile that changes and then
// changes back is a changed source both times; the memo only holds one
// source per tile and must not mistake the return for "unchanged".
func TestMemoReevaluatesContentThatReturns(t *testing.T) {
	const w, h = 64, 64
	a, b := testFrame(w, h, 8, 8), testFrame(w, h, 40, 24)
	enc := NewEncoder(w, h, DefaultQuality)
	dec := NewDecoder(w, h, DefaultQuality)
	ref := &scanOnlyEncoder{e: NewEncoder(w, h, DefaultQuality)}
	refDec := NewDecoder(w, h, DefaultQuality)
	for i, frame := range [][]byte{a, a, b, b, a, a, b} {
		pkt, err := enc.Encode(frame, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refDec.Decode(ref.encode(frame, false))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: displayed frame differs from the scan-only reference", i)
		}
		_, n := packetTiles(t, pkt)
		switch i {
		case 1, 3, 5:
			if n != 0 {
				t.Fatalf("frame %d: repeat of the previous source shipped %d tiles", i, n)
			}
		case 2, 4, 6:
			if n == 0 {
				t.Fatalf("frame %d: moved square shipped no tile", i)
			}
		}
	}
}

// TestMemoEdgeTiles: on a frame whose size is not a multiple of the tile
// size, a change confined to the clipped last row and column of tiles
// is seen, and a repeat of it is not re-shipped.
func TestMemoEdgeTiles(t *testing.T) {
	const w, h = 30, 22
	tw, th := tilesDim(w), tilesDim(h)
	base := testFrame(w, h, 4, 4)
	edge := append([]byte(nil), base...)
	for _, px := range [][2]int{{w - 1, 3}, {5, h - 1}, {w - 1, h - 1}} {
		i := (px[1]*w + px[0]) * 4
		edge[i], edge[i+1], edge[i+2] = 0, 0, 255
	}
	for _, par := range []int{1, 3} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			enc := NewEncoder(w, h, DefaultQuality)
			enc.SetParallelism(par)
			dec := NewDecoder(w, h, DefaultQuality)
			ref := &scanOnlyEncoder{e: NewEncoder(w, h, DefaultQuality)}
			refDec := NewDecoder(w, h, DefaultQuality)
			for i, frame := range [][]byte{base, edge, edge, base, base} {
				pkt, err := enc.Encode(frame, false)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dec.Decode(pkt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refDec.Decode(ref.encode(frame, false))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("frame %d: displayed frame differs from the scan-only reference", i)
				}
				if !bytes.Equal(enc.src, frame) {
					t.Fatalf("frame %d: memo does not hold the frame it was shown", i)
				}
				_, n := packetTiles(t, pkt)
				switch i {
				case 0:
					if n != tw*th {
						t.Fatalf("keyframe shipped %d of %d tiles", n, tw*th)
					}
				case 1, 3:
					if n != 3 {
						t.Fatalf("frame %d: shipped %d tiles, want the 3 edge tiles", i, n)
					}
				case 2, 4:
					if n != 0 {
						t.Fatalf("frame %d: repeat shipped %d tiles", i, n)
					}
				}
			}
		})
	}
}
