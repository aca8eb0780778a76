package turbo

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"runtime"
	"testing"
)

// TestV3PixelsMatchParent pins every displayed pixel across a change of
// the entropy layer. Each digest chains the decoder's full frame after
// every one of 60 rendered frames (seed 1), through a quality step down
// and back up and one forced keyframe. The digests were taken with the
// varint-pair coder (packet kinds 3/4) and committed before the bit
// coder replaced it; a coder change must leave them alone, because it
// may only change how the same quantised coefficients are written down.
func TestV3PixelsMatchParent(t *testing.T) {
	const (
		frames = 60
		keyAt  = 50
	)
	qualityAt := map[int]int{20: 40, 40: DefaultQuality}
	for _, c := range []struct {
		id   string
		w, h int
		want string
	}{
		{"G1", 600, 480, "e9366b37914ca298e0415c1c48c1461f858b16fc6831c2dc302cdb16eff30467"},
		{"A1", 600, 480, "8c600913d3e63310c87437188eb996ca72e6f8d27ef58893e96b4b895c84e27e"},
		{"G5", 320, 240, "fd5389d1abd17e123b122cafe39b5d62dca3c6c196e309ce6642bfc81d3ed99f"},
	} {
		t.Run(c.id, func(t *testing.T) {
			type stream struct {
				par int
				enc *Encoder
				dec *Decoder
				sum hash.Hash
			}
			var streams []*stream
			for _, par := range uniqueDegrees([]int{1, 2, runtime.NumCPU()}) {
				s := &stream{par: par, enc: NewEncoder(c.w, c.h, DefaultQuality), dec: NewDecoder(c.w, c.h, DefaultQuality), sum: sha256.New()}
				s.enc.SetParallelism(par)
				s.dec.SetParallelism(par)
				streams = append(streams, s)
			}
			rend := newRenderer(t, c.id, c.w, c.h)
			for f := 0; f < frames; f++ {
				frame := rend.next(t)
				for _, s := range streams {
					if q, ok := qualityAt[f]; ok {
						s.enc.SetQuality(q)
					}
					pkt, err := s.enc.Encode(frame, f == keyAt)
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.dec.Decode(pkt)
					if err != nil {
						t.Fatalf("frame %d par %d: %v", f, s.par, err)
					}
					s.sum.Write(got)
				}
			}
			for _, s := range streams {
				if got := hex.EncodeToString(s.sum.Sum(nil)); got != c.want {
					t.Errorf("par %d: displayed frames digest %s, want %s", s.par, got, c.want)
				}
			}
		})
	}
}
