package session

import (
	"bytes"
	"errors"
	"testing"

	"github.com/gbooster/gbooster/internal/cmdcache"
	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/lz4"
	"github.com/gbooster/gbooster/internal/sim"
)

// liveSession builds a mid-stream session: a populated GL context, a
// warmed command cache (with evictions), and a compressor that has
// shipped enough blocks to hold a dictionary window.
func liveSession(t *testing.T, seed uint64) (*gles.Context, *cmdcache.Cache, *lz4.Compressor) {
	t.Helper()
	rng := sim.NewRNG(seed)
	ctx := gles.NewContext()
	mustApply := func(cmd gles.Command) {
		t.Helper()
		if err := ctx.Apply(cmd); err != nil {
			t.Fatalf("apply %v: %v", cmd, err)
		}
	}
	mustApply(gles.Command{Op: gles.OpClearColor, Floats: []float32{0.1, 0.2, 0.3, 1}})
	mustApply(gles.Command{Op: gles.OpGenTexture, Ints: []int32{1}})
	mustApply(gles.Command{Op: gles.OpBindTexture, Ints: []int32{gles.TexTarget2D, 1}})
	texels := make([]byte, 2*2*4)
	mustApply(gles.Command{Op: gles.OpTexImage2D,
		Ints: []int32{gles.TexTarget2D, 0, 2, 2, gles.TexFormatRGBA},
		Data: texels, DataLen: int32(len(texels))})
	mustApply(gles.Command{Op: gles.OpGenBuffer, Ints: []int32{2}})
	mustApply(gles.Command{Op: gles.OpBindBuffer, Ints: []int32{gles.BufTargetArray, 2}})
	mustApply(gles.Command{Op: gles.OpBufferData,
		Ints: []int32{gles.BufTargetArray, gles.UsageStaticDraw},
		Data: []byte{9, 8, 7, 6}, DataLen: 4})

	cache := cmdcache.New(1 << 11)
	comp := lz4.NewCompressor()
	for i := 0; i < 64; i++ {
		rec := make([]byte, 32+rng.Intn(128))
		for j := range rec {
			rec[j] = byte(rng.Intn(16))
		}
		wire, _, err := cache.EncodeRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		_ = comp.Compress(nil, wire)
	}
	return ctx, cache, comp
}

func TestCheckpointRoundTrip(t *testing.T) {
	ctx, cache, comp := liveSession(t, 1)
	cp, err := Capture(ctx, cache, comp)
	if err != nil {
		t.Fatal(err)
	}
	stream := Append(nil, cp)
	if len(stream) != cp.Size() {
		t.Fatalf("Size() = %d, encoded %d bytes", cp.Size(), len(stream))
	}
	got, err := Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.State, cp.State) || !bytes.Equal(got.Dict, cp.Dict) {
		t.Fatal("state or dict bytes diverge after round trip")
	}
	if got.CacheCap != cp.CacheCap || len(got.Records) != len(cp.Records) {
		t.Fatalf("cache meta diverges: cap %d/%d records %d/%d",
			got.CacheCap, cp.CacheCap, len(got.Records), len(cp.Records))
	}
	for i := range cp.Records {
		if !bytes.Equal(got.Records[i], cp.Records[i]) {
			t.Fatalf("record %d diverges", i)
		}
	}
	if got.Fingerprint() != cp.Fingerprint() {
		t.Fatal("fingerprint diverges after round trip")
	}
}

// TestRestoreReachesIdenticalState is the codec half of the tentpole
// property: a cold restore reproduces the context (snapshot and
// fingerprint), a cache mirror with identical future behaviour, and a
// decompressor that picks up the compressed stream mid-flight.
func TestRestoreReachesIdenticalState(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		ctx, cache, comp := liveSession(t, seed)
		cp, err := Capture(ctx, cache, comp)
		if err != nil {
			t.Fatal(err)
		}
		stream := Append(nil, cp)
		dcp, err := Decode(stream)
		if err != nil {
			t.Fatal(err)
		}
		rctx, rcache, rdecomp, err := Restore(dcp)
		if err != nil {
			t.Fatal(err)
		}
		if rctx.Snapshot() != ctx.Snapshot() {
			t.Fatalf("seed %d: snapshot mismatch", seed)
		}
		if gles.StateFingerprint(rctx) != cp.Fingerprint() {
			t.Fatalf("seed %d: restored fingerprint diverges", seed)
		}
		// Future cache + compression behaviour must match a full-history
		// mirror: encode fresh traffic through the original pair and
		// decode through the restored pair.
		rng := sim.NewRNG(seed * 97)
		for i := 0; i < 32; i++ {
			rec := make([]byte, 24+rng.Intn(64))
			for j := range rec {
				rec[j] = byte(rng.Intn(16))
			}
			wire, _, err := cache.EncodeRecord(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			blk := comp.Compress(nil, wire)
			raw, err := rdecomp.Decompress(nil, blk, lz4.MaxBlockSize)
			if err != nil {
				t.Fatalf("seed %d block %d: decompress: %v", seed, i, err)
			}
			recs, err := rcache.DecodeAll(raw)
			if err != nil {
				t.Fatalf("seed %d block %d: cache decode: %v", seed, i, err)
			}
			if len(recs) != 1 || !bytes.Equal(recs[0], rec) {
				t.Fatalf("seed %d block %d: restored mirror decoded wrong record", seed, i)
			}
		}
	}
}

func TestDecodeRejectsCorruptStream(t *testing.T) {
	ctx, cache, comp := liveSession(t, 3)
	cp, err := Capture(ctx, cache, comp)
	if err != nil {
		t.Fatal(err)
	}
	stream := Append(nil, cp)

	cases := map[string][]byte{
		"empty":        nil,
		"short":        stream[:3],
		"bad magic":    append([]byte("XXXX"), stream[4:]...),
		"bad version":  append([]byte("GBCK\x09"), stream[5:]...),
		"no sections":  stream[:5],
		"trailing":     append(append([]byte(nil), stream...), 0x7f, 0x01),
		"unknown tag":  append(append([]byte(nil), stream...), 0x40, 0x00),
		"repeated tag": append(append([]byte(nil), stream...), tagDict, 0x00),
		"dict first":   append([]byte("GBCK\x01"), tagDict, 0x00),
		"length overrun": func() []byte {
			s := append([]byte(nil), stream...)
			s[6] = 0xff // state section length varint, now far past the end
			s[7] = 0x7f
			return s
		}(),
	}
	for name, data := range cases {
		if _, err := Decode(data); !errors.Is(err, ErrBadStream) {
			t.Errorf("%s: err = %v, want ErrBadStream", name, err)
		}
	}
	// Truncation must error except exactly at a section boundary, where
	// the prefix is a legitimately shorter stream (optional sections).
	boundaries := map[int]bool{
		5 + sectionLen(len(cp.State)):                                    true,
		5 + sectionLen(len(cp.State)) + sectionLen(cp.cachePayloadLen()): true,
	}
	for cut := 5; cut < len(stream); cut += 101 {
		if _, err := Decode(stream[:cut]); err == nil && !boundaries[cut] {
			t.Errorf("truncation at %d decoded without error", cut)
		}
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	ctx, cache, comp := liveSession(t, 4)
	cp, err := Capture(ctx, cache, comp)
	if err != nil {
		t.Fatal(err)
	}
	cp.State = cp.State[:len(cp.State)-1]
	if _, _, _, err := Restore(cp); err == nil {
		t.Fatal("truncated state should fail restore")
	}
}

func TestCaptureRejectsNil(t *testing.T) {
	if _, err := Capture(nil, nil, nil); !errors.Is(err, ErrBadStream) {
		t.Fatalf("err = %v, want ErrBadStream", err)
	}
}
