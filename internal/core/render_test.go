package core

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/gbooster/gbooster/internal/cmdcache"
	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/glwire"
	"github.com/gbooster/gbooster/internal/lz4"
	"github.com/gbooster/gbooster/internal/turbo"
	"github.com/gbooster/gbooster/internal/workload"
)

// uplink builds server messages the way a client does: wire records,
// the mirrored command cache, then the LZ4 stream.
type uplink struct {
	wire  *glwire.Encoder
	cache *cmdcache.Cache
	comp  *lz4.Compressor
	seq   uint64
}

func newUplink(arrays glwire.ClientArrays) *uplink {
	return &uplink{wire: glwire.NewEncoder(arrays), cache: cmdcache.New(0), comp: lz4.NewCompressor()}
}

// msg frames cmds as one message of the given type and returns it with
// the commands a server decodes from it.
func (u *uplink) msg(t *testing.T, msgType byte, cmds []gles.Command) ([]byte, []gles.Command) {
	t.Helper()
	buf, err := u.wire.EncodeAll(nil, cmds)
	if err != nil {
		t.Fatal(err)
	}
	var dec glwire.Decoder
	decoded, err := dec.DecodeAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := glwire.SplitRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	wire, _, err := u.cache.EncodeAll(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	u.seq++
	return encodeMsg(msgType, u.seq, u.comp.Compress(nil, wire)), decoded
}

// TestHandleMatchesStandaloneRender: the server rasterizes a frame
// inside its encode, band by band, yet its reply carries exactly the
// packet a standalone GPU that resolves at SwapBuffers and a serial
// Encoder.Encode produce from the same batches, and it counts the same
// fragments — at Parallelism 1 and 2.
func TestHandleMatchesStandaloneRender(t *testing.T) {
	const w, h, frames = 160, 120, 8
	for _, game := range []string{"G1", "A1", "G5"} {
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/par=%d", game, par), func(t *testing.T) {
				prof, err := workload.ByID(game)
				if err != nil {
					t.Fatal(err)
				}
				g := workload.NewGame(prof, 5)
				up := newUplink(g.Arrays())
				srv, err := NewServer(ServerConfig{Width: w, Height: h, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				gpu := gles.NewGPU(w, h)
				enc := turbo.NewEncoder(w, h, turbo.DefaultQuality)
				for f := 0; f < frames; f++ {
					msg, cmds := up.msg(t, MsgFrameBatch, g.NextFrame().Commands)
					reply, err := srv.Handle(msg)
					if err != nil {
						t.Fatalf("frame %d: %v", f, err)
					}
					_, _, got, err := decodeMsg(reply)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := gpu.ExecuteAll(cmds); err != nil {
						t.Fatalf("frame %d: standalone: %v", f, err)
					}
					want, err := enc.Encode(gpu.FB.Pix, false)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("frame %d: Handle's packet (%dB) differs from the standalone render's (%dB)", f, len(got), len(want))
					}
				}
				if st := srv.Stats(); st.FragmentsShaded != gpu.FragmentsShaded || st.ExecErrors != 0 {
					t.Fatalf("server shaded %d fragments with %d errors, standalone %d",
						st.FragmentsShaded, st.ExecErrors, gpu.FragmentsShaded)
				}
			})
		}
	}
}

// TestBatchWithoutFrameResolvesInHandle: a state update or a frame batch
// without SwapBuffers that carries clears and draws leaves nothing
// recorded when Handle returns, and leaves the framebuffer and fragment
// count a GPU rasterizing every command as it executes would.
func TestBatchWithoutFrameResolvesInHandle(t *testing.T) {
	const w, h = 64, 48
	quad := gles.FloatsToBytes([]float32{-0.6, -0.6, 0.5, -0.6, -0.6, 0.7, 0.5, -0.6, 0.5, 0.7, -0.6, 0.7})
	batches := [][]gles.Command{{
		gles.CmdViewport(0, 0, w, h),
		gles.CmdCreateProgram(1), gles.CmdUseProgram(1),
		gles.CmdClearColor(0.2, 0.4, 0.6, 1),
		gles.CmdClear(gles.ClearColorBit),
		gles.CmdUniform4f(gles.LocTint, 0.9, 0.3, 0.1, 1),
		gles.CmdVertexAttribPointerResolved(gles.LocPosition, 2, 0, quad),
		gles.CmdEnableVertexAttribArray(gles.LocPosition),
		gles.CmdDrawArrays(gles.DrawModeTriangles, 0, 6),
	}, {
		gles.CmdEnable(gles.CapBlend),
		gles.CmdUniform4f(gles.LocTint, 0.1, 0.8, 0.3, 0.5),
		gles.CmdDrawArrays(gles.DrawModeTriangles, 0, 3),
	}}
	for _, par := range []int{1, 2} {
		for _, msgType := range []byte{MsgStateUpdate, MsgFrameBatch} {
			t.Run(fmt.Sprintf("type=%d/par=%d", msgType, par), func(t *testing.T) {
				up := newUplink(nil)
				srv, err := NewServer(ServerConfig{Width: w, Height: h, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				eager := gles.NewGPU(w, h)
				for i, batch := range batches {
					msg, cmds := up.msg(t, msgType, batch)
					if reply, err := srv.Handle(msg); err != nil || reply != nil {
						t.Fatalf("batch %d: reply %d bytes, err %v", i, len(reply), err)
					}
					if n := srv.gpu.Resolve(); n != 0 {
						t.Fatalf("batch %d: %d fragments were still recorded after Handle", i, n)
					}
					for _, cmd := range cmds {
						if _, err := eager.Execute(cmd); err != nil {
							t.Fatal(err)
						}
						if _, err := eager.Execute(gles.CmdFinish()); err != nil {
							t.Fatal(err)
						}
					}
					if !bytes.Equal(srv.gpu.FB.Pix, eager.FB.Pix) {
						t.Fatalf("batch %d: framebuffer differs from rasterizing each command as it executes", i)
					}
					if st := srv.Stats(); st.FragmentsShaded != eager.FragmentsShaded || st.ExecErrors != 0 {
						t.Fatalf("batch %d: server shaded %d fragments with %d errors, want %d",
							i, st.FragmentsShaded, st.ExecErrors, eager.FragmentsShaded)
					}
				}
			})
		}
	}
}
