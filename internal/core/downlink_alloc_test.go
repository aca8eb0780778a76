package core

import (
	"encoding/binary"
	"runtime/debug"
	"testing"

	"github.com/gbooster/gbooster/internal/cmdcache"
	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/glwire"
	"github.com/gbooster/gbooster/internal/lz4"
	"github.com/gbooster/gbooster/internal/rudp"
)

// appendDataPkt builds one rudp data datagram by hand: magic, type,
// big-endian seq, zero timestamp, payload. The layout mirrors the rudp
// header the way ackAllSent does for ACKs, so the gate can feed the
// receive path through Inject without a live peer.
func appendDataPkt(dst []byte, seq uint32, payload []byte) []byte {
	dst = append(dst, 0xB7, 1)
	dst = binary.BigEndian.AppendUint32(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, 0)
	return append(dst, payload...)
}

// TestDownlinkServeZeroAllocSteadyState is the downlink mirror of the
// uplink gate: once the caches, the LZ4 dictionary windows, and every
// scratch pool are warm, serving a frame — datagram receive, stream
// reassembly, message delivery, LZ4 decompression, cache decode, wire
// decode, GL execution, turbo encode, reply framing, reliable send, and
// ACK processing — must not allocate at all. The path under test is the
// real server+rudp stack: rudp delivery into core.Server.Handle and the
// reply back out through rudp.Conn.Send, exactly the per-message cycle
// Server.serve and the fleet's runSession drive.
func TestDownlinkServeZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts the race runtime's shadow allocations; the gate runs in the non-race pass")
	}
	// Parallelism 1 is what every fleet session runs; the tile fan-out a
	// multi-CPU host selects at 0 allocates per parallel.Do call.
	srv, err := NewServer(ServerConfig{Width: 64, Height: 48, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	conn := rudp.New(newDiscardConn(), discardAddr{}, rudp.Options{})
	defer conn.Close()

	// Client-side uplink pipeline, mirroring the server's decode stack in
	// lockstep: the command cache and the LZ4 dictionary window are both
	// stateful, so messages must be produced live, not replayed.
	clientCache := cmdcache.New(0)
	comp := lz4.NewCompressor()
	enc := glwire.NewEncoder(nil)

	records := func(cmds []gles.Command) [][]byte {
		buf, err := enc.EncodeAll(nil, cmds)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := glwire.SplitRecords(buf)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	// One-time scene setup, sent ahead of the first frame: a program, a
	// texture and an interleaved (pos, uv) quad VBO, so every frame below
	// can draw a textured quad without touching context state that
	// copies (attribute pointers, uniforms).
	tex := make([]byte, 8*8*4)
	for i := range tex {
		tex[i] = byte(i * 29)
	}
	setup := records([]gles.Command{
		gles.CmdViewport(0, 0, 64, 48),
		gles.CmdCreateProgram(1), gles.CmdUseProgram(1),
		gles.CmdEnable(gles.CapBlend),
		gles.CmdGenTexture(1), gles.CmdBindTexture(gles.TexTarget2D, 1),
		gles.CmdTexImage2D(gles.TexTarget2D, 0, 8, 8, tex),
		gles.CmdGenBuffer(1), gles.CmdBindBuffer(gles.BufTargetArray, 1),
		gles.CmdBufferData(gles.BufTargetArray, gles.FloatsToBytes([]float32{
			-0.5, -0.5, 0, 0, 0.5, -0.5, 1, 0, -0.5, 0.5, 0, 1,
			0.5, -0.5, 1, 0, 0.5, 0.5, 1, 1, -0.5, 0.5, 0, 1,
		}), gles.UsageStaticDraw),
		gles.CmdVertexAttribPointerVBO(gles.LocPosition, 2, 16, 0, 1),
		gles.CmdEnableVertexAttribArray(gles.LocPosition),
		gles.CmdVertexAttribPointerVBO(gles.LocTexCoord, 2, 16, 8, 1),
		gles.CmdEnableVertexAttribArray(gles.LocTexCoord),
	})

	// Four frame variants (distinct clear shades under the same textured
	// quad) so the cache reaches hit-steady-state while the encoder still
	// sees changing tiles.
	var variants [4][][]byte
	for i := range variants {
		shade := float32(i) * 0.25
		variants[i] = records([]gles.Command{
			gles.CmdClearColor(shade, shade, shade, 1),
			gles.CmdClear(gles.ClearColorBit),
			gles.CmdDrawArrays(gles.DrawModeTriangles, 0, 6),
			gles.CmdSwapBuffers(),
		})
	}

	const maxPayload = 1200 // rudp default datagram payload bound
	var (
		wireBuf  []byte
		msgBuf   []byte
		frameBuf []byte
		pktBuf   []byte
		ackPkt   = make([]byte, 10)
		dataSeq  uint32
		iter     int
	)
	serve := func(recs [][]byte) {
		// Uplink: encode one frame batch the way a live client would.
		wire, _, err := clientCache.EncodeAll(wireBuf[:0], recs)
		wireBuf = wire
		if err != nil {
			t.Fatal(err)
		}
		msg := appendMsgHeader(msgBuf[:0], MsgFrameBatch, uint64(iter))
		msg = comp.Compress(msg, wire)
		msgBuf = msg
		iter++

		// Wire: frame the message and inject it as in-order data
		// datagrams, driving reassembly, delivery, and the ACK reply.
		framed := binary.AppendUvarint(frameBuf[:0], uint64(len(msg)))
		framed = append(framed, msg...)
		frameBuf = framed
		for off := 0; off < len(framed); off += maxPayload {
			end := off + maxPayload
			if end > len(framed) {
				end = len(framed)
			}
			pktBuf = appendDataPkt(pktBuf[:0], dataSeq, framed[off:end])
			dataSeq++
			conn.Inject(pktBuf)
		}

		// Serve: the per-message cycle of Server.serve / fleet.runSession.
		got, err := conn.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := srv.Handle(got)
		if err != nil {
			t.Fatal(err)
		}
		if reply == nil {
			t.Fatal("frame batch produced no reply")
		}
		if err := conn.Send(reply); err != nil {
			t.Fatal(err)
		}
		ReleaseMsg(conn, got)

		// Drain the send window so pending slots recycle.
		ackAllSent(conn, ackPkt)
	}
	step := func() { serve(variants[iter%len(variants)]) }
	serve(append(setup, variants[0]...))
	if got := srv.Stats().FragmentsShaded; got <= 64*48 {
		t.Fatalf("first frame shaded %d fragments: the quad did not draw", got)
	}

	// Warm every layer: the caches need one cycle through the variants,
	// the scratch buffers a few more, and the LZ4 history windows keep
	// amortized-growing until cumulative traffic passes histMax (256 KiB)
	// on both the compressor and the server's mirroring decompressor.
	for i := 0; i < 3000; i++ {
		step()
	}

	// A GC in the measurement window may empty the sync.Pool-backed
	// packet scratch, which would charge a spurious refill to the loop.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("steady-state downlink serve allocates %v times per frame", n)
	}
}
