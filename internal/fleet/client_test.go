package fleet_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/cmdcache"
	"github.com/gbooster/gbooster/internal/core"
	"github.com/gbooster/gbooster/internal/fleet"
	"github.com/gbooster/gbooster/internal/gles"
	"github.com/gbooster/gbooster/internal/glwire"
	"github.com/gbooster/gbooster/internal/lz4"
	"github.com/gbooster/gbooster/internal/netsim"
	"github.com/gbooster/gbooster/internal/rudp"
)

// newStar attaches n lossless ports to a fresh hub: the fleet's listener
// and one source address per client.
func newStar(tb testing.TB, n int, seed uint64) (*netsim.Hub, []*netsim.HubPort) {
	tb.Helper()
	hub := netsim.NewHub("")
	leaves := make([]*netsim.HubPort, n)
	for i := range leaves {
		var err error
		if leaves[i], err = hub.Attach(fmt.Sprintf("leaf-%d", i), netsim.LinkConfig{}, seed+uint64(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return hub, leaves
}

// testClient speaks the full client uplink pipeline — GL command
// builders, wire encoding, mirrored command cache, inter-frame LZ4
// dictionary, message framing, reliable UDP — against a fleet session,
// with reusable buffers so the steady-state send path's allocations
// don't drown the server-side numbers the fleet bench gates on.
type testClient struct {
	conn  *rudp.Conn
	enc   *glwire.Encoder
	cache *cmdcache.Cache
	comp  *lz4.Compressor

	seqBase uint64
	seq     uint64
	cmds    [3]gles.Command
	encBuf  []byte
	wireBuf []byte
	msgBuf  []byte
}

// newTestClient dials a fleet listener from pc. seqBase partitions the
// frame sequence space per client so a reply leaking across sessions is
// detectable by its sequence number alone.
func newTestClient(pc net.PacketConn, peer net.Addr, seqBase uint64) *testClient {
	opts := rudp.DefaultOptions()
	return &testClient{
		conn:    rudp.New(pc, peer, opts),
		enc:     glwire.NewEncoder(nil),
		cache:   cmdcache.New(0),
		comp:    lz4.NewCompressor(),
		seqBase: seqBase,
		seq:     seqBase,
	}
}

// sendFrame ships one complete rendering request (clear to a shade,
// swap) and returns the sequence number it carried.
func (c *testClient) sendFrame(shade float32) (uint64, error) {
	c.cmds[0] = gles.CmdClearColor(shade, shade, shade, 1)
	c.cmds[1] = gles.CmdClear(gles.ClearColorBit)
	c.cmds[2] = gles.CmdSwapBuffers()
	buf, err := c.enc.EncodeAll(c.encBuf[:0], c.cmds[:])
	c.encBuf = buf
	if err != nil {
		return 0, err
	}
	recs, err := glwire.SplitRecords(buf)
	if err != nil {
		return 0, err
	}
	wire, _, err := c.cache.EncodeAll(c.wireBuf[:0], recs)
	c.wireBuf = wire
	if err != nil {
		return 0, err
	}
	seq := c.seq
	c.seq++
	msg := append(c.msgBuf[:0], core.MsgFrameBatch)
	msg = binary.AppendUvarint(msg, seq)
	msg = c.comp.Compress(msg, wire)
	c.msgBuf = msg
	return seq, c.conn.Send(msg)
}

// recvFrame waits for one encoded-frame reply and returns its sequence
// number, verifying the message type on the way.
func (c *testClient) recvFrame(timeout time.Duration) (uint64, error) {
	msg, err := c.conn.Recv(timeout)
	if err != nil {
		return 0, err
	}
	if len(msg) < 2 || msg[0] != core.MsgEncodedFrame {
		return 0, fmt.Errorf("reply type %d (%d bytes), want encoded frame", msg[0], len(msg))
	}
	seq, n := binary.Uvarint(msg[1:])
	if n <= 0 {
		return 0, fmt.Errorf("reply carries no sequence number")
	}
	return seq, nil
}

// ownSeq reports whether seq belongs to this client's partition — the
// cross-session leakage check.
func (c *testClient) ownSeq(seq uint64) bool {
	return seq >= c.seqBase && seq < c.seq
}

func (c *testClient) close() { _ = c.conn.Close() }

// newFleetConfig is the shared small-resolution test config.
func newFleetConfig() fleet.Config {
	return fleet.Config{
		Width:  64,
		Height: 48,
	}
}
