// Regression test for the stray-datagram bug: rudp.Conn.readLoop used
// to discard the sender address returned by ReadFrom, so ANY datagram
// landing on the socket — spoofed, misrouted, or from a previous
// session — was processed as if the registered peer had sent it and
// could corrupt ACK/sequence state. A second port on the server's hub
// plays the off-path attacker here.
package rudp_test

import (
	"encoding/binary"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/netsim"
	"github.com/gbooster/gbooster/internal/rudp"
)

// forgeDataPacket builds a valid-looking rudp DATA datagram carrying
// one complete uvarint-framed message, byte-for-byte what a peer's
// first Send would put on the wire. The wire constants are spelled out
// on purpose: the test asserts the transport rejects a well-formed
// packet from the wrong source, not a malformed one.
func forgeDataPacket(seq uint32, msg string) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(msg)))
	payload = append(payload, msg...)
	pkt := make([]byte, 10+len(payload))
	pkt[0] = 0xB7 // protocol magic
	pkt[1] = 1    // typeData
	binary.BigEndian.PutUint32(pkt[2:6], seq)
	binary.BigEndian.PutUint32(pkt[6:10], 0) // timestamp echo
	copy(pkt[10:], payload)
	return pkt
}

func TestStrayDatagramViaNetsim(t *testing.T) {
	cfg := netsim.LinkConfig{Delay: time.Millisecond}
	hub, port := netsim.NewPair(cfg, 31)
	server := rudp.New(hub, port.Addr(), rudp.DefaultOptions())
	client := rudp.New(port, hub.Addr(), rudp.DefaultOptions())
	defer server.Close()
	defer client.Close()
	attacker, err := hub.Attach("attacker", cfg, 32)
	if err != nil {
		t.Fatal(err)
	}

	forged := forgeDataPacket(0, "evil")
	if !rudp.IsProtocolDatagram(forged) {
		t.Fatal("forged packet must look like a real protocol datagram, or the test proves nothing")
	}
	// The off-path attacker lands the forgery on the server's socket
	// before the real client says anything. It claims the same seq 0 the
	// client's first datagram will use: processed, it would poison the
	// receive window and turn the real datagram into a duplicate.
	if _, err := attacker.WriteTo(forged, hub.Addr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	if err := client.Send([]byte("real")); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("real client's message lost after stray injection: %v", err)
	}
	if string(got) != "real" {
		t.Fatalf("server delivered %q: forged off-path datagram entered the stream", got)
	}
	st := server.Stats()
	if st.StrayPackets == 0 {
		t.Fatal("stray datagram not counted in Stats.StrayPackets")
	}
	if st.Duplicates != 0 {
		t.Fatalf("forged datagram reached sequence accounting: %d duplicates", st.Duplicates)
	}
}
