package rudp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/netsim"
)

// demux pumps one shared PacketConn and routes datagrams to registered
// demuxed conns by source address — the miniature of what the fleet
// manager does, enough to exercise injection-driven conns in-package.
type demux struct {
	pc net.PacketConn

	mu    sync.Mutex
	conns map[string]*Conn

	done chan struct{}
	wg   sync.WaitGroup
}

func newDemux(pc net.PacketConn) *demux {
	d := &demux{pc: pc, conns: make(map[string]*Conn), done: make(chan struct{})}
	d.wg.Add(1)
	go d.run()
	return d
}

func (d *demux) add(addr net.Addr, c *Conn) {
	d.mu.Lock()
	d.conns[addr.String()] = c
	d.mu.Unlock()
}

func (d *demux) run() {
	defer d.wg.Done()
	buf := make([]byte, 65536)
	for {
		select {
		case <-d.done:
			return
		default:
		}
		_ = d.pc.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		n, from, err := d.pc.ReadFrom(buf)
		if err != nil {
			if isTimeout(err) {
				continue
			}
			return
		}
		if from == nil || !IsProtocolDatagram(buf[:n]) {
			continue
		}
		d.mu.Lock()
		c := d.conns[from.String()]
		d.mu.Unlock()
		if c != nil {
			c.Inject(buf[:n])
		}
	}
}

func (d *demux) close() {
	close(d.done)
	_ = d.pc.Close()
	d.wg.Wait()
}

// newStar attaches n ports emulating cfg to a fresh hub: one listener
// serving n remote peers.
func newStar(t *testing.T, n int, cfg netsim.LinkConfig, seed uint64) (*netsim.Hub, []*netsim.HubPort) {
	t.Helper()
	hub := netsim.NewHub("")
	leaves := make([]*netsim.HubPort, n)
	for i := range leaves {
		var err error
		if leaves[i], err = hub.Attach(fmt.Sprintf("leaf-%d", i), cfg, seed+uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return hub, leaves
}

func TestWheelScheduleFireRemove(t *testing.T) {
	w := NewWheel(time.Millisecond, 8)
	defer w.Close()
	pcB, pcA := netsim.NewPair(netsim.LinkConfig{}, 11)
	defer pcB.Close()
	c := NewDemuxed(pcA, pcB.Addr(), DefaultOptions(), w)
	defer c.Close()

	// A scheduled conn occupies one slot; earliest wins: pushing the
	// deadline out must not move it, pulling it in must.
	w.schedule(c, time.Now().Add(time.Hour))
	if w.Len() != 1 {
		t.Fatalf("Len after schedule = %d", w.Len())
	}
	w.schedule(c, time.Now().Add(2*time.Hour))
	w.mu.Lock()
	far := w.sched[c]
	w.mu.Unlock()
	w.schedule(c, time.Now().Add(10*time.Millisecond))
	w.mu.Lock()
	near := w.sched[c]
	w.mu.Unlock()
	if near >= far {
		t.Fatalf("earlier deadline did not win: near=%d far=%d", near, far)
	}
	w.remove(c)
	if w.Len() != 0 {
		t.Fatalf("Len after remove = %d", w.Len())
	}
}

func TestWheelDrivesRetransmission(t *testing.T) {
	// Loss severe enough that the first copy of some datagram dies:
	// only the wheel can resend it, because a demuxed conn runs no
	// retransmitLoop of its own.
	hub, leaf := netsim.NewPair(netsim.LinkConfig{Loss: 0.25}, 1234)

	w := NewWheel(time.Millisecond, 64)
	defer w.Close()
	opts := DefaultOptions()
	opts.RTO = 10 * time.Millisecond
	server := NewDemuxed(hub, leaf.Addr(), opts, w)
	defer server.Close()
	client := New(leaf, hub.Addr(), opts)
	defer client.Close()
	d := newDemux(hub)
	defer d.close()
	d.add(leaf.Addr(), server)

	const n = 40
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			got, err := client.Recv(10 * time.Second)
			if err != nil {
				done <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			if want := fmt.Sprintf("frame-%03d", i); string(got) != want {
				done <- fmt.Errorf("message %d = %q, want %q", i, got, want)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		if err := server.Send([]byte(fmt.Sprintf("frame-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := server.Stats(); st.DataResent == 0 {
		t.Fatal("25% loss with wheel-driven timers produced zero retransmissions")
	}
	// Quiescent conn: once everything is acked the wheel forgets it.
	deadline := time.Now().Add(2 * time.Second)
	for w.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("wheel still tracks %d conns after drain", w.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDemuxedConnsRunNoGoroutines(t *testing.T) {
	hub, leaves := newStar(t, 64, netsim.LinkConfig{}, 7)
	defer hub.Close()
	for _, l := range leaves {
		defer l.Close()
	}
	w := NewWheel(time.Millisecond, 256)
	defer w.Close()

	runtime.GC()
	before := runtime.NumGoroutine()
	conns := make([]*Conn, len(leaves))
	for i, l := range leaves {
		conns[i] = NewDemuxed(hub, l.Addr(), DefaultOptions(), w)
	}
	runtime.GC()
	after := runtime.NumGoroutine()
	if grew := after - before; grew > 2 {
		t.Fatalf("64 demuxed conns grew goroutines by %d; want O(1) total", grew)
	}
	for _, c := range conns {
		_ = c.Close()
	}
	// The shared listener must survive demuxed closes.
	if _, err := hub.WriteTo([]byte("x"), leaves[0].Addr()); err != nil {
		t.Fatalf("shared socket closed by demuxed Conn.Close: %v", err)
	}
}

func TestReadLoopDropsStrayPeer(t *testing.T) {
	// One listener, two remote peers: the conn is bound to leaf 0, and
	// leaf 1 lands a perfectly well-formed DATA datagram on the shared
	// socket. Before source validation the conn would deliver it as the
	// peer's seq-0 message and desynchronize the real stream.
	hub, leaves := newStar(t, 2, netsim.LinkConfig{}, 21)
	real, evil := leaves[0], leaves[1]
	defer evil.Close()

	opts := DefaultOptions()
	opts.RTO = 10 * time.Millisecond
	server := New(hub, real.Addr(), opts)
	defer server.Close()
	client := New(real, hub.Addr(), opts)
	defer client.Close()

	forged := appendPacket(nil, typeData, 0, 0, encodeMsgPayload("evil"))
	if !IsProtocolDatagram(forged) {
		t.Fatal("forged packet should look like a protocol datagram")
	}
	if _, err := evil.WriteTo(forged, hub.Addr()); err != nil {
		t.Fatal(err)
	}
	// Give the stray a head start so arrival order can't save us.
	time.Sleep(20 * time.Millisecond)
	if err := client.Send([]byte("real")); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "real" {
		t.Fatalf("server delivered %q; stray datagram won the session", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for server.Stats().StrayPackets == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stray datagram was not counted in Stats.StrayPackets")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// encodeMsgPayload frames s the way Send does (uvarint length prefix),
// so a forged datagram would parse as a complete message if it got
// through.
func encodeMsgPayload(s string) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(s)))
	return append(buf, s...)
}

func TestIsProtocolDatagram(t *testing.T) {
	valid := appendPacket(nil, typeData, 1, 2, []byte("x"))
	if !IsProtocolDatagram(valid) {
		t.Fatal("valid data packet rejected")
	}
	ack := appendPacket(nil, typeAck, 1, 2, nil)
	if !IsProtocolDatagram(ack) {
		t.Fatal("valid ack packet rejected")
	}
	for name, b := range map[string][]byte{
		"empty":     nil,
		"short":     {magicByte, typeData},
		"bad magic": append([]byte{0x00}, valid[1:]...),
		"bad type":  {magicByte, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0},
		"text":      []byte("GET / HTTP/1.1\r\n"),
	} {
		if IsProtocolDatagram(b) {
			t.Fatalf("%s accepted as protocol datagram", name)
		}
	}
}

func TestDemuxedBidirectionalUnderLoss(t *testing.T) {
	// Four demuxed sessions share one hub socket and one wheel while
	// every path drops 10%: reliability must hold per session with no
	// cross-talk, all retransmissions wheel-driven on the hub side.
	const sessions = 4
	hub, leaves := newStar(t, sessions, netsim.LinkConfig{Loss: 0.10}, 4242)
	w := NewWheel(time.Millisecond, 256)
	defer w.Close()
	opts := DefaultOptions()
	opts.RTO = 15 * time.Millisecond

	servers := make([]*Conn, sessions)
	clients := make([]*Conn, sessions)
	d := newDemux(hub)
	defer d.close()
	for i := range servers {
		servers[i] = NewDemuxed(hub, leaves[i].Addr(), opts, w)
		clients[i] = New(leaves[i], hub.Addr(), opts)
		d.add(leaves[i].Addr(), servers[i])
	}
	defer func() {
		for i := range servers {
			_ = servers[i].Close()
			_ = clients[i].Close()
		}
	}()

	const n = 25
	var wg sync.WaitGroup
	errs := make(chan error, 2*sessions)
	for i := 0; i < sessions; i++ {
		i := i
		payload := bytes.Repeat([]byte{byte('A' + i)}, 2000)
		wg.Add(2)
		go func() { // client -> server
			defer wg.Done()
			for j := 0; j < n; j++ {
				if err := clients[i].Send(payload); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func() { // server receives and echoes
			defer wg.Done()
			for j := 0; j < n; j++ {
				got, err := servers[i].Recv(20 * time.Second)
				if err != nil {
					errs <- fmt.Errorf("session %d recv %d: %w", i, j, err)
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("session %d: cross-session corruption", i)
					return
				}
				if err := servers[i].Send(got); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < sessions; i++ {
		i := i
		payload := bytes.Repeat([]byte{byte('A' + i)}, 2000)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				got, err := clients[i].Recv(20 * time.Second)
				if err != nil {
					errs <- fmt.Errorf("session %d echo %d: %w", i, j, err)
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("session %d: echo corrupted", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	var resent int64
	for i := range servers {
		resent += servers[i].Stats().DataResent
	}
	if resent == 0 {
		t.Fatal("10% loss across 4 demuxed sessions produced zero wheel-driven retransmissions")
	}
}
