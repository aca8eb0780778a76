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

	wg sync.WaitGroup
}

func newDemux(pc net.PacketConn) *demux {
	d := &demux{pc: pc, conns: make(map[string]*Conn)}
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
		n, from, err := d.pc.ReadFrom(buf)
		if err != nil {
			return // close() closed the socket
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
	w := NewWheel(8)
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
	// only the shared wheel can resend it on the demuxed side.
	hub, leaf := netsim.NewPair(netsim.LinkConfig{Loss: 0.25}, 1234)

	w := NewWheel(64)
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
	w := NewWheel(256)
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

func TestNewConnsReleaseGoroutinesOnClose(t *testing.T) {
	// A New conn runs two goroutines — readLoop blocked in ReadFrom and
	// its private wheel's ticker — and Close must end both: the socket
	// close unblocks the read, the wheel close stops the tick.
	hub, leaves := newStar(t, 16, netsim.LinkConfig{}, 9)
	defer hub.Close()

	runtime.GC()
	before := runtime.NumGoroutine()
	conns := make([]*Conn, len(leaves))
	for i, l := range leaves {
		conns[i] = New(l, hub.Addr(), DefaultOptions())
	}
	if grew := runtime.NumGoroutine() - before; grew < 2*len(conns) {
		t.Fatalf("%d New conns grew goroutines by %d; want 2 each", len(conns), grew)
	}
	for _, c := range conns {
		_ = c.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d after closing %d New conns; baseline %d",
				runtime.NumGoroutine(), len(conns), before)
		}
		time.Sleep(5 * time.Millisecond)
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
	w := NewWheel(256)
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

// TestWheelNextTickAndCatchUp drives a goroutine-free 8-slot wheel on a
// virtual clock: the tick its goroutine would sleep until is the
// earliest occupied one, also when that lies more than a revolution
// ahead, and one advance over many revolutions fires each due entry
// exactly once and leaves later ones scheduled.
func TestWheelNextTickAndCatchUp(t *testing.T) {
	clock := &vclock{t: time.Unix(1_000_000, 0)}
	w := newWheel(8, clock.now)
	link := newVlink(clock, time.Millisecond, 0, 1)
	conns := make([]*Conn, 3)
	for i := range conns {
		conns[i] = NewDemuxed(&vend{link, 0}, vaddr("b"), DefaultOptions(), w)
		defer conns[i].Close()
	}
	next := func() int64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.nextLocked()
	}
	if got := next(); got != noTick {
		t.Fatalf("empty wheel: next tick %d, want none", got)
	}
	// Idle conns have no timer armed: timerCheck drops them on firing.
	w.schedule(conns[0], clock.t.Add(30*wheelTick)) // 3+ revolutions out
	w.schedule(conns[1], clock.t.Add(100*wheelTick))
	if got, want := next(), w.tickIndex(clock.t.Add(30*wheelTick))+1; got != want {
		t.Fatalf("next tick %d, want %d (an entry beyond one revolution)", got, want)
	}
	w.schedule(conns[2], clock.t.Add(2*wheelTick))
	if got, want := next(), w.tickIndex(clock.t.Add(2*wheelTick))+1; got != want {
		t.Fatalf("next tick %d, want %d", got, want)
	}

	clock.t = clock.t.Add(50 * wheelTick)
	w.advance(clock.t)
	w.mu.Lock()
	_, left := w.sched[conns[1]]
	w.mu.Unlock()
	if w.Len() != 1 || !left {
		t.Fatalf("after 50 ticks: %d scheduled (want only the 100-tick conn)", w.Len())
	}
	if got, want := next(), w.tickIndex(time.Unix(1_000_000, 0).Add(100*wheelTick))+1; got != want {
		t.Fatalf("next tick %d, want %d", got, want)
	}
	clock.t = clock.t.Add(51 * wheelTick)
	w.advance(clock.t)
	if w.Len() != 0 {
		t.Fatalf("after 101 ticks: %d still scheduled", w.Len())
	}
}
