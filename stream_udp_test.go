package gbooster

import (
	"errors"
	"net"
	"testing"
	"time"
)

func TestPlayerOverRealUDPLoopback(t *testing.T) {
	// Probe loopback UDP availability first (sandboxes may deny it).
	probe, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	addr := probe.LocalAddr().String()
	_ = probe.Close()

	const w, h = 96, 64
	srv, err := NewStreamServer(StreamServerConfig{Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	serverErr := make(chan error, 1)
	go func() { serverErr <- srv.ServeUDP(addr) }()
	defer func() { _ = srv.Close() }()
	time.Sleep(100 * time.Millisecond)

	player, err := NewPlayer(PlayerConfig{Workload: "G5", Width: w, Height: h, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = player.Close() }()
	if err := player.Connect(addr); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 8; f++ {
		img, err := player.StepFrame(10 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		if img.Bounds().Dx() != w || img.Bounds().Dy() != h {
			t.Fatalf("bounds %v", img.Bounds())
		}
	}
	snap := player.Snapshot()
	if snap.FramesSent != 8 || snap.FramesShown != 8 || snap.WireBytes == 0 {
		t.Fatalf("stats sent=%d shown=%d wire=%d", snap.FramesSent, snap.FramesShown, snap.WireBytes)
	}
	th := snap.Transports
	if len(th) != 1 {
		t.Fatalf("transport health entries = %d, want 1", len(th))
	}
	if th[0].DataSent == 0 || th[0].WindowLimit == 0 {
		t.Fatalf("transport health not populated: %+v", th[0])
	}
	// Loopback is lossless: the adaptive estimator must have locked on
	// and nothing should have needed a retransmission.
	if th[0].SRTT <= 0 || th[0].RTO <= 0 {
		t.Fatalf("estimator produced no sample: %+v", th[0])
	}
	if th[0].ResendRate != 0 {
		t.Fatalf("lossless loopback resent data: %+v", th[0])
	}
	if st, ok := srv.TransportStats(); !ok || st.DataSent == 0 {
		t.Fatalf("server transport stats = %+v ok=%v", st, ok)
	}
	select {
	case err := <-serverErr:
		t.Fatalf("server exited early: %v", err)
	default:
	}
}

// TestServeUDPIgnoresGarbageFirstDatagram is the regression test for
// the peer-adoption bug: ServeUDP used to lock the session to whatever
// peer sent the first datagram, protocol or not, so a single stray UDP
// packet (port scan, misdirected traffic) bound the session to the
// wrong address and stranded the real client. Now the accept path
// requires the GBooster magic before adopting a peer.
func TestServeUDPIgnoresGarbageFirstDatagram(t *testing.T) {
	probe, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	addr := probe.LocalAddr().String()
	_ = probe.Close()

	const w, h = 96, 64
	srv, err := NewStreamServer(StreamServerConfig{Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	serverErr := make(chan error, 1)
	go func() { serverErr <- srv.ServeUDP(addr) }()
	defer func() { _ = srv.Close() }()
	time.Sleep(100 * time.Millisecond)

	// A non-client lands junk on the listener first: an HTTP-ish probe
	// and a short burst of noise, none carrying the protocol magic.
	scanner, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer scanner.Close()
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, junk := range [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		{0x00},
		{0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8, 0xf7, 0xf6, 0xf5},
	} {
		if _, err := scanner.WriteTo(junk, raddr); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond)

	// The real client connects afterwards and must still get a working
	// session: before the fix the scanner owned the peer slot by now.
	player, err := NewPlayer(PlayerConfig{Workload: "G5", Width: w, Height: h, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = player.Close() }()
	if err := player.Connect(addr); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 4; f++ {
		if _, err := player.StepFrame(10 * time.Second); err != nil {
			t.Fatalf("frame %d after garbage first datagram: %v", f, err)
		}
	}
	select {
	case err := <-serverErr:
		t.Fatalf("server exited early: %v", err)
	default:
	}
}

// TestServeUDPAcceptDeadlineIsTotal is the regression test for the
// deadline accounting bug: rejected non-protocol datagrams must not
// re-arm the accept deadline, so a trickle of junk cannot keep a
// clientless listener alive forever. With a 300ms total budget and junk
// arriving every 100ms, ServeUDP must still give up on time.
func TestServeUDPAcceptDeadlineIsTotal(t *testing.T) {
	probe, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	addr := probe.LocalAddr().String()
	_ = probe.Close()

	srv, err := NewStreamServer(StreamServerConfig{Width: 32, Height: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	srv.acceptTimeout = 300 * time.Millisecond

	serverErr := make(chan error, 1)
	start := time.Now()
	go func() { serverErr <- srv.ServeUDP(addr) }()
	time.Sleep(50 * time.Millisecond)

	scanner, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer scanner.Close()
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Junk arrives faster than the old per-datagram deadline would
	// expire; under per-datagram accounting this loop would keep
	// ServeUDP alive indefinitely.
	stopJunk := make(chan struct{})
	defer close(stopJunk)
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopJunk:
				return
			case <-tick.C:
				_, _ = scanner.WriteTo([]byte("junk"), raddr)
			}
		}
	}()

	select {
	case err := <-serverErr:
		if err == nil {
			t.Fatal("ServeUDP returned nil; junk datagram accepted as client")
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("accept deadline took %v; junk re-armed the timer", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeUDP never timed out: rejected datagrams re-arm the accept deadline")
	}
}

// TestServeUDPCloseBeforeClient is the regression test for the
// listening-socket leak: Close on a server still waiting for its first
// client must close the listener and unblock ServeUDP promptly, not
// leave the socket open until the accept deadline.
func TestServeUDPCloseBeforeClient(t *testing.T) {
	probe, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	addr := probe.LocalAddr().String()
	_ = probe.Close()

	srv, err := NewStreamServer(StreamServerConfig{Width: 32, Height: 32})
	if err != nil {
		t.Fatal(err)
	}
	serverErr := make(chan error, 1)
	go func() { serverErr <- srv.ServeUDP(addr) }()
	time.Sleep(100 * time.Millisecond) // let ServeUDP bind and block
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-serverErr:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("ServeUDP after Close = %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeUDP still blocked after Close")
	}
	// The port is actually released.
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		t.Fatalf("rebind after Close: %v", err)
	}
	_ = pc.Close()
}
