package netsim

import (
	"errors"
	"net"
	"testing"
	"time"
)

// pairLink is one direction of a NewPair under test.
type pairLink struct {
	tx, rx net.PacketConn
	port   *HubPort // the pair's fault injector and counters
	up     bool     // tx is the port
}

func (l pairLink) write(t *testing.T, b []byte) {
	t.Helper()
	if _, err := l.tx.WriteTo(b, l.rx.LocalAddr()); err != nil {
		t.Fatal(err)
	}
}

// read is rx.ReadFrom under a deadline d from now.
func (l pairLink) read(d time.Duration) (string, net.Addr, error) {
	_ = l.rx.SetReadDeadline(time.Now().Add(d))
	buf := make([]byte, 2048)
	n, from, err := l.rx.ReadFrom(buf)
	return string(buf[:n]), from, err
}

// drops returns this direction's shaper counters.
func (l pairLink) drops() (loss, tail int64) {
	st := l.port.Stats()
	if l.up {
		return st.UpLoss, st.UpTail
	}
	return st.DownLoss, st.DownTail
}

// TestPairConformance pins the emulator's contract once, against both
// directions of a NewPair: everything above it — transport, core,
// fleet, public API — is tested over this one network.
func TestPairConformance(t *testing.T) {
	cases := []struct {
		name string
		cfg  LinkConfig
		run  func(t *testing.T, l pairLink)
	}{
		{"delay", LinkConfig{Delay: 20 * time.Millisecond}, func(t *testing.T, l pairLink) {
			start := time.Now()
			l.write(t, []byte("ping"))
			got, from, err := l.read(time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if got != "ping" || from.String() != l.tx.LocalAddr().String() {
				t.Fatalf("got %q from %v", got, from)
			}
			if lat := time.Since(start); lat < 20*time.Millisecond {
				t.Fatalf("delivered after %v, before the 20ms propagation delay", lat)
			}
		}},
		{"loss", LinkConfig{Loss: 1.0}, func(t *testing.T, l pairLink) {
			l.write(t, []byte("x"))
			if loss, _ := l.drops(); loss != 1 {
				t.Fatalf("loss drops = %d, want 1", loss)
			}
			if _, _, err := l.read(30 * time.Millisecond); err == nil {
				t.Fatal("dropped datagram was delivered")
			}
		}},
		// 5 KB at 100 KB/s must take ≥50 ms to fully arrive.
		{"bandwidth", LinkConfig{Bandwidth: 100 * 1024, MaxQueue: time.Second}, func(t *testing.T, l pairLink) {
			start := time.Now()
			for i := 0; i < 5; i++ {
				l.write(t, make([]byte, 1024))
			}
			for i := 0; i < 5; i++ {
				if _, _, err := l.read(2 * time.Second); err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
			}
			if lat := time.Since(start); lat < 45*time.Millisecond {
				t.Fatalf("5KB at 100KB/s arrived in %v; serialization not modeled", lat)
			}
		}},
		// A queue capped at 5 ms of 10 KB/s capacity holds ~50 bytes; a
		// burst far beyond that must tail-drop.
		{"tail-drop", LinkConfig{Bandwidth: 10 * 1024, MaxQueue: 5 * time.Millisecond}, func(t *testing.T, l pairLink) {
			for i := 0; i < 50; i++ {
				l.write(t, make([]byte, 512))
			}
			if _, tail := l.drops(); tail == 0 {
				t.Fatal("burst past the queue bound produced no tail drops")
			}
		}},
		{"deadline", LinkConfig{}, func(t *testing.T, l pairLink) {
			_, _, err := l.read(10 * time.Millisecond)
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("deadline error = %v", err)
			}
		}},
		{"close", LinkConfig{Delay: 2 * time.Millisecond}, func(t *testing.T, l pairLink) {
			blocked := make(chan error, 1)
			go func() {
				_, _, err := l.rx.ReadFrom(make([]byte, 4))
				blocked <- err
			}()
			l.write(t, []byte("late")) // still in flight when rx closes
			if err := l.rx.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-blocked:
				if !errors.Is(err, errLinkClosed) {
					t.Fatalf("blocked read returned %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Close did not unblock ReadFrom")
			}
			if _, err := l.rx.WriteTo([]byte("x"), l.tx.LocalAddr()); !errors.Is(err, errLinkClosed) {
				t.Fatalf("write after close = %v", err)
			}
			if _, _, err := l.rx.ReadFrom(make([]byte, 4)); !errors.Is(err, errLinkClosed) {
				t.Fatalf("read after close = %v", err)
			}
			// Close is idempotent, and the in-flight delivery landing on
			// the closed end must not panic.
			if err := l.rx.Close(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond)
		}},
		{"blackhole", LinkConfig{}, func(t *testing.T, l pairLink) {
			l.port.Blackhole()
			for i := 0; i < 3; i++ {
				l.write(t, []byte("x")) // a crash is silent: no error
			}
			if got := l.port.Stats().Blackhole; got != 3 {
				t.Fatalf("blackhole drops = %d, want 3", got)
			}
			if _, _, err := l.read(30 * time.Millisecond); err == nil {
				t.Fatal("blackholed datagram was delivered")
			}
			l.port.Restore()
			l.write(t, []byte("alive"))
			if got, _, err := l.read(time.Second); err != nil || got != "alive" {
				t.Fatalf("post-restore read = %q, %v", got, err)
			}
		}},
	}
	for _, dir := range []string{"hub-to-port", "port-to-hub"} {
		for _, c := range cases {
			t.Run(dir+"/"+c.name, func(t *testing.T) {
				h, p := NewPair(c.cfg, 1)
				defer h.Close()
				l := pairLink{tx: h, rx: p, port: p}
				if dir == "port-to-hub" {
					l = pairLink{tx: p, rx: h, port: p, up: true}
				}
				c.run(t, l)
			})
		}
	}
}

// TestHubStaleCloseKeepsSuccessor is the regression test for Close
// detaching by name: a port closed twice (rudp.Conn.Close closes its
// socket and tests defer a second Close) must not evict a live port
// that re-attached under the same name in between.
func TestHubStaleCloseKeepsSuccessor(t *testing.T) {
	hub := NewHub("")
	defer hub.Close()
	p1, err := hub.Attach("x", LinkConfig{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = p1.Close()
	p2, err := hub.Attach("x", LinkConfig{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = p1.Close()

	if _, err := hub.WriteTo([]byte("hello"), p2.Addr()); err != nil {
		t.Fatal(err)
	}
	_ = p2.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if n, _, err := p2.ReadFrom(buf); err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("reconnected port read = %q, %v (detached drops %d)", buf[:n], err, hub.Stats().Detached)
	}
}

// TestHubRoutesByPort checks the demux-critical property: uplink
// datagrams surface at the hub carrying their port's unique source
// address, and hub writes route to exactly the addressed port.
func TestHubRoutesByPort(t *testing.T) {
	hub := NewHub("")
	defer hub.Close()
	a, err := hub.Attach("client-a", LinkConfig{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hub.Attach("client-b", LinkConfig{}, 2)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := a.WriteTo([]byte("from-a"), hub.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo([]byte("from-b"), hub.Addr()); err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	buf := make([]byte, 64)
	_ = hub.SetReadDeadline(time.Now().Add(2 * time.Second))
	for i := 0; i < 2; i++ {
		n, from, err := hub.ReadFrom(buf)
		if err != nil {
			t.Fatalf("hub read %d: %v", i, err)
		}
		seen[from.String()] = string(buf[:n])
	}
	if seen["client-a"] != "from-a" || seen["client-b"] != "from-b" {
		t.Fatalf("hub saw %v", seen)
	}

	// Downlink: write to client-b only; client-a must stay silent.
	if _, err := hub.WriteTo([]byte("to-b"), b.Addr()); err != nil {
		t.Fatal(err)
	}
	_ = b.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, from, err := b.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "to-b" || from.String() != "hub" {
		t.Fatalf("b read = %q from %v err %v", buf[:n], from, err)
	}
	_ = a.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, from, err := a.ReadFrom(buf); err == nil {
		t.Fatalf("a unexpectedly read %q from %v", buf[:n], from)
	}
}

// TestHubBlackholeAndDetach checks the crash injectors: a blackholed
// port eats traffic both ways but flows again after Restore, and
// writes to a detached port are counted, not errored.
func TestHubBlackholeAndDetach(t *testing.T) {
	hub := NewHub("")
	defer hub.Close()
	p, err := hub.Attach("victim", LinkConfig{}, 3)
	if err != nil {
		t.Fatal(err)
	}

	p.Blackhole()
	if _, err := p.WriteTo([]byte("up"), hub.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.WriteTo([]byte("down"), p.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Blackhole; got != 2 {
		t.Fatalf("blackhole drops = %d, want 2", got)
	}
	buf := make([]byte, 64)
	_ = hub.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := hub.ReadFrom(buf); err == nil {
		t.Fatal("blackholed uplink datagram arrived")
	}

	p.Restore()
	if _, err := p.WriteTo([]byte("alive"), hub.Addr()); err != nil {
		t.Fatal(err)
	}
	_ = hub.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, _, err := hub.ReadFrom(buf); err != nil || string(buf[:n]) != "alive" {
		t.Fatalf("post-restore read = %q, %v", buf[:n], err)
	}

	hub.Detach("victim")
	if _, err := hub.WriteTo([]byte("ghost"), p.Addr()); err != nil {
		t.Fatalf("write to detached port errored: %v", err)
	}
	if got := hub.Stats().Detached; got != 1 {
		t.Fatalf("detached drops = %d, want 1", got)
	}
	_ = p.Close()

	if _, err := hub.Attach("victim", LinkConfig{}, 4); err != nil {
		t.Fatalf("reattach after close: %v", err)
	}
}

// TestHubAttachValidation covers the attach error cases.
func TestHubAttachValidation(t *testing.T) {
	hub := NewHub("")
	if _, err := hub.Attach("", LinkConfig{}, 1); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := hub.Attach("hub", LinkConfig{}, 1); err == nil {
		t.Error("hub's own name accepted")
	}
	if _, err := hub.Attach("dup", LinkConfig{}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Attach("dup", LinkConfig{}, 2); err == nil {
		t.Error("duplicate name accepted")
	}
	_ = hub.Close()
	if _, err := hub.Attach("late", LinkConfig{}, 1); err == nil {
		t.Error("attach after close accepted")
	}
}

// TestHubShapesPerPort checks each port shapes independently: a lossy
// port drops roughly its configured fraction while a clean port loses
// nothing.
func TestHubShapesPerPort(t *testing.T) {
	hub := NewHub("")
	defer hub.Close()
	clean, err := hub.Attach("clean", LinkConfig{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := hub.Attach("lossy", LinkConfig{Loss: 0.5}, 6)
	if err != nil {
		t.Fatal(err)
	}

	const sent = 400
	for i := 0; i < sent; i++ {
		if _, err := clean.WriteTo([]byte{1}, hub.Addr()); err != nil {
			t.Fatal(err)
		}
		if _, err := lossy.WriteTo([]byte{2}, hub.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]int{}
	buf := make([]byte, 16)
	for {
		_ = hub.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		_, from, err := hub.ReadFrom(buf)
		if err != nil {
			break
		}
		got[from.String()]++
	}
	if got["clean"] != sent {
		t.Errorf("clean port delivered %d/%d", got["clean"], sent)
	}
	if got["lossy"] < sent/4 || got["lossy"] > 3*sent/4 {
		t.Errorf("lossy port delivered %d/%d, want ~%d", got["lossy"], sent, sent/2)
	}
	drops := lossy.Stats().UpLoss
	if got["lossy"]+int(drops) != sent {
		t.Errorf("lossy delivered %d + dropped %d != sent %d", got["lossy"], drops, sent)
	}
}

// TestHubCountsReceiveOverflow checks a datagram discarded because
// nobody drains the receiving end's queue is counted, not just lost.
func TestHubCountsReceiveOverflow(t *testing.T) {
	hub, p := NewPair(LinkConfig{}, 7)
	defer hub.Close()
	const extra = 10
	for i := 0; i < cap(p.queue)+extra; i++ {
		if _, err := hub.WriteTo([]byte{1}, p.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().Overflow; got != extra {
		t.Fatalf("port overflow = %d, want %d", got, extra)
	}
	for i := 0; i < cap(hub.queue)+extra; i++ {
		if _, err := p.WriteTo([]byte{1}, hub.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if got := hub.Stats().Overflow; got != extra {
		t.Fatalf("hub overflow = %d, want %d", got, extra)
	}
}
