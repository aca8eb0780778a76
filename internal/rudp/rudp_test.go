package rudp

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/gbooster/gbooster/internal/netsim"
)

// pair builds two connected Conns over the in-memory network: a on the
// port (its Close leaves b open and silent), b on the hub.
func pair(t *testing.T, loss float64) (*Conn, *Conn) {
	t.Helper()
	pcB, pcA := netsim.NewPair(netsim.LinkConfig{Loss: loss}, 99)
	opts := DefaultOptions()
	opts.RTO = 10 * time.Millisecond
	a := New(pcA, pcB.Addr(), opts)
	b := New(pcB, pcA.Addr(), opts)
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

func TestSendRecvLossless(t *testing.T) {
	a, b := pair(t, 0)
	want := []byte("hello gbooster")
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestManyMessagesInOrder(t *testing.T) {
	a, b := pair(t, 0)
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send([]byte(fmt.Sprintf("msg-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := b.Recv(2 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if want := fmt.Sprintf("msg-%04d", i); string(got) != want {
			t.Fatalf("message %d = %q, want %q (ordering broken)", i, got, want)
		}
	}
}

func TestLargeMessageFragmentation(t *testing.T) {
	a, b := pair(t, 0)
	big := make([]byte, 300_000) // ~250 datagrams at 1200 B
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := a.Send(big); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large message corrupted")
	}
	if st := a.Stats(); st.DataSent < 200 {
		t.Fatalf("expected fragmentation, sent %d datagrams", st.DataSent)
	}
}

func TestReliabilityUnderLoss(t *testing.T) {
	a, b := pair(t, 0.15)
	const n = 60
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			got, err := b.Recv(10 * time.Second)
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
		if err := a.Send([]byte(fmt.Sprintf("frame-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.DataResent == 0 {
		t.Fatal("15% loss produced zero retransmissions")
	}
}

func TestBidirectional(t *testing.T) {
	a, b := pair(t, 0.05)
	errs := make(chan error, 2)
	go func() {
		for i := 0; i < 30; i++ {
			if err := a.Send([]byte(fmt.Sprintf("a->b %d", i))); err != nil {
				errs <- err
				return
			}
			if _, err := a.Recv(5 * time.Second); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	go func() {
		for i := 0; i < 30; i++ {
			if _, err := b.Recv(5 * time.Second); err != nil {
				errs <- err
				return
			}
			if err := b.Send([]byte(fmt.Sprintf("b->a %d", i))); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecvTimeout(t *testing.T) {
	_, b := pair(t, 0)
	start := time.Now()
	_, err := b.Recv(30 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("timeout error = %v", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("returned before timeout")
	}
}

func TestSendAfterClose(t *testing.T) {
	a, b := pair(t, 0)
	_ = a.Close()
	if err := a.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close error = %v", err)
	}
	if _, err := b.Recv(50 * time.Millisecond); err == nil {
		t.Fatal("recv should not succeed with nothing sent")
	}
	// Close is idempotent.
	if err := a.Close(); err != nil {
		t.Fatalf("double close error = %v", err)
	}
}

func TestMessageTooLarge(t *testing.T) {
	pcB, pcA := netsim.NewPair(netsim.LinkConfig{}, 1)
	opts := DefaultOptions()
	opts.MaxMessage = 10
	a := New(pcA, pcB.Addr(), opts)
	defer a.Close()
	defer pcB.Close()
	if err := a.Send(make([]byte, 11)); !errors.Is(err, ErrMsgTooLarge) {
		t.Fatalf("oversize error = %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	a, b := pair(t, 0)
	if err := a.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(time.Second); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.MsgsSent != 1 || sa.DataSent == 0 || sa.BytesSent == 0 {
		t.Fatalf("sender stats %+v", sa)
	}
	if sb.MsgsRecv != 1 || sb.AcksSent == 0 {
		t.Fatalf("receiver stats %+v", sb)
	}
}

func TestOverRealUDPLoopback(t *testing.T) {
	pcA, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	pcB, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	a := New(pcA, pcB.LocalAddr(), DefaultOptions())
	b := New(pcB, pcA.LocalAddr(), DefaultOptions())
	defer a.Close()
	defer b.Close()
	payload := bytes.Repeat([]byte("gl"), 5000)
	if err := a.Send(payload); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted over real UDP")
	}
}

func TestReliabilityUnderReordering(t *testing.T) {
	// Jitter far above the back-to-back send gap: each datagram's
	// delivery timer fires independently, so they overtake each other.
	pcB, pcA := netsim.NewPair(netsim.LinkConfig{JitterStd: time.Millisecond}, 77)
	opts := DefaultOptions()
	opts.RTO = 10 * time.Millisecond
	a := New(pcA, pcB.Addr(), opts)
	b := New(pcB, pcA.Addr(), opts)
	defer a.Close()
	defer b.Close()
	const n = 80
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			got, err := b.Recv(10 * time.Second)
			if err != nil {
				done <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			if want := fmt.Sprintf("msg-%03d", i); string(got) != want {
				done <- fmt.Errorf("message %d = %q, want %q", i, got, want)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		if err := a.Send([]byte(fmt.Sprintf("msg-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.OutOfOrder == 0 {
		t.Fatal("reordering injection never produced out-of-order datagrams")
	}
}

func TestReliabilityUnderLossAndReordering(t *testing.T) {
	pcB, pcA := netsim.NewPair(netsim.LinkConfig{Loss: 0.08, JitterStd: time.Millisecond}, 78)
	opts := DefaultOptions()
	opts.RTO = 10 * time.Millisecond
	a := New(pcA, pcB.Addr(), opts)
	b := New(pcB, pcA.Addr(), opts)
	defer a.Close()
	defer b.Close()
	payload := bytes.Repeat([]byte("frame"), 3000) // fragments across ~13 datagrams
	const n = 15
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			got, err := b.Recv(15 * time.Second)
			if err != nil {
				done <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			if !bytes.Equal(got, payload) {
				done <- fmt.Errorf("message %d corrupted (%d bytes)", i, len(got))
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		if err := a.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
