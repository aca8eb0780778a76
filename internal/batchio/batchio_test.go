package batchio

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// plainPC hides the concrete *net.UDPConn behind a plain PacketConn so
// the type assertion in newMmsgIO fails and the portable loop runs —
// the same socket, minus the batched syscalls.
type plainPC struct{ net.PacketConn }

func udpPair(t *testing.T) (send, recv *net.UDPConn) {
	t.Helper()
	loop := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	recv, err := net.ListenUDP("udp", loop)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	recv.SetReadBuffer(4 << 20) // best effort; rmem_max may cap it
	send, err = net.ListenUDP("udp", loop)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { send.Close() })
	return send, recv
}

// collectFrom drains n datagrams from recv on a goroutine started
// before the send burst, so a full batch can't overflow the socket's
// receive buffer while nobody is reading.
func collectFrom(recv *net.UDPConn, n int) <-chan [][]byte {
	out := make(chan [][]byte, 1)
	go func() {
		recv.SetReadDeadline(time.Now().Add(5 * time.Second))
		var got [][]byte
		buf := make([]byte, 2048)
		for len(got) < n {
			k, _, err := recv.ReadFrom(buf)
			if err != nil {
				break
			}
			got = append(got, append([]byte(nil), buf[:k]...))
		}
		out <- got
	}()
	return out
}

// testBatch builds n deterministic datagrams of varied sizes (1..1200
// bytes) addressed to dst, so both send paths can be checked against
// one expected byte sequence.
func testBatch(n int, dst net.Addr) []Datagram {
	batch := make([]Datagram, n)
	for i := range batch {
		size := 1 + (i*37)%1200
		buf := make([]byte, size)
		for j := range buf {
			buf[j] = byte(i + j)
		}
		buf[0] = byte(i) // sequence marker for ordering checks
		batch[i] = Datagram{Buf: buf, Addr: dst}
	}
	return batch
}

// TestSendParityFastVsFallback sends the identical datagram sequence
// through the batched fast path and through the portable loop and
// requires byte-identical, in-order delivery from both — the batching
// must be invisible on the wire.
func TestSendParityFastVsFallback(t *testing.T) {
	for _, mode := range []string{"fast", "fallback"} {
		t.Run(mode, func(t *testing.T) {
			send, recv := udpPair(t)
			var s *Sender
			if mode == "fast" {
				s = NewSender(send)
			} else {
				s = NewSender(plainPC{send})
				if s.FastPath() {
					t.Fatal("wrapped conn must not engage the fast path")
				}
			}

			batch := testBatch(128, recv.LocalAddr())
			done := collectFrom(recv, len(batch))
			n, err := s.Send(batch)
			if err != nil {
				t.Fatalf("send: %v", err)
			}
			if n != len(batch) {
				t.Fatalf("sent %d of %d datagrams", n, len(batch))
			}

			got := <-done
			if len(got) != len(batch) {
				t.Fatalf("received %d of %d datagrams", len(got), len(batch))
			}
			for i, want := range batch {
				if !bytes.Equal(got[i], want.Buf) {
					t.Fatalf("datagram %d: wire bytes differ from sent (%d vs %d bytes, marker %d vs %d)",
						i, len(got[i]), len(want.Buf), got[i][0], want.Buf[0])
				}
			}

			st := s.Stats()
			if st.Datagrams != int64(len(batch)) {
				t.Fatalf("Datagrams = %d, want %d", st.Datagrams, len(batch))
			}
			switch {
			case mode == "fallback" && st.Syscalls != st.Datagrams:
				t.Errorf("portable loop: %d syscalls for %d datagrams, want 1:1", st.Syscalls, st.Datagrams)
			case mode == "fast" && s.FastPath() && st.Syscalls*4 > st.Datagrams:
				t.Errorf("fast path: %d syscalls for %d datagrams, want >=4x coalescing", st.Syscalls, st.Datagrams)
			}
		})
	}
}

// TestSendEmptyAndChunking covers the edges: empty batches are free,
// and batches beyond MaxBatch land complete and in order.
func TestSendEmptyAndChunking(t *testing.T) {
	send, recv := udpPair(t)
	s := NewSender(send)
	if n, err := s.Send(nil); n != 0 || err != nil {
		t.Fatalf("empty Send = %d, %v", n, err)
	}

	batch := testBatch(150, recv.LocalAddr()) // > 2*MaxBatch on linux
	done := collectFrom(recv, len(batch))
	n, err := s.Send(batch)
	if err != nil || n != len(batch) {
		t.Fatalf("Send = %d, %v; want %d, nil", n, err, len(batch))
	}
	got := <-done
	if len(got) != len(batch) {
		t.Fatalf("received %d of %d datagrams", len(got), len(batch))
	}
	for i, want := range batch {
		if !bytes.Equal(got[i], want.Buf) {
			t.Fatalf("datagram %d: bytes differ", i)
		}
	}
}

// BenchmarkSend measures raw syscall amortization for the two paths.
func BenchmarkSend(b *testing.B) {
	loop := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	send, err := net.ListenUDP("udp", loop)
	if err != nil {
		b.Fatal(err)
	}
	defer send.Close()
	recv, err := net.ListenUDP("udp", loop)
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	go func() { // drain so the receive buffer never pushes back
		buf := make([]byte, 2048)
		for {
			if _, _, err := recv.ReadFrom(buf); err != nil {
				return
			}
		}
	}()

	for _, mode := range []string{"fast", "fallback"} {
		b.Run(mode, func(b *testing.B) {
			var s *Sender
			if mode == "fast" {
				s = NewSender(send)
			} else {
				s = NewSender(plainPC{send})
			}
			batch := testBatch(64, recv.LocalAddr())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Send(batch); err != nil {
					b.Fatal(err)
				}
			}
			st := s.Stats()
			if st.Syscalls > 0 {
				b.ReportMetric(float64(st.Datagrams)/float64(st.Syscalls), "datagrams/syscall")
			}
		})
	}
}
