// Package batchio amortizes the per-datagram syscall cost of UDP
// sends: on linux it moves whole batches of datagrams through one
// sendmmsg call (via the stdlib syscall package — no new dependencies),
// and everywhere else it degrades to the plain one-WriteTo-per-datagram
// loop with identical delivery semantics. No product path uses it: the
// fleet writes each datagram straight to its socket, because batching
// never moved an end-to-end number (DESIGN.md §16). The benchmark's
// per-layer send cost is its only caller.
//
// Sender reports datagram and syscall counts, so a caller can observe
// the achieved coalescing (datagrams per syscall) directly.
package batchio

import (
	"errors"
	"net"
	"sync/atomic"
)

// errNoFastPath is the fast path's "this I can't express" signal: the
// portable loop takes over from wherever the batch stopped.
var errNoFastPath = errors.New("batchio: fast path unavailable")

// MaxBatch is the largest number of datagrams one batched syscall
// moves; larger Send batches are chunked transparently.
const MaxBatch = 64

// Datagram pairs one packet payload with its peer address.
type Datagram struct {
	Buf  []byte
	Addr net.Addr
}

// Stats counts datagrams moved and syscalls consumed moving them. On
// the portable fallback path the two advance in lockstep; on the linux
// fast path Syscalls lags Datagrams by the achieved batching factor.
type Stats struct {
	Datagrams int64
	Syscalls  int64
}

// Sender writes batches of datagrams to a PacketConn, coalescing each
// batch into as few syscalls as the platform allows.
type Sender struct {
	pc   net.PacketConn
	fast *mmsgIO

	datagrams atomic.Int64
	syscalls  atomic.Int64
}

// NewSender builds a sender over pc. The linux sendmmsg fast path
// engages when pc is a real *net.UDPConn; any other conn (netsim hubs,
// in-memory pairs) uses the portable loop.
func NewSender(pc net.PacketConn) *Sender {
	return &Sender{pc: pc, fast: newMmsgIO(pc)}
}

// FastPath reports whether batched syscalls are in use.
func (s *Sender) FastPath() bool { return s.fast != nil }

// Stats returns cumulative datagram/syscall counts.
func (s *Sender) Stats() Stats {
	return Stats{Datagrams: s.datagrams.Load(), Syscalls: s.syscalls.Load()}
}

// Send writes every datagram in batch, in order, and returns how many
// landed. A fast-path error (unsupported address type, torn-down
// socket) falls back to the portable loop for the remainder, so partial
// delivery happens only when the socket itself is failing.
func (s *Sender) Send(batch []Datagram) (int, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	sent := 0
	if s.fast != nil {
		n, sys, err := s.fast.send(batch)
		s.datagrams.Add(int64(n))
		s.syscalls.Add(int64(sys))
		sent = n
		if err == nil {
			return sent, nil
		}
		if err == errNoFastPath {
			// Address shapes this socket can't take the fast way;
			// don't retry per batch.
			s.fast = nil
		}
	}
	for _, d := range batch[sent:] {
		if _, err := s.pc.WriteTo(d.Buf, d.Addr); err != nil {
			return sent, err
		}
		sent++
		s.datagrams.Add(1)
		s.syscalls.Add(1)
	}
	return sent, nil
}
