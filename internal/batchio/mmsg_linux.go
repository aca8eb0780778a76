//go:build linux && (amd64 || arm64)

package batchio

import (
	"net"
	"sync"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors struct mmsghdr from <sys/socket.h>: a Msghdr plus the
// kernel-filled transfer length, padded to keep the array stride right
// on 64-bit.
type mmsghdr struct {
	hdr    syscall.Msghdr
	msgLen uint32
	_      [4]byte
}

// emptyByte anchors zero-length iovecs: the kernel wants a non-nil base
// even for empty datagrams.
var emptyByte byte

// mmsgIO is the batched-send state: the raw fd hook plus reusable
// header/iovec/sockaddr arrays so steady-state batches build without
// allocating. The mutex serializes scratch reuse; callers that
// want parallel syscalls should use separate Senders.
type mmsgIO struct {
	mu  sync.Mutex
	rc  syscall.RawConn
	ip6 bool

	hdrs  [MaxBatch]mmsghdr
	iovs  [MaxBatch]syscall.Iovec
	names [MaxBatch]syscall.RawSockaddrInet6
}

// newMmsgIO hooks pc's raw fd when it is a real UDP socket; anything
// else (netsim hubs, in-memory pipes) gets nil and the portable loop.
func newMmsgIO(pc net.PacketConn) *mmsgIO {
	uc, ok := pc.(*net.UDPConn)
	if !ok {
		return nil
	}
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil
	}
	la, ok := uc.LocalAddr().(*net.UDPAddr)
	if !ok {
		return nil
	}
	return &mmsgIO{rc: rc, ip6: la.IP.To4() == nil}
}

// putSockaddr encodes ua into slot i's name buffer in the socket's own
// family, returning the sockaddr length (0 when the address can't be
// expressed, e.g. a v6 peer on a v4 socket).
func (m *mmsgIO) putSockaddr(i int, ua *net.UDPAddr) uint32 {
	if m.ip6 {
		ip := ua.IP.To16()
		if ip == nil {
			return 0
		}
		sa := &m.names[i]
		*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(ua.Port>>8), byte(ua.Port)
		copy(sa.Addr[:], ip)
		return syscall.SizeofSockaddrInet6
	}
	ip := ua.IP.To4()
	if ip == nil {
		return 0
	}
	sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&m.names[i]))
	*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	p[0], p[1] = byte(ua.Port>>8), byte(ua.Port)
	copy(sa.Addr[:], ip)
	return syscall.SizeofSockaddrInet4
}

// send pushes batch through sendmmsg, chunking at MaxBatch, and returns
// datagrams sent and syscalls spent. errNoFastPath means an address the
// raw path can't encode; the caller's portable loop picks up from the
// returned count.
func (m *mmsgIO) send(batch []Datagram) (int, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sent, syscalls := 0, 0
	for sent < len(batch) {
		k := len(batch) - sent
		if k > MaxBatch {
			k = MaxBatch
		}
		for i := 0; i < k; i++ {
			d := batch[sent+i]
			ua, ok := d.Addr.(*net.UDPAddr)
			if !ok {
				return sent, syscalls, errNoFastPath
			}
			nameLen := m.putSockaddr(i, ua)
			if nameLen == 0 {
				return sent, syscalls, errNoFastPath
			}
			iov := &m.iovs[i]
			if len(d.Buf) > 0 {
				iov.Base = &d.Buf[0]
			} else {
				iov.Base = &emptyByte
			}
			iov.Len = uint64(len(d.Buf))
			h := &m.hdrs[i]
			h.hdr = syscall.Msghdr{
				Name:    (*byte)(unsafe.Pointer(&m.names[i])),
				Namelen: nameLen,
				Iov:     iov,
				Iovlen:  1,
			}
			h.msgLen = 0
		}
		done := 0
		var sysErr error
		werr := m.rc.Write(func(fd uintptr) bool {
			for done < k {
				r, _, e := syscall.Syscall6(sysSENDMMSG, fd,
					uintptr(unsafe.Pointer(&m.hdrs[done])), uintptr(k-done), 0, 0, 0)
				syscalls++
				switch e {
				case 0:
					done += int(r)
				case syscall.EINTR:
					continue
				case syscall.EAGAIN:
					return false // park on the netpoller until writable
				default:
					sysErr = e
					return true
				}
			}
			return true
		})
		sent += done
		if sysErr != nil {
			return sent, syscalls, sysErr
		}
		if werr != nil {
			return sent, syscalls, werr
		}
	}
	return sent, syscalls, nil
}
