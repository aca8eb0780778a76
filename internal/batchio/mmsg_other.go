//go:build !linux || !(amd64 || arm64)

package batchio

import "net"

// mmsgIO is absent on platforms without sendmmsg wiring; newMmsgIO
// returning nil routes everything through the portable WriteTo loop.
type mmsgIO struct{}

func newMmsgIO(net.PacketConn) *mmsgIO { return nil }

func (*mmsgIO) send([]Datagram) (int, int, error) { return 0, 0, errNoFastPath }
