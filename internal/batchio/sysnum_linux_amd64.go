//go:build linux && amd64

package batchio

// The stdlib syscall package's frozen linux/amd64 table predates
// sendmmsg, so its number is spelled out here.
const sysSENDMMSG = 307
