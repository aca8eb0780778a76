//go:build linux && arm64

package batchio

// asm-generic syscall number: the stdlib syscall package's frozen
// linux/arm64 table does not carry sendmmsg, so it is spelled out here.
const sysSENDMMSG = 269
