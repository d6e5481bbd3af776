//go:build !(linux && (amd64 || arm64))

package udptime

import "net"

// newBatchConn is the platform's batch backend; without recvmmsg and
// sendmmsg that is the per-packet one.
func newBatchConn(conn *net.UDPConn, size int, connected bool) (batchIO, error) {
	return newPacketConn(conn, size, connected)
}
