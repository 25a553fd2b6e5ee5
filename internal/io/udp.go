package io

import (
	"fmt"
	"net"
	"sync/atomic"
)

// UDP is a Backend that carries frames as UDP payloads: the device
// binds a local socket, received datagrams become received frames, and
// sent frames are datagrams addressed to a fixed peer. Two routers in
// separate processes (or one process, or a router and a test harness)
// exchange real packets over localhost with no privileges.
//
// Recv never blocks the router's task loop. On Linux the loop itself
// polls the socket (udp_linux.go); elsewhere a goroutine reads it
// (udp_other.go).
type UDP struct {
	localSpec string
	peerSpec  string

	conn *net.UDPConn
	peer *net.UDPAddr
	udpRx

	// RxDropped counts datagrams lost unread (on Linux, the kernel's
	// 32-bit count); PeerLess counts frames sent with no peer set.
	RxDropped int64
	PeerLess  int64
}

// NewUDP creates a UDP backend bound to the local address (host:port;
// an empty host binds loopback-reachable wildcard, port 0 picks a free
// port) sending to peer (empty for a receive-only device).
func NewUDP(local, peer string) *UDP {
	return &UDP{localSpec: local, peerSpec: peer}
}

// Open implements Backend: binds the socket and readies receiving.
func (u *UDP) Open() error {
	laddr, err := net.ResolveUDPAddr("udp", u.localSpec)
	if err != nil {
		return fmt.Errorf("udp backend: local %q: %w", u.localSpec, err)
	}
	if u.peerSpec != "" {
		u.peer, err = net.ResolveUDPAddr("udp", u.peerSpec)
		if err != nil {
			return fmt.Errorf("udp backend: peer %q: %w", u.peerSpec, err)
		}
	}
	u.conn, err = net.ListenUDP("udp", laddr)
	if err != nil {
		return fmt.Errorf("udp backend: %w", err)
	}
	if err := u.openRx(); err != nil {
		u.conn.Close()
		return fmt.Errorf("udp backend: %w", err)
	}
	return nil
}

// LocalAddr returns the bound address (useful with port 0). Only valid
// after Open.
func (u *UDP) LocalAddr() net.Addr { return u.conn.LocalAddr() }

// SetPeer (re)targets the send side; it must be called before the
// router runs. It lets loopback rigs bind every socket on port 0
// first, then point the devices at each other.
func (u *UDP) SetPeer(peer string) error {
	addr, err := net.ResolveUDPAddr("udp", peer)
	if err != nil {
		return fmt.Errorf("udp backend: peer %q: %w", peer, err)
	}
	u.peer = addr
	return nil
}

// Send implements Backend: each frame becomes one datagram to the
// peer.
func (u *UDP) Send(frames [][]byte) (int, error) {
	if u.peer == nil {
		atomic.AddInt64(&u.PeerLess, int64(len(frames)))
		return len(frames), nil
	}
	for i, f := range frames {
		if _, err := u.conn.WriteToUDP(f, u.peer); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}

// Close implements Backend: closes the socket and releases the receive
// path, invalidating the frames Recv returned.
func (u *UDP) Close() error {
	var err error
	if u.conn != nil {
		err = u.conn.Close()
		u.closeRx()
	}
	return err
}
