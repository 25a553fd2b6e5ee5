//go:build linux

package io

import (
	"fmt"
	"sync/atomic"
	"syscall"
	"unsafe"
)

const (
	udpSlots   = 32                 // datagrams one recvmmsg reads
	udpSlotLen = DefaultSnapLen + 1 // room for the largest UDP payload
	// udpReadBuffer is the SO_RCVBUF asked for. Doubled by the kernel
	// (capped at net.core.rmem_max) to 1 MiB, at ~830 bytes per 64-byte
	// datagram it queues more than the portable ring's 1 024 frames.
	udpReadBuffer = 1 << 19
)

// udpRx is the Linux receive path, with no goroutine and no channel:
// one non-blocking recvmmsg fills up to udpSlots slots, which Recv hands
// out one per frame. The slots are an anonymous mapping, so only the
// pages datagrams touch are resident.
type udpRx struct {
	raw   syscall.RawConn
	read  func(fd uintptr) bool // the recvmmsg, bound once so Recv allocates nothing
	slots []byte                // udpSlots × udpSlotLen; nil once closed
	msgs  [udpSlots]struct {    // struct mmsghdr
		hdr syscall.Msghdr
		len uint32
	}
	iovs [udpSlots]syscall.Iovec
	// SO_RXQ_OVFL, the one control message on: drops when it was queued
	ctrl [udpSlots]struct {
		syscall.Cmsghdr
		drops uint32
	}
	got, next int // slots the last recvmmsg filled; the next to hand out
	errno     syscall.Errno
}

// openRx sizes the kernel queue, turns on drop reporting, maps slots.
func (u *UDP) openRx() (err error) {
	if err = u.conn.SetReadBuffer(udpReadBuffer); err != nil {
		return err
	}
	if u.raw, err = u.conn.SyscallConn(); err != nil {
		return err
	}
	if cerr := u.raw.Control(func(fd uintptr) {
		err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 1)
	}); cerr != nil {
		return cerr
	}
	if err != nil {
		return fmt.Errorf("SO_RXQ_OVFL: %w", err)
	}
	u.slots, err = syscall.Mmap(-1, 0, udpSlots*udpSlotLen,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
	if err != nil {
		return fmt.Errorf("mapping receive slots: %w", err)
	}
	for i := range u.msgs {
		u.iovs[i].Base = &u.slots[i*udpSlotLen]
		u.iovs[i].SetLen(udpSlotLen)
		h := &u.msgs[i].hdr
		h.Iov, h.Iovlen = &u.iovs[i], 1
		h.Control = (*byte)(unsafe.Pointer(&u.ctrl[i]))
	}
	u.read = func(fd uintptr) bool {
		n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&u.msgs[0])), udpSlots, syscall.MSG_DONTWAIT, 0, 0)
		if u.got, u.errno = int(n), errno; errno != 0 {
			u.got = 0
		}
		return true // never wait for the socket to become readable
	}
	return nil
}

// Recv implements Backend: hand out up to len(buf) datagrams without
// blocking. It reads the socket only at the start of a call that finds
// every slot handed out, so the frames of one call stay valid together.
// The last datagram read carries the socket's drop count as of its
// queueing, so a drop shows once a later datagram is read.
func (u *UDP) Recv(buf [][]byte) (int, error) {
	if u.next == u.got && u.slots != nil {
		u.got, u.next = 0, 0
		for i := range u.msgs {
			u.msgs[i].hdr.SetControllen(int(unsafe.Sizeof(u.ctrl[i])))
		}
		if err := u.raw.Read(u.read); err != nil {
			return 0, err
		}
		if u.errno != 0 && u.errno != syscall.EAGAIN {
			return 0, u.errno
		}
		if last := u.got - 1; last >= 0 && u.msgs[last].hdr.Controllen != 0 {
			atomic.StoreInt64(&u.RxDropped, int64(u.ctrl[last].drops))
		}
	}
	n := 0
	for ; n < len(buf) && u.next < u.got; n++ {
		off := u.next * udpSlotLen
		buf[n] = u.slots[off : off+int(u.msgs[u.next].len) : off+udpSlotLen]
		u.next++
	}
	return n, nil
}

// closeRx unmaps the slots, after which Recv hands out nothing.
func (u *UDP) closeRx() {
	if u.slots != nil {
		_ = syscall.Munmap(u.slots) // fails only for a region not mapped
	}
	u.slots, u.got, u.next = nil, 0, 0
}
