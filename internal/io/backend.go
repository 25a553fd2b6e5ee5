// Package io is the dataplane driver layer: pluggable packet I/O
// backends that move batches of raw link-layer frames between a device
// element (PollDevice/FromDevice/ToDevice) and the outside world. It is
// the user-level half of Click's kernel/user driver split — the same
// element graph that runs against simulated NICs in netsim forwards
// real packets when its devices bind a Backend instead.
//
// Two backends ship with the driver:
//
//   - UDP: each configured device binds a local UDP socket; frames
//     travel as UDP payloads, so two routers (or a router and a test
//     harness) exchange real packets over localhost with no privileges.
//   - Pcap: file replay in and capture out, over a pure-Go pcap/pcapng
//     codec with no cgo or libpcap dependency, which turns any captured
//     trace into a reproducible workload and any run into a committed
//     golden capture.
//
// Backends live entirely outside the simcpu cost model: a router built
// without a CPU charges no model cycles, so Figure 8/9 calibration is
// untouched no matter which backend carries the packets.
package io

// Backend moves batches of raw link-layer frames for one device. The
// scalar and batched device elements drive it through the Device
// adapter, which translates frames to and from packet.Packet.
//
// Recv and Send are non-blocking: a backend with nothing pending
// returns 0 rather than waiting, because they run inside the router's
// cooperative task loop, which polls its backends as Click's polling
// drivers poll a NIC's receive ring. A replay backend whose source is
// exhausted returns 0 and io.EOF from Recv so the driver can
// distinguish "idle for now" from "done forever".
type Backend interface {
	// Open readies the backend: binds sockets, opens files. It must be
	// called once before Recv or Send.
	Open() error
	// Recv fills buf with up to len(buf) received frames and returns
	// how many it delivered. The frames are owned by the backend and
	// valid only until the next Recv; callers copy (the Device adapter
	// copies into fresh packets).
	Recv(buf [][]byte) (int, error)
	// Send transmits frames, returning how many were accepted.
	Send(frames [][]byte) (int, error)
	// Close releases the backend's resources and flushes any capture
	// state. The backend is unusable afterwards.
	Close() error
}
