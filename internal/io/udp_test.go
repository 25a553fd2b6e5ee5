package io_test

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/elements"
	pktio "repro/internal/io"
	"repro/internal/packet"
)

// The adapter is what PollDevice/FromDevice/ToDevice drive. The
// assertion lives here, not beside Device, so the element library can
// import this package's pcap codec.
var (
	_ elements.Device      = (*pktio.Device)(nil)
	_ elements.BatchDevice = (*pktio.Device)(nil)
)

func TestUDPBackendEcho(t *testing.T) {
	be := pktio.NewUDP("127.0.0.1:0", "")
	if err := be.Open(); err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	// A plain socket plays the peer.
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := be.SetPeer(peer.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	// Peer → backend.
	want := []byte{1, 2, 3, 4, 5}
	if _, err := peer.WriteToUDP(want, be.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	buf := make([][]byte, 4)
	if n := recvWithin(t, be, buf); n != 1 || !bytes.Equal(buf[0], want) {
		t.Fatalf("received %d frames, first %x, want one, %x", n, buf[0], want)
	}
	// Backend → peer.
	if _, err := be.Send([][]byte{{9, 8, 7}}); err != nil {
		t.Fatal(err)
	}
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	rbuf := make([]byte, 64)
	n, _, err := peer.ReadFromUDP(rbuf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rbuf[:n], []byte{9, 8, 7}) {
		t.Fatalf("peer received %x", rbuf[:n])
	}
}

// recvWithin polls be until it delivers frames or five seconds pass.
func recvWithin(t *testing.T, be *pktio.UDP, buf [][]byte) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := be.Recv(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// openUDPPair opens a receive-only backend and a plain socket to send
// to it, both closed when the test ends.
func openUDPPair(t *testing.T) (*pktio.UDP, *net.UDPConn, *net.UDPAddr) {
	t.Helper()
	be := pktio.NewUDP("127.0.0.1:0", "")
	if err := be.Open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { be.Close() })
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	return be, peer, be.LocalAddr().(*net.UDPAddr)
}

// Every datagram size from one byte to the largest IPv4 UDP payload
// comes back whole.
func TestUDPFrameSizes(t *testing.T) {
	be, peer, addr := openUDPPair(t)
	buf := make([][]byte, 1)
	for _, size := range []int{1, 64, 1514, 9018, 65507} {
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i*7 + size)
		}
		if _, err := peer.WriteToUDP(want, addr); err != nil {
			t.Fatalf("%d bytes: %v", size, err)
		}
		if n := recvWithin(t, be, buf); n != 1 || !bytes.Equal(buf[0], want) {
			t.Errorf("%d bytes: received %d frames, first %d bytes", size, n, len(buf[0]))
		}
	}
}

// Forty frames read one at a time arrive in order, past the point where
// the backend has handed out its first batch and reads the socket again.
func TestUDPRecvInOrder(t *testing.T) {
	be, peer, addr := openUDPPair(t)
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := peer.WriteToUDP([]byte{byte(i), 0xee}, addr); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([][]byte, 4)
	for i := 0; i < n; i++ {
		if got := recvWithin(t, be, buf[:1]); got != 1 || !bytes.Equal(buf[0], []byte{byte(i), 0xee}) {
			t.Fatalf("frame %d: received %d frames, first %x", i, got, buf[0])
		}
	}
	if got, err := be.Recv(buf); got != 0 || err != nil {
		t.Errorf("drained socket: Recv = %d, %v, want 0, nil", got, err)
	}
}

// Recv on a socket with nothing pending returns at once, empty.
func TestUDPRecvEmpty(t *testing.T) {
	be, _, _ := openUDPPair(t)
	buf := make([][]byte, 32)
	start := time.Now()
	for i := 0; i < 100; i++ {
		if n, err := be.Recv(buf); n != 0 || err != nil {
			t.Fatalf("Recv = %d, %v, want 0, nil", n, err)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("100 empty Recvs took %v", d)
	}
}

// loopbackRouter is one in-process router forwarding eth0 → eth1 over
// UDP backends, run on its own goroutine.
type loopbackRouter struct {
	rt   *core.Router
	rx   *pktio.UDP
	tx   *pktio.UDP
	stop atomic.Bool
	wg   sync.WaitGroup
}

const loopbackConfig = `
pd :: PollDevice(eth0);
cnt :: Counter;
q :: Queue(64);
td :: ToDevice(eth1);
pd -> cnt -> q -> td;
`

func newLoopbackRouter(t *testing.T) *loopbackRouter {
	t.Helper()
	lr := &loopbackRouter{
		rx: pktio.NewUDP("127.0.0.1:0", ""),
		tx: pktio.NewUDP("127.0.0.1:0", ""),
	}
	if err := lr.rx.Open(); err != nil {
		t.Fatal(err)
	}
	if err := lr.tx.Open(); err != nil {
		t.Fatal(err)
	}
	env := map[string]interface{}{
		"device:eth0": pktio.NewDevice("eth0", lr.rx),
		"device:eth1": pktio.NewDevice("eth1", lr.tx),
	}
	rt, err := core.BuildFromText(loopbackConfig, "loopback", elements.NewRegistry(), core.BuildOptions{Env: env})
	if err != nil {
		t.Fatal(err)
	}
	lr.rt = rt
	return lr
}

// run spins the task loop until stopped, sleeping briefly when idle so
// it does not spin on empty sockets.
func (lr *loopbackRouter) run() {
	lr.wg.Add(1)
	go func() {
		defer lr.wg.Done()
		for !lr.stop.Load() {
			if !lr.rt.RunTaskRound() {
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
}

func (lr *loopbackRouter) halt() {
	lr.stop.Store(true)
	lr.wg.Wait()
	lr.rx.Close()
	lr.tx.Close()
}

// TestUDPLoopbackTwoRouters runs two routers in one process connected
// over real localhost sockets — harness → A.eth0, A.eth1 → B.eth0,
// B.eth1 → collector — and asserts every injected frame is delivered
// intact and that the telemetry of both routers conserves packets
// (packets_in == packets_out + drops at every interior element).
func TestUDPLoopbackTwoRouters(t *testing.T) {
	a := newLoopbackRouter(t)
	b := newLoopbackRouter(t)

	collector, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()
	if err := a.tx.SetPeer(b.rx.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := b.tx.SetPeer(collector.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}

	a.run()
	b.run()

	injector, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer injector.Close()

	const n = 40
	sent := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		payload := make([]byte, 14)
		payload[0], payload[1] = byte(i>>8), byte(i)
		p := packet.BuildUDP4(
			packet.EtherAddr{0, 0, 0xc0, 0, 0, 2}, packet.EtherAddr{0, 0, 0xc0, 0, 0, 1},
			packet.MakeIP4(10, 0, 0, 2), packet.MakeIP4(10, 0, 1, 2),
			uint16(1024+i), 1234, payload)
		frame := append([]byte(nil), p.Data()...)
		p.Kill()
		sent[string(frame)] = true
		if _, err := injector.WriteToUDP(frame, a.rx.LocalAddr().(*net.UDPAddr)); err != nil {
			t.Fatal(err)
		}
	}

	// Collect until every frame arrives or the deadline passes. UDP on
	// loopback does not reorder in practice, but delivery is asserted
	// as a set to keep the test honest about the transport.
	got := 0
	collector.SetReadDeadline(time.Now().Add(10 * time.Second))
	rbuf := make([]byte, 65536)
	for got < n {
		rn, _, err := collector.ReadFromUDP(rbuf)
		if err != nil {
			t.Fatalf("collector: %v after %d/%d frames", err, got, n)
		}
		frame := string(rbuf[:rn])
		if !sent[frame] {
			t.Fatalf("collector received a frame that was never sent: %x", rbuf[:rn])
		}
		delete(sent, frame)
		got++
	}

	a.halt()
	b.halt()

	for label, lr := range map[string]*loopbackRouter{"A": a, "B": b} {
		for _, r := range lr.rt.StatsReport() {
			switch r.Class {
			case "PollDevice":
				if r.PacketsOut != n {
					t.Errorf("router %s: %s pushed %d packets, want %d", label, r.Name, r.PacketsOut, n)
				}
			default:
				if r.PacketsIn != r.PacketsOut+r.Drops {
					t.Errorf("router %s: %s (%s) violates conservation: in=%d out=%d drops=%d",
						label, r.Name, r.Class, r.PacketsIn, r.PacketsOut, r.Drops)
				}
			}
		}
		for name, dev := range map[string]*pktio.UDP{"rx": lr.rx, "tx": lr.tx} {
			if d := atomic.LoadInt64(&dev.RxDropped); d != 0 {
				t.Errorf("router %s %s backend dropped %d frames in the ring", label, name, d)
			}
		}
		if err := checkHandlerConservation(lr.rt); err != nil {
			t.Errorf("router %s: %v", label, err)
		}
	}
}

// checkHandlerConservation reads the implicit telemetry handlers the
// way an external monitor would and re-asserts conservation from the
// handler surface.
func checkHandlerConservation(rt *core.Router) error {
	for _, name := range []string{"cnt", "q"} {
		read := func(h string) (string, error) { return rt.ReadHandler(name + "." + h) }
		in, err := read("packets_in")
		if err != nil {
			return err
		}
		out, err := read("packets_out")
		if err != nil {
			return err
		}
		drops, err := read("drops")
		if err != nil {
			return err
		}
		var vin, vout, vdrops int64
		fmt.Sscan(in, &vin)
		fmt.Sscan(out, &vout)
		fmt.Sscan(drops, &vdrops)
		if vin != vout+vdrops {
			return fmt.Errorf("%s handlers violate conservation: in=%d out=%d drops=%d", name, vin, vout, vdrops)
		}
	}
	return nil
}
