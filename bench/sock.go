package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/elements"
	"repro/internal/graph"
	rio "repro/internal/io"
	"repro/internal/lang"
)

const (
	sockWindow   = 64                     // frames outstanding: the sock-udp unit operation
	sockFrameLen = 64                     // bytes per frame
	sockLate     = 200 * time.Millisecond // a frame later than this is lost
	sockIdle     = 200 * time.Microsecond // sleep when a round finds nothing; never spin
)

// sockConfig is a one-way forwarding path between two io.Device-backed
// interfaces. Loopback only: no real link is crossed.
const sockConfig = `// sock-udp: forwarding over two real UDP loopback sockets.
fd :: PollDevice(in0);
td :: ToDevice(out0);
c :: Classifier(12/0800, -);
fd -> c;
c [0] -> Strip(14) -> CheckIPHeader -> DecIPTTL
	-> EtherEncap(0800, 00:00:c0:00:01:01, 00:00:c0:00:01:02)
	-> q :: Queue(1024) -> td;
c [1] -> Discard;
`

var (
	sockEncapSrc = [6]byte{0x00, 0x00, 0xc0, 0x00, 0x01, 0x01}
	sockEncapDst = [6]byte{0x00, 0x00, 0xc0, 0x00, 0x01, 0x02}
)

// sockWorkload is sock-udp. The seed picks the flow's addresses and
// ports; every frame of a run differs only in its sequence number.
type sockWorkload struct {
	sc    scale
	frame []byte // template; the last four bytes are the sequence number
	want  []byte // reference output for the template
	sha   string
}

func (w *sockWorkload) text() string        { return sockConfig }
func (w *sockWorkload) inputSHA256() string { return w.sha }

func newSockWorkload(seed int64, sc scale) (*sockWorkload, error) {
	r := rand.New(rand.NewSource(seed))
	spec := frameSpec{
		SrcEth: [6]byte{0x00, 0x00, 0xc0, 0x00, 0x00, 0x02}, DstEth: [6]byte{0x00, 0x00, 0xc0, 0x00, 0x00, 0x01},
		Src: [4]byte{10, 0, 0, byte(2 + r.Intn(250))}, Dst: [4]byte{10, 0, 1, byte(2 + r.Intn(250))},
		Proto: protoUDP, Sport: uint16(1024 + r.Intn(60000)), Dport: uint16(1024 + r.Intn(60000)),
		TTL: 64, Size: sockFrameLen,
	}
	w := &sockWorkload{sc: sc, frame: spec.build()}
	w.want = forwardReference(w.frame, sockEncapSrc, sockEncapDst)
	ih := newInputHash()
	ih.text(sockConfig)
	ih.frame(w.frame)
	w.sha = ih.sum()
	return w, nil
}

type sockInst struct {
	w  *sockWorkload
	rt *core.Router
	tr *tracer

	in, out *rio.UDP
	gen     *net.UDPConn // generator socket
	sinkC   *net.UDPConn // collector socket
	inAddr  *net.UDPAddr
	wg      sync.WaitGroup

	frames [sockWindow][]byte // one buffer per window slot
	stamp  [sockWindow]int64  // send time of the slot's current frame

	// Written by the collector goroutine, read by the generator.
	window   atomic.Int64 // window being collected
	received atomic.Int64 // frames of the current window seen so far
	bad      atomic.Int64 // wrong bytes, wrong TTL, duplicates
	late     atomic.Int64 // frames of an abandoned window
	seen     [sockWindow]int64

	sent, lost int64
	waits      []int64 // io.rx_wait samples, traced runs only
}

func (w *sockWorkload) bringUp(tr *tracer, pt *passTimes) (instance, error) {
	s := &sockInst{w: w, tr: tr}
	var g *graph.Router
	err := pt.stage("lang.parse", func() (err error) {
		g, err = lang.ParseRouter(sockConfig, "sock-udp")
		return err
	})
	if err != nil {
		return nil, err
	}
	if s.gen, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		return nil, err
	}
	if s.sinkC, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		s.close()
		return nil, err
	}
	s.in = rio.NewUDP("127.0.0.1:0", "")
	s.out = rio.NewUDP("127.0.0.1:0", s.sinkC.LocalAddr().String())
	inBE := &spanBackend{Backend: s.in, tr: tr}
	if tr != nil {
		s.waits = make([]int64, 0, 1<<16)
		inBE.onRecv = s.noteRecv
	}
	inDev, err := rio.OpenDevice("in0", inBE)
	if err != nil {
		s.close()
		return nil, err
	}
	outDev, err := rio.OpenDevice("out0", &spanBackend{Backend: s.out, tr: tr})
	if err != nil {
		s.close()
		return nil, err
	}
	s.inAddr = s.in.LocalAddr().(*net.UDPAddr)
	env := map[string]interface{}{
		"device:in0":  &spanDevice{Device: inDev, tr: tr},
		"device:out0": &spanDevice{Device: outDev, tr: tr},
	}
	err = pt.stage("core.build", func() (err error) {
		s.rt, err = core.Build(g, elements.NewRegistry(), core.BuildOptions{Env: env})
		return err
	})
	if err != nil {
		s.close()
		return nil, err
	}
	for i := range s.frames {
		s.frames[i] = append([]byte(nil), w.frame...)
	}
	for i := range s.seen {
		s.seen[i] = -1
	}
	s.window.Store(-1)
	s.wg.Add(1)
	go s.collect()
	// First frame forwarded: one window of one frame.
	scratch := newBlockRecorder(1, 1, 1)
	if got, _ := s.sendWindow(scratch, nanotime(), 1); got != 1 {
		s.close()
		return nil, fmt.Errorf("sock-udp: first frame not forwarded")
	}
	s.sent, s.lost = 0, 0
	return s, nil
}

func (s *sockInst) router() *core.Router { return s.rt }
func (s *sockInst) passSteps() int       { return s.w.sc.SockWarmups }

func (s *sockInst) close() {
	if s.in != nil {
		s.in.Close()
	}
	if s.out != nil {
		s.out.Close()
	}
	if s.gen != nil {
		s.gen.Close()
	}
	if s.sinkC != nil {
		s.sinkC.Close()
	}
	s.wg.Wait()
	if s.rt != nil {
		s.rt.Close()
	}
}

// collect is the harness's receiving host: it blocks in the netpoller,
// checks every frame against the reference, and counts the frames of the
// window being collected.
func (s *sockInst) collect() {
	defer s.wg.Done()
	buf := make([]byte, 2048)
	for {
		n, err := s.sinkC.Read(buf)
		if err != nil {
			return // closed
		}
		f := buf[:n]
		seq := int64(frameTag(f))
		if seq/sockWindow != s.window.Load() {
			s.late.Add(1)
			continue
		}
		// Sequence number intact, TTL decremented, checksum and
		// Ethernet header as the reference transform says.
		if n != sockFrameLen || !bytes.Equal(f[:n-4], s.w.want[:n-4]) || s.seen[seq%sockWindow] == seq {
			s.bad.Add(1)
			continue
		}
		s.seen[seq%sockWindow] = seq
		s.received.Add(1)
	}
}

// noteRecv is the ingress backend's receive hook on traced runs: the
// sequence number finds the send stamp, and the difference is the time
// the frame spent in the kernel, the pump goroutine and the ring.
func (s *sockInst) noteRecv(frames [][]byte, now int64) {
	for _, f := range frames {
		if len(s.waits) < cap(s.waits) {
			s.waits = append(s.waits, now-s.stamp[int64(frameTag(f))%sockWindow])
		}
	}
}

func (s *sockInst) round() bool {
	if s.tr == nil {
		return s.rt.RunTaskRound()
	}
	s.tr.begin(layCoreRound, nanotime())
	ok := s.rt.RunTaskRound()
	s.tr.end(nanotime())
	return ok
}

func (s *sockInst) step(rec *blockRecorder, now int64) (int64, int64) {
	return s.sendWindow(rec, now, sockWindow)
}

// sendWindow sends n frames and drives the router until the collector has
// all of them or the window is sockLate old.
func (s *sockInst) sendWindow(rec *blockRecorder, now int64, n int) (int64, int64) {
	win := s.window.Load() + 1
	s.received.Store(0)
	s.window.Store(win)
	s.tr.setOp(win)
	s.tr.begin(layBench, now)
	if s.tr != nil {
		s.tr.begin(layGenSend, nanotime())
	}
	for k := 0; k < n; k++ {
		binary.BigEndian.PutUint32(s.frames[k][sockFrameLen-4:], uint32(win*sockWindow+int64(k)))
		s.stamp[k] = nanotime()
		if _, err := s.gen.WriteToUDP(s.frames[k], s.inAddr); err != nil {
			s.bad.Add(1)
		}
	}
	if s.tr != nil {
		s.tr.end(nanotime())
	}
	s.sent += int64(n)
	deadline := now + int64(sockLate)
	end := now
	for {
		worked := s.round()
		end = nanotime()
		if s.received.Load() >= int64(n) || end > deadline {
			break
		}
		if !worked {
			s.tr.begin(layIdle, end)
			time.Sleep(sockIdle)
			if s.tr != nil {
				s.tr.end(nanotime())
			}
		}
	}
	got := s.received.Load()
	s.lost += int64(n) - got
	s.tr.end(end)
	rec.opDone(end - now)
	return got, end
}

func (s *sockInst) verify() verdict {
	v := verdict{Attempted: s.sent}
	v.fail(s.lost, "frames not collected within %v of their window's first sendto", sockLate)
	v.fail(s.bad.Load(), "frames with wrong bytes, a wrong TTL or a repeated sequence number, or failed sends")
	return v
}

func (s *sockInst) native(m map[string]float64) {
	routerNative(s.rt, m)
	m["io.rx_dropped"] = float64(atomic.LoadInt64(&s.in.RxDropped))
	if len(s.waits) > 0 {
		m["io.rx_wait_us"] = medianInt64(s.waits) / 1e3
	}
}
