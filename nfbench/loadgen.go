package main

// The open-loop load generator and the egress sink.
//
// Every frame carries a stamp in its UDP payload: a sequence number and
// the time the frame was due to leave the generator. The generator sends
// on a fixed schedule whatever the pipeline does, so a stall delays every
// frame due during it, and latency is measured from the due time; how
// late the generator itself ran is reported separately. The sink checks
// each frame it receives and marks its sequence number, so loss is
// counted per trial from the marks.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/packet"
)

const (
	frameLen   = 64 // bytes on the wire inside the UDP payload, Ethernet first
	payloadOff = packet.EthHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen
	stampLen   = 20
	burstMax   = 64 // frames per sendmmsg / recvmmsg

	magicFrame  = 0x3142464e // "NFB1": a stamped traffic frame
	magicMarker = 0x4d42464e // "NFBM": a sink flush marker
)

// putStamp writes a frame stamp into a UDP payload.
func putStamp(payload []byte, magic uint32, seq uint64, due int64) {
	binary.LittleEndian.PutUint64(payload[0:8], seq)
	binary.LittleEndian.PutUint64(payload[8:16], uint64(due))
	binary.LittleEndian.PutUint32(payload[16:20], magic)
}

// readStamp decodes a frame stamp; ok is false when the payload is too
// short to hold one.
func readStamp(payload []byte) (magic uint32, seq uint64, due int64, ok bool) {
	if len(payload) < stampLen {
		return 0, 0, 0, false
	}
	return binary.LittleEndian.Uint32(payload[16:20]),
		binary.LittleEndian.Uint64(payload[0:8]),
		int64(binary.LittleEndian.Uint64(payload[8:16])), true
}

// flowSet is the workload's flow population: one prebuilt 64-byte frame
// per flow, addressed to the firewall's admitted service prefix.
type flowSet struct {
	frames [][]byte
	tuples []packet.FiveTuple
}

func newFlowSet(n int) (*flowSet, error) {
	fs := &flowSet{frames: make([][]byte, n), tuples: make([]packet.FiveTuple, n)}
	for i := 0; i < n; i++ {
		t := packet.FiveTuple{
			SrcIP:   packet.Addr(10, 0, 0, 1) + packet.IPv4(i),
			DstIP:   packet.Addr(10, 99, 0, 1) + packet.IPv4(i%200),
			SrcPort: uint16(1024 + i%60000),
			DstPort: 80,
			Proto:   packet.ProtoUDP,
		}
		f, err := packet.Build(nil, packet.BuildSpec{
			SrcMAC:     packet.MAC{0x02, 0, 0, 0, 0, 0x01},
			DstMAC:     packet.MAC{0x02, 0, 0, 0, 0, 0x02},
			Tuple:      t,
			PayloadLen: frameLen - payloadOff,
		})
		if err != nil {
			return nil, fmt.Errorf("build flow %d: %w", i, err)
		}
		fs.frames[i], fs.tuples[i] = f, t
	}
	return fs, nil
}

// picker chooses the flow of each next frame, reproducibly from a seed.
type picker interface{ next() int }

type uniformPicker struct {
	rng *rand.Rand
	n   int
}

func (p uniformPicker) next() int { return p.rng.Intn(p.n) }

type zipfPicker struct{ z *rand.Zipf }

func (p zipfPicker) next() int { return int(p.z.Uint64()) }

// trialResult is one fixed-rate trial as the generator and sink saw it.
type trialResult struct {
	Rate     float64 // requested offered rate, frames/s
	Offered  float64 // achieved offered rate, frames/s
	Sent     uint64
	Received uint64
	FirstSeq uint64
	EndSeq   uint64  // one past the last sequence number sent
	Start    int64   // due time of the first frame, Unix ns
	Steal    float64 // host steal share of CPU time while sending
}

// Loss is frames sent and not received, over frames sent.
func (t trialResult) Loss() float64 {
	if t.Sent == 0 {
		return 1
	}
	return float64(t.Sent-t.Received) / float64(t.Sent)
}

// generator paces stamped frames onto the wire. It must be driven from
// one goroutine locked to its OS thread: pacing sleeps the thread, and
// the thread's CPU clock is the generator's cost.
type generator struct {
	w      *wire
	flows  *flowSet
	pick   picker
	tid    int
	seq    uint64
	pubSeq *atomic.Uint64 // one past the highest sequence number handed to the kernel
	bufs   [][]byte
	batch  [][]byte

	// late collects per-frame send lateness (ns) while non-nil.
	late []int64
}

func newGenerator(flows *flowSet, pick picker, pubSeq *atomic.Uint64) (*generator, error) {
	w, err := openWire(burstMax, 0, false)
	if err != nil {
		return nil, fmt.Errorf("generator socket: %w", err)
	}
	g := &generator{w: w, flows: flows, pick: pick, tid: syscall.Gettid(), pubSeq: pubSeq}
	g.bufs = make([][]byte, burstMax)
	for i := range g.bufs {
		g.bufs[i] = make([]byte, frameLen)
	}
	g.batch = make([][]byte, 0, burstMax)
	tightTimerSlack()
	return g, nil
}

func (g *generator) close() { g.w.Close() }

// target points the generator at a port.
func (g *generator) target(a *net.UDPAddr) { g.w.setDst(a) }

// emit stamps and sends frames for the given flows, all due at due.
func (g *generator) emit(flows []int, due func(i int) int64) error {
	g.batch = g.batch[:0]
	for i, f := range flows {
		b := g.bufs[i]
		copy(b, g.flows.frames[f])
		putStamp(b[payloadOff:], magicFrame, g.seq+uint64(i), due(i))
		g.batch = append(g.batch, b)
	}
	g.pubSeq.Store(g.seq + uint64(len(flows)))
	n, err := g.w.send(g.batch)
	g.seq += uint64(n)
	if err != nil {
		return fmt.Errorf("generator send: %w", err)
	}
	return nil
}

// probe sends one frame on each of the given flows, due now.
func (g *generator) probe(flows []int) error {
	now := time.Now().UnixNano()
	return g.emit(flows, func(int) int64 { return now })
}

// run offers rate frames/s for dur, open loop: frame i is due at
// start + i/rate, and each wake-up sends every frame already due.
func (g *generator) run(rate float64, dur time.Duration) (trialResult, error) {
	total := uint64(rate * dur.Seconds())
	if total == 0 {
		total = 1
	}
	period := 1e9 / rate
	start := time.Now().UnixNano() + int64(100*time.Microsecond)
	res := trialResult{Rate: rate, FirstSeq: g.seq, Start: start}
	var sent uint64
	flows := make([]int, 0, burstMax)
	var last int64
	for sent < total {
		now := time.Now().UnixNano()
		dueN := uint64(float64(now-start)/period) + 1
		if now < start {
			dueN = 0
		}
		dueN = min(dueN, total)
		if dueN <= sent {
			next := start + int64(float64(sent)*period)
			nanosleep(max(next-now, 1000))
			continue
		}
		n := min(dueN-sent, burstMax)
		flows = flows[:0]
		for i := uint64(0); i < n; i++ {
			flows = append(flows, g.pick.next())
		}
		base := sent
		if err := g.emit(flows, func(i int) int64 { return start + int64(float64(base+uint64(i))*period) }); err != nil {
			return res, err
		}
		last = time.Now().UnixNano()
		if g.late != nil {
			for i := uint64(0); i < n; i++ {
				g.late = append(g.late, last-(start+int64(float64(base+i)*period)))
			}
		}
		sent += n
	}
	res.Sent = sent
	res.EndSeq = g.seq
	span := float64(last-start) + period
	res.Offered = float64(sent) / (span / 1e9)
	return res, nil
}

// latSample is one frame's due time and due-to-arrival latency, ns.
type latSample struct{ due, lat int64 }

// sink receives the pipeline's egress and checks every frame.
type sink struct {
	w        *wire
	backends []packet.IPv4
	pubSeq   *atomic.Uint64
	tid      atomic.Int64
	done     chan struct{}

	// seen marks received sequence numbers, one bit each: written by the
	// sink goroutine only (load+store), read by anyone (load).
	mu     sync.Mutex
	chunks []*[seenChunkWords]atomic.Uint64

	received  atomic.Uint64
	badParse  atomic.Uint64
	badSeq    atomic.Uint64
	dups      atomic.Uint64
	badDst    atomic.Uint64
	overflows atomic.Int64
	marker    atomic.Uint64

	// Latency recording: frames with lo <= seq < hi append their
	// due-to-arrival latency (ns) to lat. lat is owned by the sink
	// goroutine until a flush acknowledges the window closed.
	latLo, latHi atomic.Uint64
	lat          []latSample
}

const seenChunkWords = 1 << 14 // 1M sequence numbers per chunk

func newSink(backends []packet.IPv4, pubSeq *atomic.Uint64) (*sink, error) {
	w, err := openWire(burstMax, 4<<20, true)
	if err != nil {
		return nil, fmt.Errorf("sink socket: %w", err)
	}
	s := &sink{w: w, backends: backends, pubSeq: pubSeq, done: make(chan struct{})}
	ready := make(chan struct{})
	go s.loop(ready)
	<-ready
	return s, nil
}

// Addr is the sink's address, the pipeline's egress target.
func (s *sink) Addr() *net.UDPAddr { return s.w.Addr() }

// close stops the sink goroutine and waits for it.
func (s *sink) close() {
	s.w.Close()
	<-s.done
}

// cpu is the sink thread's CPU time in ns.
func (s *sink) cpu() int64 { return threadCPU(int(s.tid.Load())) }

func (s *sink) loop(ready chan<- struct{}) {
	defer close(s.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	s.tid.Store(int64(syscall.Gettid()))
	close(ready)
	bufs := make([][]byte, burstMax)
	for i := range bufs {
		bufs[i] = make([]byte, 2048)
	}
	lens := make([]int, burstMax)
	stamps := make([]int64, burstMax)
	var pkt packet.Packet
	for {
		n, ovfl, err := s.w.recv(bufs, lens, stamps)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		if ovfl >= 0 {
			s.overflows.Store(ovfl)
		}
		for i := 0; i < n; i++ {
			s.check(&pkt, bufs[i][:lens[i]], stamps[i])
		}
	}
}

// check validates one received frame: it parses, its stamp names a
// sequence number the generator sent, that number arrives once, and the
// destination is a configured backend.
func (s *sink) check(pkt *packet.Packet, frame []byte, arrived int64) {
	pkt.Data = frame
	pkt.Reset()
	if pkt.Parse() != nil {
		s.badParse.Add(1)
		return
	}
	magic, seq, due, ok := readStamp(pkt.Payload())
	if ok && magic == magicMarker {
		s.marker.Store(seq)
		return
	}
	if !ok || magic != magicFrame {
		s.badParse.Add(1)
		return
	}
	if seq >= s.pubSeq.Load() {
		s.badSeq.Add(1)
		return
	}
	if !s.mark(seq) {
		s.dups.Add(1)
		return
	}
	s.received.Add(1)
	dst := pkt.Tuple().DstIP
	okDst := false
	for _, b := range s.backends {
		if b == dst {
			okDst = true
			break
		}
	}
	if !okDst {
		s.badDst.Add(1)
	}
	if seq >= s.latLo.Load() && seq < s.latHi.Load() {
		if arrived == 0 {
			arrived = time.Now().UnixNano()
		}
		s.lat = append(s.lat, latSample{due: due, lat: arrived - due})
	}
}

// mark sets seq's bit and reports whether it was clear.
func (s *sink) mark(seq uint64) bool {
	word := s.word(seq, true)
	bit := uint64(1) << (seq % 64)
	v := word.Load()
	if v&bit != 0 {
		return false
	}
	word.Store(v | bit)
	return true
}

// word returns the bitmap word holding seq, growing the map when grow.
func (s *sink) word(seq uint64, grow bool) *atomic.Uint64 {
	c := seq / (seenChunkWords * 64)
	s.mu.Lock()
	for grow && uint64(len(s.chunks)) <= c {
		s.chunks = append(s.chunks, new([seenChunkWords]atomic.Uint64))
	}
	var w *atomic.Uint64
	if c < uint64(len(s.chunks)) {
		w = &s.chunks[c][(seq/64)%seenChunkWords]
	}
	s.mu.Unlock()
	return w
}

// countSeen counts received sequence numbers in [lo, hi).
func (s *sink) countSeen(lo, hi uint64) uint64 {
	var n uint64
	for seq := lo; seq < hi; {
		w := s.word(seq, false)
		if w == nil {
			break
		}
		v := w.Load()
		end := min(hi, (seq/64+1)*64)
		for ; seq < end; seq++ {
			n += (v >> (seq % 64)) & 1
		}
	}
	return n
}

// flush sends a marker through the sink's own socket and waits until
// the sink has processed it, so every frame that reached the sink
// before the marker is accounted for.
func (s *sink) flush(g *generator) error {
	token := s.marker.Load() + 1
	fw, err := openWire(1, 0, false)
	if err != nil {
		return err
	}
	defer fw.Close()
	fw.setDst(s.Addr())
	b := make([]byte, frameLen)
	copy(b, g.flows.frames[0])
	putStamp(b[payloadOff:], magicMarker, token, 0)
	deadline := time.Now().Add(2 * time.Second)
	for s.marker.Load() < token {
		if time.Now().After(deadline) {
			return errors.New("sink did not acknowledge a flush marker")
		}
		if _, err := fw.send([][]byte{b}); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// latencyWindow starts recording latency for sequence numbers >= lo,
// with room for about n samples.
func (s *sink) latencyWindow(lo uint64, n int) {
	s.latHi.Store(0)
	s.lat = make([]latSample, 0, n+burstMax)
	s.latLo.Store(lo)
	s.latHi.Store(math.MaxUint64)
}

// takeLatency closes the latency window, flushes, and returns the
// samples recorded. Frames still in flight when the window closes are
// left out; the trial's loss count covers them.
func (s *sink) takeLatency(g *generator) ([]latSample, error) {
	s.latHi.Store(0)
	if err := s.flush(g); err != nil {
		return nil, err
	}
	out := s.lat
	s.lat = nil
	return out, nil
}

// errorsSeen sums the frames that failed a check.
func (s *sink) errorsSeen() uint64 {
	return s.badParse.Load() + s.badSeq.Load() + s.dups.Load() + s.badDst.Load()
}
