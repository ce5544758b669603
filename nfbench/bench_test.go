package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/packet"
)

func TestTailQuantileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: the rule must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		want  float64
		q     float64
		value float64
	}{
		// Enough samples: p99 of 1..1000 is 990, and 10 samples lie beyond it.
		{n: 1000, want: 0.99, q: 0.99, value: 990},
		// 500 samples cannot support p99: the highest percentile with 10
		// beyond it is p98, value 490.
		{n: 500, want: 0.99, q: 0.98, value: 490},
		// 15 samples: 1-10/15 is below the median, which is reported instead.
		{n: 15, want: 0.99, q: 0.5, value: 8},
		// The median itself is never forced down.
		{n: 100, want: 0.5, q: 0.5, value: 50},
	} {
		got, ok := tailQuantile(seq(tc.n), tc.want)
		if !ok {
			t.Fatalf("n=%d: no quantile", tc.n)
		}
		if math.Abs(got.Q-tc.q) > 1e-9 || got.Value != tc.value || got.N != tc.n {
			t.Errorf("n=%d want p%g: got %+v, want q=%g value=%g", tc.n, tc.want*100, got, tc.q, tc.value)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if tc.q > 0.5 && beyond < minTail {
			t.Errorf("n=%d: only %d samples beyond the reported p%g", tc.n, beyond, got.Q*100)
		}
	}
	if _, ok := tailQuantile(nil, 0.99); ok {
		t.Error("empty sample reported a quantile")
	}
}

func TestLatencyFiguresTakeTheCalmHalf(t *testing.T) {
	ws := []window{
		{n: 10, p50: 50, p99: 200, steal: 0.00},
		{n: 10, p50: 52, p99: 9000, steal: 0.30}, // the host ran someone else
		{n: 10, p50: 51, p99: 210, steal: 0.01},
		{n: 10, p50: 49, p99: 7000, steal: 0.20},
		{n: 10, p50: 48, p99: 190, steal: 0.02},
		{n: 10, p50: 60, p99: 6000, steal: 0.10},
		{n: 10, p50: 70, p99: 5000, steal: 0.05},
		{n: 10, p50: 80, p99: 4000, steal: 0.04},
		{n: 10, p50: 90, p99: 3000, steal: 0.03},
		{n: 10, p50: 95, p99: 8000, steal: 0.25},
		{n: 10, p50: 99, p99: 9999, steal: 0.35},
		{n: 0},
	}
	p50, p99 := latencyFigures(ws)
	if p50 != 50 {
		t.Errorf("p50 = %g, want 50 from the three calm windows", p50)
	}
	// The calm quarter is 3 of 12 windows: steal 0, 0.01, 0.02.
	// (With every window under calmSteal, all of them would count.)
	if p99 != 200 {
		t.Errorf("p99 = %g, want 200 from the three calm windows", p99)
	}
}

func TestWindowsOf(t *testing.T) {
	sec := int64(windowLen)
	lat := []latSample{{due: 10, lat: 1000}, {due: sec + 5, lat: 3000}, {due: sec + 6, lat: 5000}, {due: 3 * sec, lat: 1}}
	marks := []stealMark{
		{at: 0, times: cpuTimes{total: 0, steal: 0}},
		{at: sec, times: cpuTimes{total: 100, steal: 10}, sutCPU: 500},
		{at: 3 * sec, times: cpuTimes{total: 300, steal: 10}, sutCPU: 900},
	}
	ages := []ageSample{{at: 1, ms: 7}, {at: sec + 1, ms: 8}, {at: 5 * sec, ms: 9}}
	// Two frames due per window; the fifth is due after the last window.
	r := trialResult{Rate: float64(2*time.Second) / float64(windowLen), Sent: 5}
	ws := windowsOf(lat, ages, marks, r, 2*windowLen)
	if len(ws) != 2 || ws[0].n != 1 || ws[1].n != 2 {
		t.Fatalf("windows %+v", ws)
	}
	if ws[0].sent != 2 || ws[1].sent != 2 {
		t.Errorf("frames due per window %d %d, want 2 and 2", ws[0].sent, ws[1].sent)
	}
	// Two samples cannot support a p99: the rule reports their median.
	if ws[0].p50 != 1 || ws[1].p99 != 3 {
		t.Errorf("window latencies %+v, want p50 1us and p99 3us", ws)
	}
	if ws[0].steal != 0.1 || ws[1].steal != 0 {
		t.Errorf("window steal %g %g, want 0.1 and 0", ws[0].steal, ws[1].steal)
	}
	// The second window's marks span twice its length: its CPU is scaled.
	if ws[0].sutCPU != 500 || ws[1].sutCPU != 200 {
		t.Errorf("window CPU %g %g, want 500 and 200", ws[0].sutCPU, ws[1].sutCPU)
	}
	if got := calmCPUPerFrame(ws); got != 100 {
		t.Errorf("calm CPU per frame %g, want 200 ns over 2 frames", got)
	}
	if len(ws[0].ages) != 1 || ws[1].ages[0] != 8 {
		t.Errorf("window ages %v %v, want [7] and [8]", ws[0].ages, ws[1].ages)
	}
	if got := calmAges(ws); len(got) != 1 || got[0] != 8 {
		t.Errorf("calm ages %v, want the calmer window's [8]", got)
	}
}

// synthetic loss curve: nothing lost up to the knee, then the excess.
func lossCurve(knee float64) func(rate float64) (trialResult, error) {
	return func(rate float64) (trialResult, error) {
		sent := uint64(rate)
		recv := sent
		if rate > knee {
			recv = uint64(knee)
		}
		return trialResult{Rate: rate, Offered: rate, Sent: sent, Received: recv}, nil
	}
}

func TestNDRSearchConverges(t *testing.T) {
	for _, knee := range []float64{12_345, 31_000, 99_000} {
		s := ndrSearch{Start: 10_000, Grow: 1.25, Step: 1.04, Trials: 40, LossLimit: 0.001}
		ndr, trials, err := s.run(lossCurve(knee))
		if err != nil {
			t.Fatal(err)
		}
		// A sharp knee: the staircase climbs three steps under it and
		// falls back, so it settles within Step³ below the knee.
		if ndr > knee/(1-s.LossLimit) || ndr < knee/(s.Step*s.Step*s.Step) {
			t.Errorf("knee %g: NDR %g after %d trials", knee, ndr, len(trials))
		}
	}
}

func TestNDRSearchIgnoresOneBadTrial(t *testing.T) {
	calls := 0
	curve := lossCurve(50_000)
	disturbed := func(rate float64) (trialResult, error) {
		calls++
		r, err := curve(rate)
		if calls%7 == 0 {
			r.Received = r.Sent / 2 // the host stole this trial
		}
		return r, err
	}
	s := ndrSearch{Start: 10_000, Grow: 1.25, Step: 1.04, Trials: 40, LossLimit: 0.001}
	ndr, _, err := s.run(disturbed)
	if err != nil {
		t.Fatal(err)
	}
	if ndr < 50_000*0.8 || ndr > 50_050 {
		t.Errorf("NDR %g with one trial in seven disturbed, want near the 50000 knee", ndr)
	}
}

func TestNDRSearchRepeatsFailuresTheHostCaused(t *testing.T) {
	calls := 0
	curve := lossCurve(40_000)
	stolen := func(rate float64) (trialResult, error) {
		calls++
		r, err := curve(rate)
		if calls%2 == 0 {
			r.Received = r.Sent / 2 // lost while the hypervisor ran someone else
			r.Steal = 0.2
		}
		return r, err
	}
	s := ndrSearch{Start: 10_000, Grow: 1.25, Step: 1.04, Trials: 80, LossLimit: 0.001, StealLimit: 0.01}
	ndr, _, err := s.run(stolen)
	if err != nil {
		t.Fatal(err)
	}
	if ndr > 40_040 || ndr < 40_000/(s.Step*s.Step*s.Step) {
		t.Errorf("NDR %g, want the 40000 knee despite every other trial failing under steal", ndr)
	}
}

func TestNDRSearchNothingPasses(t *testing.T) {
	s := ndrSearch{Start: 10_000, Grow: 1.25, Step: 1.04, Trials: 10, LossLimit: 0.001}
	ndr, trials, err := s.run(lossCurve(0))
	if err != nil {
		t.Fatal(err)
	}
	if ndr != 0 || len(trials) != 10 {
		t.Errorf("NDR %g after %d trials, want 0 after the budget of 10", ndr, len(trials))
	}
}

func TestNDRSearchNeverFailing(t *testing.T) {
	s := ndrSearch{Start: 10_000, Grow: 1.25, Step: 1.04, Trials: 5, LossLimit: 0.001}
	ndr, _, err := s.run(lossCurve(1e9))
	if err != nil {
		t.Fatal(err)
	}
	if want := 10_000 * 1.25 * 1.25 * 1.25 * 1.25; math.Abs(ndr-want) > 1e-6 {
		t.Errorf("NDR %g, want the highest passing rate %g as a lower bound", ndr, want)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	log := newSpanLog(100)
	// batch [0,100) > session [40,90) > lookup [50,60) and spill [70,75);
	// parse [10,30) under the batch; an open span and its child are left out.
	root := log.open(span{kind: spBatch, start: 0})
	log.add(span{kind: spParse, parent: root, start: 10, end: 30, pkts: 4})
	sess := log.open(span{kind: spSession, parent: root, start: 40, pkts: 4})
	log.add(span{kind: spLookup, parent: sess, start: 50, end: 60})
	log.add(span{kind: spSpill, parent: sess, start: 70, end: 75})
	log.close(sess, 90)
	log.close(root, 100)
	open := log.open(span{kind: spBatch, start: 200})
	log.add(span{kind: spParse, parent: open, start: 210, end: 220})
	// A child sticking out of its parent only counts the overlap.
	log.add(span{kind: spTx, parent: root, start: 95, end: 105})

	spans, _ := log.snapshot()
	got := summarise(spans)
	want := map[spanKind]int64{
		spBatch:   100 - 20 - 50 - 5, // minus parse, session, tx overlap
		spParse:   20,
		spSession: 50 - 10 - 5,
		spLookup:  10,
		spSpill:   5,
		spTx:      10,
	}
	for k, v := range want {
		if got.self[k] != v {
			t.Errorf("%s self = %d, want %d", k, got.self[k], v)
		}
	}
	if got.count[spParse] != 1 || got.pkts[spParse] != 4 {
		t.Errorf("parse count %d pkts %d, want 1 and 4 (the open batch's child left out)", got.count[spParse], got.pkts[spParse])
	}
}

func TestAbandonEndsAtLastFinishedChild(t *testing.T) {
	log := newSpanLog(10)
	root := log.open(span{kind: spBatch, start: 0})
	log.add(span{kind: spParse, parent: root, start: 5, end: 20})
	log.open(span{kind: spFirewall, parent: root, start: 25}) // faulted, never closed
	log.abandon(root)
	spans, _ := log.snapshot()
	if got := spans[root-1].end; got != 20 {
		t.Errorf("abandoned batch ends at %d, want 20", got)
	}
}

func TestStageGaps(t *testing.T) {
	spans := []span{
		{kind: spBatch, start: 0, end: 100},
		{kind: spParse, parent: 1, start: 0, end: 10},
		{kind: spFirewall, parent: 1, start: 12, end: 20},
		{kind: spMaglev, parent: 1, start: 23, end: 30},
		{kind: spSession, parent: 1, start: 34, end: 40},
		{kind: spBatch, start: 200, end: 300},
		{kind: spParse, parent: 6, start: 200, end: 210}, // faulted batch: not all stages
	}
	total, n := stageGaps(spans)
	if total != 2+3+4 || n != 1 {
		t.Errorf("gaps %d over %d batches, want 9 over 1", total, n)
	}
}

func TestStampRoundTrip(t *testing.T) {
	fs, err := newFlowSet(3)
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), fs.frames[2]...)
	if len(frame) != frameLen {
		t.Fatalf("frame is %d bytes, want %d", len(frame), frameLen)
	}
	putStamp(frame[payloadOff:], magicFrame, 1<<40+7, -5)
	magic, seq, due, ok := readStamp(frame[payloadOff:])
	if !ok || magic != magicFrame || seq != 1<<40+7 || due != -5 {
		t.Errorf("read %x %d %d %v", magic, seq, due, ok)
	}
	if _, _, _, ok := readStamp(frame[payloadOff : payloadOff+stampLen-1]); ok {
		t.Error("a truncated stamp decoded")
	}
}

func TestSinkChecksFrames(t *testing.T) {
	fs, err := newFlowSet(2)
	if err != nil {
		t.Fatal(err)
	}
	var pub atomic.Uint64
	pub.Store(10)
	s := &sink{backends: backendIPs(), pubSeq: &pub}
	mk := func(seq uint64, dst bool) []byte {
		f := append([]byte(nil), fs.frames[0]...)
		if dst {
			// What maglev does: rewrite the destination to a backend.
			dstOff := packet.EthHeaderLen + 16
			copy(f[dstOff:dstOff+4], []byte{10, 1, 0, 3})
		}
		putStamp(f[payloadOff:], magicFrame, seq, 0)
		return f
	}
	var p packet.Packet
	s.check(&p, mk(3, true), 1)
	s.check(&p, mk(3, true), 1)  // duplicate
	s.check(&p, mk(12, true), 1) // never sent
	s.check(&p, mk(4, false), 1) // not a backend
	s.check(&p, mk(5, true)[:20], 1)
	if s.received.Load() != 2 || s.dups.Load() != 1 || s.badSeq.Load() != 1 || s.badDst.Load() != 1 || s.badParse.Load() != 1 {
		t.Errorf("received %d dups %d badSeq %d badDst %d badParse %d", s.received.Load(), s.dups.Load(), s.badSeq.Load(), s.badDst.Load(), s.badParse.Load())
	}
	if n := s.countSeen(0, 10); n != 2 {
		t.Errorf("countSeen = %d, want 2", n)
	}
}

func TestParseControl(t *testing.T) {
	b := make([]byte, 56)
	// SCM_TIMESTAMPNS: len 32, SOL_SOCKET (1), type 35, {sec 2, nsec 5}.
	putLE(b[0:], 32, 8)
	putLE(b[8:], 1, 4)
	putLE(b[12:], soTimestampNS, 4)
	putLE(b[16:], 2, 8)
	putLE(b[24:], 5, 8)
	// SO_RXQ_OVFL: len 20, type 40, value 9.
	putLE(b[32:], 20, 8)
	putLE(b[40:], 1, 4)
	putLE(b[44:], soRxqOvfl, 4)
	putLE(b[48:], 9, 4)
	stamp, ovfl := parseControl(b)
	if stamp != 2e9+5 || ovfl != 9 {
		t.Errorf("stamp %d ovfl %d, want 2000000005 and 9", stamp, ovfl)
	}
}

func putLE(b []byte, v uint64, n int) {
	for i := 0; i < n; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

//go:noinline
func spinForProfile(until time.Time) (x uint64) {
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x = x*31 + uint64(i)
		}
	}
	return x
}

func TestProfiledCountsAFunction(t *testing.T) {
	const name = "repro/nfbench.spinForProfile"
	hits, samples, err := profiled(name, func() error {
		spinForProfile(time.Now().Add(300 * time.Millisecond))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits == 0 || hits > samples {
		t.Errorf("%d of %d samples on %s: want some, at most all", hits, samples, name)
	}
}

func TestCalmDelivered(t *testing.T) {
	ws := []window{
		{n: 10, sent: 10, steal: 0},
		{n: 0, sent: 10, steal: 0},    // every frame lost: still counted
		{n: 2, sent: 10, steal: 0.30}, // the host ran someone else
		{n: 10, sent: 10, steal: 0},
	}
	if got := calmDelivered(ws); got != 20.0/30 {
		t.Errorf("delivered %g, want 20 of the 30 frames due in the calm windows", got)
	}
	ws[1].steal = 0.30
	if got := calmDelivered(ws); got != 1 {
		t.Errorf("delivered %g, want 1 with both lossy windows disturbed", got)
	}
}

func TestCalmDeliveredLeavesOutTheLossiestTenth(t *testing.T) {
	ws := make([]window, 20)
	for i := range ws {
		ws[i] = window{n: 99, sent: 100}
	}
	ws[3].n, ws[11].n = 0, 50 // two stalls
	if got, want := calmDelivered(ws), 99.0/100; got != want {
		t.Errorf("delivered %g, want %g with the two stalled windows of 20 left out", got, want)
	}
	ws[5].n = 40 // a third lossy window: only the two lossiest go
	if got, want := calmDelivered(ws), (17*99.0+50)/1800; got != want {
		t.Errorf("delivered %g, want %g", got, want)
	}
}

func TestCalmestKeepsEveryWindowOfACalmRun(t *testing.T) {
	ws := make([]window, 12)
	for i := range ws {
		ws[i] = window{n: 10, steal: float64(i%3) * calmSteal / 2}
	}
	if got := len(calmest(ws)); got != 12 {
		t.Errorf("%d calm windows, want all 12 when none exceeds calmSteal", got)
	}
}
