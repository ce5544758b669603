package main

// Per-layer instrumentation from outside the program: each wrapper here
// implements one layer's public interface — netbricks.BurstPort,
// netbricks.Operator, domain.Stateful with domain.TokenCodec,
// domain.Persister and session.Spill — delegates to the real
// implementation, and, while tracing is on, times the call into a span.
// Untraced, a wrapper costs one atomic load and the call it forwards.

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/domain"
	"repro/internal/domain/faultinject"
	"repro/internal/netbricks"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/statestore"
)

// now is the span clock: wall nanoseconds, comparable with the kernel
// receive stamps the sink reads.
func now() int64 { return time.Now().UnixNano() }

// rxRec is a batch the feeder received and the worker has not started.
type rxRec struct {
	first *packet.Packet
	at    int64
	batch uint64
}

// lane is one worker's instrumentation state.
type lane struct {
	w      int
	log    *spanLog
	served atomic.Bool // the worker ran its first batch

	// Handed from the feeder goroutine to the worker goroutine.
	mu   sync.Mutex
	rxq  []rxRec
	root uint32 // open batch span, 0 when none
	cur  uint32 // open stage span, parent of layer calls made inside it

	emptyPolls atomic.Uint64

	// State bookkeeping, written by the worker's serving goroutine (and
	// the monitor for restores).
	ckptFlows     atomic.Int64 // RAM flows in the newest capture
	durableFlows  atomic.Int64 // RAM flows in the newest durable epoch
	restoredFlows atomic.Int64 // RAM flows after the latest restore, -1 before any
	bootRestores  atomic.Int64 // restores from a durable epoch before the first batch
	lastCapture   atomic.Int64 // completion time of the newest capture
	lastDurable   atomic.Int64 // completion time of the newest durable epoch
	faultAt       atomic.Int64 // time of an injected fault not yet followed by a batch
	faultToServe  []int64      // guarded by mu
}

func newLane(w int, log *spanLog) *lane {
	l := &lane{w: w, log: log}
	l.restoredFlows.Store(-1)
	return l
}

// pushRx queues a received batch for the worker (feeder side).
func (l *lane) pushRx(r rxRec) {
	l.mu.Lock()
	if len(l.rxq) < 64 {
		l.rxq = append(l.rxq, r)
	}
	l.mu.Unlock()
}

// popRx finds the received batch whose first packet is first, dropping
// older records of batches that never reached the worker.
func (l *lane) popRx(first *packet.Packet) (rxRec, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, r := range l.rxq {
		if r.first == first {
			l.rxq = append(l.rxq[:0], l.rxq[i+1:]...)
			return r, true
		}
	}
	return rxRec{}, false
}

// tracedPort wraps the socket port the runner polls and transmits on.
type tracedPort struct {
	netbricks.BurstPort
	lanes   []*lane
	tracing *atomic.Bool
	batches *atomic.Uint64
}

func (p *tracedPort) RxBurstQueue(q int, out []*packet.Packet) int {
	if !p.tracing.Load() {
		return p.BurstPort.RxBurstQueue(q, out)
	}
	l := p.lanes[q]
	t0 := now()
	n := p.BurstPort.RxBurstQueue(q, out)
	t1 := now()
	if n == 0 {
		l.emptyPolls.Add(1)
		return 0
	}
	id := p.batches.Add(1)
	l.log.add(span{kind: spRx, worker: uint8(q), batch: id, start: t0, end: t1, pkts: uint32(n)})
	l.pushRx(rxRec{first: out[0], at: t1, batch: id})
	return n
}

func (p *tracedPort) TxBurstQueue(q int, pkts []*packet.Packet) int {
	if !p.tracing.Load() {
		return p.BurstPort.TxBurstQueue(q, pkts)
	}
	l := p.lanes[q]
	t0 := now()
	n := p.BurstPort.TxBurstQueue(q, pkts)
	t1 := now()
	if root := l.root; root != 0 {
		l.log.add(span{kind: spTx, worker: uint8(q), parent: root, start: t0, end: t1, pkts: uint32(len(pkts))})
		l.log.close(root, t1)
		l.root = 0
	}
	return n
}

// tracedStage wraps one pipeline operator of one worker.
type tracedStage struct {
	inner   netbricks.Operator
	lane    *lane
	kind    spanKind
	first   bool
	tracing *atomic.Bool
}

func (s *tracedStage) Name() string { return s.inner.Name() }

func (s *tracedStage) ProcessBatch(b *netbricks.Batch) error {
	l := s.lane
	if s.first {
		if !l.served.Load() {
			l.served.Store(true)
		}
		if at := l.faultAt.Load(); at != 0 && l.faultAt.CompareAndSwap(at, 0) {
			d := now() - at
			l.mu.Lock()
			l.faultToServe = append(l.faultToServe, d)
			l.mu.Unlock()
		}
	}
	if !s.tracing.Load() {
		return s.inner.ProcessBatch(b)
	}
	t0 := now()
	if s.first {
		s.openBatch(b, t0)
	}
	id := l.log.open(span{kind: s.kind, worker: uint8(l.w), parent: l.root, start: t0, pkts: uint32(len(b.Pkts))})
	l.cur = id
	err := s.inner.ProcessBatch(b)
	l.cur = 0
	l.log.close(id, now())
	return err
}

// openBatch starts the batch span at the first stage, joining it to the
// feeder's receive by the batch's first packet.
func (s *tracedStage) openBatch(b *netbricks.Batch, t0 int64) {
	l := s.lane
	if l.root != 0 {
		// The previous batch faulted before transmit: end it where its
		// last finished stage ended, so the failed stage counts nowhere.
		l.log.abandon(l.root)
		l.root = 0
	}
	var id uint64
	if len(b.Pkts) > 0 {
		if r, ok := l.popRx(b.Pkts[0]); ok {
			id = r.batch
			l.log.add(span{kind: spMailbox, worker: uint8(l.w), batch: id, start: r.at, end: t0})
		}
	}
	l.root = l.log.open(span{kind: spBatch, worker: uint8(l.w), batch: id, start: t0, pkts: uint32(len(b.Pkts))})
}

// faultyStage is the crash-restore workload's fault injection, shaped
// like nf-pipeline's -crashrate stage: a seeded injector rolls once per
// batch at the firewall and panics on a fixed share of them.
type faultyStage struct {
	inner netbricks.Operator
	inj   *faultinject.Injector
	lane  *lane
}

func (f *faultyStage) Name() string { return f.inner.Name() }

func (f *faultyStage) ProcessBatch(b *netbricks.Batch) error {
	defer func() {
		if p := recover(); p != nil {
			f.lane.faultAt.Store(now())
			panic(p)
		}
	}()
	f.inj.Point(f.inner.Name())
	return f.inner.ProcessBatch(b)
}

// tracedState wraps a worker's checkpointed NF state (the firewall,
// maglev and session state set) and its codec.
type tracedState struct {
	inner   *domain.StateSet
	table   *session.Table
	lane    *lane
	tracing *atomic.Bool
}

func (s *tracedState) Checkpoint(e *checkpoint.Engine) (any, error) {
	flows := s.table.Len()
	t0 := now()
	tok, err := s.inner.Checkpoint(e)
	t1 := now()
	if err == nil {
		s.lane.ckptFlows.Store(int64(flows))
		s.lane.lastCapture.Store(t1)
	}
	if s.tracing.Load() {
		s.lane.log.add(span{kind: spCapture, worker: uint8(s.lane.w), start: t0, end: t1, pkts: uint32(flows)})
	}
	return tok, err
}

func (s *tracedState) Restore(token any) error {
	t0 := now()
	err := s.inner.Restore(token)
	t1 := now()
	if err == nil {
		s.lane.restoredFlows.Store(int64(s.table.Len()))
		if !s.lane.served.Load() {
			s.lane.bootRestores.Add(1)
		}
	}
	s.lane.log.add(span{kind: spRestore, worker: uint8(s.lane.w), start: t0, end: t1})
	return err
}

func (s *tracedState) Reset() { s.inner.Reset() }

func (s *tracedState) EncodeToken(token any) ([]byte, error) {
	t0 := now()
	b, err := s.inner.EncodeToken(token)
	if s.tracing.Load() {
		s.lane.log.add(span{kind: spEncode, worker: uint8(s.lane.w), start: t0, end: now(), pkts: uint32(len(b))})
	}
	return b, err
}

func (s *tracedState) DecodeToken(data []byte) (any, error) {
	t0 := now()
	tok, err := s.inner.DecodeToken(data)
	s.lane.log.add(span{kind: spDecode, worker: uint8(s.lane.w), start: t0, end: now(), pkts: uint32(len(data))})
	return tok, err
}

// tracedStore wraps the durable epoch store the supervisor persists to.
type tracedStore struct {
	inner   *statestore.Store
	lanes   map[string]*lane
	tracing *atomic.Bool
}

func (s *tracedStore) PersistEpoch(name string, seq uint64, payload []byte) error {
	l := s.lanes[name]
	t0 := now()
	err := s.inner.PersistEpoch(name, seq, payload)
	t1 := now()
	if err == nil {
		l.durableFlows.Store(l.ckptFlows.Load())
		l.lastDurable.Store(t1)
	}
	if s.tracing.Load() {
		l.log.add(span{kind: spPersist, worker: uint8(l.w), start: t0, end: t1, pkts: uint32(len(payload))})
	}
	return err
}

func (s *tracedStore) LastEpoch(name string) ([]byte, uint64, bool, error) {
	l := s.lanes[name]
	t0 := now()
	b, seq, ok, err := s.inner.LastEpoch(name)
	l.log.add(span{kind: spLastEpoch, worker: uint8(l.w), start: t0, end: now()})
	return b, seq, ok, err
}

// tracedSpill wraps a worker's on-disk flow index.
type tracedSpill struct {
	inner   *statestore.FlowIndex
	lane    *lane
	tracing *atomic.Bool
	hits    atomic.Uint64
	lookups atomic.Uint64
	flows   atomic.Uint64
}

func (s *tracedSpill) SpillFlows(recs []session.SpillRecord) error {
	if !s.tracing.Load() {
		return s.inner.SpillFlows(recs)
	}
	t0 := now()
	err := s.inner.SpillFlows(recs)
	s.flows.Add(uint64(len(recs)))
	s.lane.log.add(span{kind: spSpill, worker: uint8(s.lane.w), parent: s.lane.cur, start: t0, end: now(), pkts: uint32(len(recs))})
	return err
}

func (s *tracedSpill) LookupFlow(hash uint64) (session.SpillRecord, bool, error) {
	if !s.tracing.Load() {
		return s.inner.LookupFlow(hash)
	}
	t0 := now()
	rec, ok, err := s.inner.LookupFlow(hash)
	s.lookups.Add(1)
	if ok {
		s.hits.Add(1)
	}
	s.lane.log.add(span{kind: spLookup, worker: uint8(s.lane.w), parent: s.lane.cur, start: t0, end: now()})
	return rec, ok, err
}

func (s *tracedSpill) FlowCount() (int, error) { return s.inner.FlowCount() }

var (
	_ netbricks.BurstPort = (*tracedPort)(nil)
	_ netbricks.Operator  = (*tracedStage)(nil)
	_ domain.Stateful     = (*tracedState)(nil)
	_ domain.TokenCodec   = (*tracedState)(nil)
	_ domain.Persister    = (*tracedStore)(nil)
	_ session.Spill       = (*tracedSpill)(nil)
)
