package main

// The system under test, composed from the repository's public packages
// the way cmd/nf-pipeline composes it for -listen: a netport socket port
// feeding parse → firewall → maglev → session, each stage in its own sfi
// protection domain, with the workers as supervised domains. The only
// additions are the wrappers of layers.go around each layer's interface.

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/domain"
	"repro/internal/domain/faultinject"
	"repro/internal/firewall"
	"repro/internal/maglev"
	"repro/internal/netbricks"
	"repro/internal/netport"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/sfi"
	"repro/internal/statestore"
	"repro/internal/telemetry"
)

const (
	workers   = 2  // one per CPU of the 2-CPU host the benchmark is sized for
	batchSize = 32 // nf-pipeline's default -size
	// pollWait is how long an idle worker waits for traffic; eight empty
	// polls in a row end a run, so it also sets how long shutdown takes.
	pollWait = 25 * time.Millisecond
)

// backendIPs are the maglev backends, as nf-pipeline configures them.
func backendIPs() []packet.IPv4 {
	ips := make([]packet.IPv4, 8)
	for i := range ips {
		ips[i] = packet.Addr(10, 1, 0, byte(i+1))
	}
	return ips
}

// sutConfig is what one instance of the system under test needs.
type sutConfig struct {
	wl       workload
	seed     int64
	egress   *net.UDPAddr
	stateDir string // durable workloads only
	log      *spanLog
	tracing  *atomic.Bool
	batches  *atomic.Uint64
}

// sut is one running instance.
type sut struct {
	cfg     sutConfig
	port    *netport.Port
	tport   *tracedPort
	runner  *netbricks.ShardedRunner
	lanes   []*lane
	tables  []*session.Table
	spills  []*tracedSpill
	store   *statestore.Store
	inj     *faultinject.Injector
	started int64

	probes []int // one flow steered to each queue

	done   chan struct{}
	runErr error
	stats  netbricks.RunStats
	sopen  time.Duration // statestore.Open time
}

// startSUT builds and starts an instance; it serves once every lane
// reports served (see waitServing).
func startSUT(cfg sutConfig, flows *flowSet) (*sut, error) {
	s := &sut{cfg: cfg, started: now(), done: make(chan struct{})}
	wl := cfg.wl
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(256)
	if wl.durable {
		t0 := time.Now()
		st, err := statestore.Open(statestore.Config{Dir: cfg.stateDir, Fsync: statestore.FsyncGroup})
		if err != nil {
			return nil, fmt.Errorf("open state dir: %w", err)
		}
		s.sopen = time.Since(t0)
		st.RegisterMetrics(reg, nil)
		s.store = st
	}
	port, err := netport.Open(netport.Config{
		Listen:    "127.0.0.1:0",
		Queues:    workers,
		RingSize:  4 * batchSize,
		BatchSize: batchSize,
		CacheSize: batchSize,
		PollWait:  pollWait,
		TxTarget:  cfg.egress.String(),
		Recorder:  rec,
		// The one departure from nf-pipeline's composition: a receive
		// buffer deep enough that the no-drop rate measures processing
		// capacity, not how long a stall the kernel's default 208 KiB
		// absorbs on a host whose CPUs are shared.
		ReadBuffer: 4 << 20,
	})
	if err != nil {
		s.closeStore()
		return nil, fmt.Errorf("open port: %w", err)
	}
	port.RegisterMetrics(reg, telemetry.Labels{"port": "net0"})
	s.port = port
	for q := 0; q < workers; q++ {
		s.lanes = append(s.lanes, newLane(q, cfg.log))
	}
	s.tport = &tracedPort{BurstPort: port, lanes: s.lanes, tracing: cfg.tracing, batches: cfg.batches}
	if s.probes, err = probeFlows(port, flows); err != nil {
		s.abort()
		return nil, err
	}

	db, err := newRuleDB()
	if err != nil {
		s.abort()
		return nil, err
	}
	backends := make([]maglev.Backend, 0, 8)
	for i, ip := range backendIPs() {
		backends = append(backends, maglev.Backend{Name: "be-" + strconv.Itoa(i), IP: ip})
	}
	balancers := make([]*maglev.Balancer, workers)
	s.tables = make([]*session.Table, workers)
	var fwStates []*firewall.Stateful
	if wl.checkpointEvery > 0 {
		fwStates = make([]*firewall.Stateful, workers)
	}
	lanesByName := make(map[string]*lane, workers)
	for w := 0; w < workers; w++ {
		lanesByName["worker-"+strconv.Itoa(w)] = s.lanes[w]
		lb, err := maglev.NewBalancer(backends, maglev.DefaultTableSize)
		if err != nil {
			s.abort()
			return nil, fmt.Errorf("maglev: %w", err)
		}
		balancers[w] = lb
		s.tables[w] = session.NewTable()
		if s.store != nil {
			ix, err := s.store.FlowIndex("worker-" + strconv.Itoa(w))
			if err != nil {
				s.abort()
				return nil, fmt.Errorf("flow index: %w", err)
			}
			sp := &tracedSpill{inner: ix, lane: s.lanes[w], tracing: cfg.tracing}
			s.spills = append(s.spills, sp)
			s.tables[w].SetSpill(sp, wl.spillCap)
		}
		if fwStates != nil {
			rdb, err := newRuleDB()
			if err != nil {
				s.abort()
				return nil, err
			}
			if fwStates[w], err = firewall.NewStateful(rdb); err != nil {
				s.abort()
				return nil, fmt.Errorf("firewall state: %w", err)
			}
		}
	}
	if wl.faultShare > 0 {
		s.inj = faultinject.New(cfg.seed)
		s.inj.PanicProb = wl.faultShare
	}
	firewallOp := func(w int) netbricks.Operator {
		var op netbricks.Operator = firewall.Operator{DB: db}
		if fwStates != nil {
			op = firewall.StatefulOperator{S: fwStates[w]}
		}
		if s.inj != nil {
			op = &faultyStage{inner: op, inj: s.inj, lane: s.lanes[w]}
		}
		return s.stage(w, op, spFirewall)
	}
	stagesFor := func(w int) []netbricks.Operator {
		return []netbricks.Operator{
			s.stage(w, netbricks.Parse{}, spParse),
			firewallOp(w),
			s.stage(w, maglev.Operator{LB: balancers[w]}, spMaglev),
			s.stage(w, session.Operator{T: s.tables[w]}, spSession),
		}
	}
	s.runner = &netbricks.ShardedRunner{
		Port: s.tport, Workers: workers, BatchSize: batchSize,
		Supervise: true,
		Registry:  reg,
		Policy: domain.Policy{
			Recorder:        rec,
			CheckpointEvery: wl.checkpointEvery,
		},
		NewIsolated: func(w int) (*netbricks.IsolatedPipeline, error) {
			mgr := sfi.NewManager()
			mgr.SetRegistry(reg, telemetry.Labels{"worker": strconv.Itoa(w)})
			// Recovery re-exports a fresh firewall (fault injection stays
			// attached); the other stages are reused, as in nf-pipeline.
			recovery := []func() netbricks.Operator{nil, func() netbricks.Operator { return firewallOp(w) }, nil, nil}
			return netbricks.NewIsolatedPipeline(mgr, stagesFor(w), recovery)
		},
		AutoRecover: true,
	}
	if wl.checkpointEvery > 0 {
		s.runner.NewState = func(w int) domain.Stateful {
			set := domain.NewStateSet().
				Add("firewall", fwStates[w]).
				Add("maglev", balancers[w]).
				Add("session", s.tables[w])
			return &tracedState{inner: set, table: s.tables[w], lane: s.lanes[w], tracing: cfg.tracing}
		}
	}
	if s.store != nil {
		s.runner.Policy.Persist = &tracedStore{inner: s.store, lanes: lanesByName, tracing: cfg.tracing}
	}
	go func() {
		defer close(s.done)
		s.stats, s.runErr = s.runner.Run(math.MaxInt)
	}()
	return s, nil
}

// stage wraps one operator of worker w.
func (s *sut) stage(w int, op netbricks.Operator, kind spanKind) netbricks.Operator {
	return &tracedStage{inner: op, lane: s.lanes[w], kind: kind, first: kind == spParse, tracing: s.cfg.tracing}
}

// newRuleDB is nf-pipeline's rule set: admit the service prefix, deny
// everything else.
func newRuleDB() (*firewall.DB, error) {
	db := firewall.NewDB(firewall.Deny)
	if _, err := db.AddRule(packet.Addr(10, 99, 0, 0), 16, firewall.Rule{ID: 1, Action: firewall.Allow, Comment: "service"}); err != nil {
		return nil, fmt.Errorf("firewall rule: %w", err)
	}
	return db, nil
}

// probeFlows picks, for each receive queue, a flow the port steers to it.
func probeFlows(p *netport.Port, flows *flowSet) ([]int, error) {
	out := make([]int, p.Queues())
	found := 0
	for i := range out {
		out[i] = -1
	}
	for i, t := range flows.tuples {
		if q := p.RSSQueue(t); out[q] < 0 {
			out[q] = i
			found++
			if found == len(out) {
				return out, nil
			}
		}
	}
	return nil, errors.New("the flow set does not reach every receive queue")
}

// serving reports whether every worker has run a batch.
func (s *sut) serving() bool {
	for _, l := range s.lanes {
		if !l.served.Load() {
			return false
		}
	}
	return true
}

// waitServing probes every queue until every worker has run a batch.
func (s *sut) waitServing(g *generator) error {
	g.target(s.port.Addr().(*net.UDPAddr))
	deadline := time.Now().Add(10 * time.Second)
	for !s.serving() {
		if time.Now().After(deadline) {
			return errors.New("workers did not start serving within 10s")
		}
		select {
		case <-s.done:
			return fmt.Errorf("runner exited before serving: %v", s.runErr)
		default:
		}
		if err := g.probe(s.probes); err != nil {
			return err
		}
		nanosleep(int64(200 * time.Microsecond))
	}
	return nil
}

// stop waits for the runner to end (it ends once traffic stops), closes
// the port and the store, and records the end-of-run checks in rep.
func (s *sut) stop(rep *report) {
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		rep.check(false, "runner did not stop within 30s of the traffic ending")
		return
	}
	rep.check(s.runErr == nil, "runner: %v", s.runErr)
	snap, _ := s.runner.SupervisorSnapshot()
	rep.check(!snap.Degraded, "a worker exhausted its restart budget")
	if s.cfg.wl.checkpointEvery > 0 {
		// A process restart restores each worker once at spawn, from
		// its durable epoch, before any fault could be recovered.
		var boot uint64
		for _, l := range s.lanes {
			boot += uint64(l.bootRestores.Load())
		}
		rep.check(snap.Restores+snap.ColdStarts == uint64(s.stats.Recovered)+boot,
			"restores %d + cold starts %d != recovered faults %d (+%d restores at boot)", snap.Restores, snap.ColdStarts, s.stats.Recovered, boot)
	}
	err := s.port.Close()
	rep.check(err == nil, "port close: %v", err)
	st := &s.port.Stats
	rx, del, rf, pe, pm := st.RxDatagrams.Load(), st.RxPackets.Load(), st.RingFull.Load(), st.ParseError.Load(), st.PoolEmpty.Load()
	rep.check(rx == del+rf+pe+pm, "rx_datagrams %d != delivered %d + ring_full %d + parse_error %d + pool_empty %d", rx, del, rf, pe, pm)
	avail, capacity := s.port.PoolAvailable(), s.port.PoolCapacity()
	rep.check(avail == capacity, "mbuf pool holds %d of %d after close", avail, capacity)
	if s.store != nil {
		err := s.closeStore()
		rep.check(err == nil, "state store close: %v", err)
	}
}

// abort tears down a half-built instance.
func (s *sut) abort() {
	if s.port != nil {
		s.port.Close()
	}
	s.closeStore()
}

func (s *sut) closeStore() error {
	if s.store == nil {
		return nil
	}
	err := s.store.Close()
	s.store = nil
	return err
}
