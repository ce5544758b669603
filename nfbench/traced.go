package main

// The traced run: per-layer numbers from the wrappers' spans and the
// layers' exported counters, over a fixed-rate trial with tracing on,
// compared with an identical trial with tracing off.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// sessionCounters sums the session tables' spill counters.
type sessionCounters struct{ spilled, promoted, hotTouched uint64 }

func readSessions(s *sut) sessionCounters {
	var c sessionCounters
	for _, t := range s.tables {
		sp, pr, _ := t.SpillStats()
		c.spilled += sp
		c.promoted += pr
		c.hotTouched += t.HotTouched()
	}
	return c
}

func (b *bench) runTraced(rep *report) error {
	if err := b.open(); err != nil {
		return err
	}
	budget := b.budget.Seconds()
	s, _, err := b.start("")
	if err != nil {
		if s != nil {
			s.stop(rep)
		}
		return err
	}
	if _, err := b.trial(b.wl.rate, secs(b.wl.warmup*budget)); err != nil {
		s.stop(rep)
		return err
	}
	base, err := b.measureFixed(s, secs(0.2*budget))
	if err != nil {
		s.stop(rep)
		return err
	}
	ndr, ndrNote, err := b.ndr(rep, secs(0.35*budget))
	if err != nil {
		s.stop(rep)
		return err
	}

	// The traced trial.
	b.log.reset()
	for _, l := range s.lanes {
		l.emptyPolls.Store(0)
		l.mu.Lock()
		l.faultToServe = nil
		l.mu.Unlock()
	}
	sess0 := readSessions(s)
	sup0, _ := s.runner.SupervisorSnapshot()
	var store0 storeCounters
	if s.store != nil {
		store0 = readStore(s)
	}
	var tr fixedRun
	b.tracing.Store(true)
	rxHits, samples, err := profiled(rxLoopFunc, func() error {
		var ferr error
		tr, ferr = b.measureFixed(s, secs(0.2*budget))
		return ferr
	})
	b.tracing.Store(false)
	if err != nil {
		s.stop(rep)
		return err
	}
	spans, dropped := b.log.snapshot()
	sess := readSessions(s)
	sup, _ := s.runner.SupervisorSnapshot()
	var store storeCounters
	if s.store != nil {
		store = readStore(s)
	}
	var flowsRAM int
	for _, t := range s.tables {
		flowsRAM += t.Len()
	}
	var lookups, hits uint64
	for _, sp := range s.spills {
		lookups += sp.lookups.Load()
		hits += sp.hits.Load()
	}
	var emptyPolls uint64
	var faultToServe []int64
	for _, l := range s.lanes {
		emptyPolls += l.emptyPolls.Load()
		l.mu.Lock()
		faultToServe = append(faultToServe, l.faultToServe...)
		l.mu.Unlock()
	}
	// The restart path, for the store-open, epoch-lookup, decode and
	// restore costs behind restart_s.
	b.log.reset()
	b.lastOpen = 0
	if _, _, err := b.restarts(rep, s, 1); err != nil {
		return err
	}
	restartSpans, _ := b.log.snapshot()
	openS := b.lastOpen.Seconds()

	if err := writeSpanFile(filepath.Join(b.workdir, "spans-"+b.wl.name+".txt"), spans); err != nil {
		return err
	}

	t := summarise(spans)
	rt := summarise(restartSpans)
	port := tr.rxAfter.sub(tr.rxBefore)
	perPkt := func(k spanKind, self bool) float64 {
		v := t.total[k]
		if self {
			v = t.self[k]
		}
		return ratio(float64(v), float64(t.pkts[k]))
	}
	busy := t.total[spBatch] + t.total[spCapture] + t.total[spEncode] + t.total[spPersist]
	baseCPU := float64(base.sutCPU) / float64(max(base.trial.Received, 1))
	trCPU := float64(tr.sutCPU) / float64(max(tr.trial.Received, 1))
	gaps, gapBatches := stageGaps(spans)
	late99, _ := tailQuantile(tr.late, 0.99)

	base.print()
	lat50, lat99 := latencyFigures(base.windows)
	// Without checkpoints the age is just the time since start, which
	// host steal cannot move: every window counts, or the choice of calm
	// windows would decide it.
	ages := calmAges(base.windows)
	if b.wl.checkpointEvery == 0 {
		ages = allAges(base.windows)
	}
	age99, _ := tailQuantile(ages, 0.99)
	rep.add("ndr_pps", ndr, "1/s", ndrNote)
	rep.add("lat_p50_us", lat50, "us", fmt.Sprintf("untraced trial: %s of each window's p50, at %.0f pps", calmNote(base.windows), base.trial.Rate))
	rep.add("lat_p99_us", lat99, "us", fmt.Sprintf("untraced trial: %s of each window's p99, at %.0f pps", calmNote(base.windows), base.trial.Rate))
	rep.add("durable_age_p99_ms", age99.Value, "ms", "untraced trial: "+quantNote(age99, 0)+"; "+ageBasis(b.wl))
	rxShare := ratio(float64(rxHits), float64(samples))
	rep.add("netport.rx_ns_per_pkt", rxShare*float64(tr.procCPU)/float64(max(port.rxDatagrams, 1)), "ns",
		fmt.Sprintf("receive loop's share of CPU profile samples (%.1f%% of %d) times process CPU, per datagram", 100*rxShare, samples))
	rep.add("netport.tx_ns_per_pkt", perPkt(spTx, false), "ns", "transmit call (sendmmsg to the sink) per frame")
	rep.add("netport.dgrams_per_syscall", ratio(float64(port.rxDatagrams), float64(port.rxBatches)), "count", "datagrams per recvmmsg")
	rep.add("packet.parse_ns_per_pkt", perPkt(spParse, true), "ns", "self time per packet")
	rep.add("firewall.ns_per_pkt", perPkt(spFirewall, true), "ns", "self time per packet")
	rep.add("maglev.ns_per_pkt", perPkt(spMaglev, true), "ns", "self time per packet")
	rep.add("session.ns_per_pkt", perPkt(spSession, true), "ns", "self time per packet, flow-index calls excluded")
	rep.add("sfi.gap_ns_per_batch", ratio(float64(gaps), float64(gapBatches)), "ns", "time between consecutive stages, summed per batch")
	rep.add("netbricks.batch_fill", ratio(float64(t.pkts[spBatch]), float64(t.count[spBatch])), "count", "packets per batch")
	rep.add("netbricks.batch_ns_p50", spanQuantile(spans, spBatch, 0.5), "ns", "first stage start to transmit end")
	rep.add("netport.rx_empty_polls", float64(emptyPolls), "count", "receive polls that returned nothing")
	rep.add("domain.mailbox_wait_us", spanQuantile(spans, spMailbox, 0.5)/1e3, "us", "p50, feeder receive return to first stage start")
	rep.add("netport.ring_full", float64(port.ringFull), "count", "")
	rep.add("netport.pool_empty", float64(port.poolEmpty), "count", "")
	rep.add("netport.parse_error", float64(port.parseError), "count", "")
	rep.add("netport.kernel_loss", float64(max(int64(tr.trial.Sent)-int64(port.rxDatagrams), 0)), "count", "frames sent minus datagrams the port read")
	rep.add("mempool.pool_min_available", float64(tr.poolMin), "count", "lowest free mbuf count sampled every 5ms")
	rep.add("session.spilled", float64(sess.spilled-sess0.spilled), "count", "")
	rep.add("session.promoted", float64(sess.promoted-sess0.promoted), "count", "")
	rep.add("session.hot_touched", float64(sess.hotTouched-sess0.hotTouched), "count", "")
	rep.add("session.flows_ram", float64(flowsRAM), "count", "RAM session flows at the end of the traced trial")
	rep.add("statestore.spill_ns_per_flow", perPkt(spSpill, false), "ns", "")
	rep.add("statestore.lookup_ns", ratio(float64(t.total[spLookup]), float64(t.count[spLookup])), "ns", "")
	rep.add("statestore.lookup_hit_ratio", ratio(float64(hits), float64(lookups)), "ratio", "")
	rep.add("checkpoint.captures", float64(t.count[spCapture]), "count", "")
	rep.add("checkpoint.capture_ms_p50", spanQuantile(spans, spCapture, 0.5)/1e6, "ms", "")
	rep.add("checkpoint.capture_ms_max", spanQuantile(spans, spCapture, 1)/1e6, "ms", "")
	rep.add("checkpoint.capture_busy_share", ratio(float64(t.total[spCapture]), float64(busy)), "ratio", "capture time over worker busy time")
	rep.add("checkpoint.flows_per_capture", ratio(float64(t.pkts[spCapture]), float64(t.count[spCapture])), "count", "RAM session flows per capture")
	rep.add("checkpoint.encode_ms_p50", spanQuantile(spans, spEncode, 0.5)/1e6, "ms", "")
	rep.add("statestore.persists", float64(t.count[spPersist]), "count", "")
	rep.add("statestore.persist_ms_p50", spanQuantile(spans, spPersist, 0.5)/1e6, "ms", "")
	rep.add("statestore.persist_ms_p99", spanQuantile(spans, spPersist, 0.99)/1e6, "ms", "")
	rep.add("statestore.bytes_per_epoch", ratio(float64(t.pkts[spPersist]), float64(t.count[spPersist])), "B", "")
	rep.add("statestore.fsyncs_per_epoch", ratio(float64(store.fsyncs-store0.fsyncs), float64(store.persisted-store0.persisted)), "ratio", "")
	rep.add("statestore.compactions", float64(store.compactions-store0.compactions), "count", "")
	rep.add("statestore.wal_bytes", float64(store.walBytes), "B", "WAL size at the end of the traced trial")
	rep.add("statestore.open_s", openS, "s", "restart: reopen the state dir")
	rep.add("statestore.last_epoch_ms", ratio(float64(rt.total[spLastEpoch]), float64(rt.count[spLastEpoch]))/1e6, "ms", "restart: newest durable epoch lookup, per worker")
	rep.add("checkpoint.decode_ms", ratio(float64(rt.total[spDecode]), float64(rt.count[spDecode]))/1e6, "ms", "restart: token decode, per worker")
	restore := t
	if t.count[spRestore] == 0 {
		restore = rt
	}
	rep.add("checkpoint.restore_ms", ratio(float64(restore.total[spRestore]), float64(restore.count[spRestore]))/1e6, "ms", "per restore")
	fts := toFloats(faultToServe, 1e6)
	fts50, _ := tailQuantile(fts, 0.5)
	rep.add("domain.fault_to_serve_ms_p50", fts50.Value, "ms", fmt.Sprintf("%d faults", len(fts)))
	rep.add("domain.fault_to_serve_ms_max", slicesMax(fts), "ms", "")
	rep.add("domain.restores", float64(sup.Restores-sup0.Restores), "count", "")
	rep.add("domain.cold_starts", float64(sup.ColdStarts-sup0.ColdStarts), "count", "")
	rep.add("loadgen.late_p99_us", late99.Value, "us", quantNote(late99, tr.trial.Rate))
	rep.add("loadgen.loss_ratio", tr.trial.Loss(), "ratio", "traced trial")
	rep.add("loadgen.sink_overflows", float64(max(b.sink.overflows.Load(), 0)), "count", "frames the sink's own socket dropped")
	rep.add("trace.overhead_ratio", ratio(trCPU, baseCPU)-1, "ratio", fmt.Sprintf("CPU per frame traced %.0fns vs untraced %.0fns", trCPU, baseCPU))
	rep.add("trace.residual_ratio", ratio(float64(t.self[spBatch]), float64(busy)), "ratio", "worker busy time no layer span covers")
	rep.add("trace.spans", float64(len(spans)), "count", fmt.Sprintf("%d dropped", dropped))
	rep.check(dropped == 0, "the span log overflowed: %d spans dropped", dropped)
	return nil
}

// storeCounters is a snapshot of the state store's exported counters.
type storeCounters struct{ persisted, fsyncs, compactions, walBytes uint64 }

func readStore(s *sut) storeCounters {
	st := s.store.StatsSnapshot()
	return storeCounters{st.Persisted, st.Fsyncs, st.Compactions, uint64(st.WALBytes)}
}

// stageGaps sums, over every batch that ran all four stages, the time
// between one stage span's end and the next one's start: the protection
// domain crossings between stages.
func stageGaps(spans []span) (total int64, batches int) {
	type stages struct {
		start, end [4]int64
		seen       int
	}
	byBatch := map[uint32]*stages{}
	for _, s := range spans {
		if s.kind < spParse || s.kind > spSession || s.parent == 0 || s.end == 0 {
			continue
		}
		st := byBatch[s.parent]
		if st == nil {
			st = &stages{}
			byBatch[s.parent] = st
		}
		i := s.kind - spParse
		st.start[i], st.end[i] = s.start, s.end
		st.seen++
	}
	for _, st := range byBatch {
		if st.seen != 4 {
			continue
		}
		for i := 1; i < 4; i++ {
			total += st.start[i] - st.end[i-1]
		}
		batches++
	}
	return total, batches
}

// spanQuantile is a quantile of the finished spans' durations of kind
// (q = 1 gives the maximum); 0 when there are none.
func spanQuantile(spans []span, kind spanKind, q float64) float64 {
	var d []float64
	for _, s := range spans {
		if s.kind == kind && s.end != 0 {
			d = append(d, float64(s.end-s.start))
		}
	}
	if len(d) == 0 {
		return 0
	}
	if q >= 1 {
		return slicesMax(d)
	}
	v, _ := tailQuantile(d, q)
	return v.Value
}

func slicesMax(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
