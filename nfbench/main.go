// Command nfbench is the repository's benchmark: the supervised,
// isolated parse → firewall → maglev → session pipeline on a netport
// socket port, offered open-loop UDP traffic over the loopback interface
// and measured end to end (untraced) or layer by layer (traced).
//
//	bash nfbench/run.sh --workload fwd64 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. A run whose outputs fail a check prints
// correct=false and exits 1. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one traffic mix and pipeline configuration.
type workload struct {
	name            string
	flows           int
	zipf            float64 // Zipf exponent of flow popularity; 0 = uniform
	rate            float64 // fixed offered rate for latency, loss and CPU, frames/s
	ndrStart        float64 // first rate of the NDR search, frames/s
	checkpointEvery time.Duration
	durable         bool
	spillCap        int     // session RAM cap per worker (0 = unbounded)
	faultShare      float64 // share of batches whose firewall call panics
	warmup          float64 // share of the run spent warming up
}

// The fixed rates sit below each workload's knee on a 2-vCPU virtual
// machine, where the no-drop rate measured roughly 60-90k pps for fwd64
// and 40-50k for churn-durable, so the fixed-rate trial describes a
// pipeline that keeps up. They are high enough that batches start to
// fill: at a trickle of traffic, CPU per frame prices each frame's
// wake-ups more than its path through the stages, and it drifts with
// the host. crash-restore offers fwd64's traffic. churn-durable's 512
// flows per worker over a 192-flow RAM cap keep the live population
// above the cap, so the session table spills and promotes, at the low
// end of the flow counts a 10 ms epoch sustains.
var workloads = map[string]workload{
	"fwd64": {
		name: "fwd64", flows: 1024, rate: 30000, ndrStart: 15000, warmup: 0.03,
	},
	"churn-durable": {
		name: "churn-durable", flows: 1024, zipf: 1.1, rate: 20000, ndrStart: 8000,
		checkpointEvery: 10 * time.Millisecond, durable: true, spillCap: 192, warmup: 0.08,
	},
	"crash-restore": {
		name: "crash-restore", flows: 1024, rate: 30000, ndrStart: 15000,
		checkpointEvery: 10 * time.Millisecond, faultShare: 1.0 / 4096, warmup: 0.03,
	},
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// report collects a run's metrics and check results.
type report struct {
	metrics   []metric
	attempted uint64
	failures  []string
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// fail records checks that failed outright.
func (r *report) fail(failures ...string) {
	r.attempted += uint64(len(failures))
	r.failures = append(r.failures, failures...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: fwd64, churn-durable or crash-restore")
		seed    = flag.Int64("seed", 1, "seed for flow choice and fault injection")
		seconds = flag.Int("seconds", 30, "measured time of the run")
		traced  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced end-to-end run")
		workdir = flag.String("workdir", ".bench_build/nfbench", "directory for state directories and the traced run's spans")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "nfbench: need --workload fwd64|churn-durable|crash-restore, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	// The main goroutine is the generator: pacing sleeps its OS thread,
	// and that thread's CPU clock is the generator's cost.
	runtime.LockOSThread()
	b := &bench{wl: wl, seed: *seed, budget: time.Duration(*seconds) * time.Second, workdir: *workdir}
	rep := &report{}
	var err error
	if *traced == 1 {
		err = b.runTraced(rep)
	} else {
		err = b.runEndToEnd(rep)
	}
	if err != nil {
		rep.fail(err.Error())
	}
	b.close()
	if sinkErrs := b.sinkFailures(); len(sinkErrs) > 0 {
		rep.fail(sinkErrs...)
	}
	rep.attempted += b.sinkChecked()
	printReport(rep, b.provenance())
	if len(rep.failures) > 0 {
		os.Exit(1)
	}
}

// bench holds one run's traffic endpoints and shared instrumentation.
type bench struct {
	wl      workload
	seed    int64
	budget  time.Duration
	workdir string

	flows   *flowSet
	gen     *generator
	sink    *sink
	pubSeq  atomic.Uint64
	log     *spanLog
	tracing atomic.Bool
	batches atomic.Uint64
	dirs    []string

	lastOpen time.Duration // statestore.Open time of the latest instance
}

// open creates the flow set, sink and generator.
func (b *bench) open() error {
	fs, err := newFlowSet(b.wl.flows)
	if err != nil {
		return err
	}
	b.flows = fs
	rng := rand.New(rand.NewSource(b.seed))
	var pick picker = uniformPicker{rng: rng, n: b.wl.flows}
	if b.wl.zipf > 0 {
		pick = zipfPicker{z: rand.NewZipf(rng, b.wl.zipf, 1, uint64(b.wl.flows-1))}
	}
	if b.sink, err = newSink(backendIPs(), &b.pubSeq); err != nil {
		return err
	}
	if b.gen, err = newGenerator(fs, pick, &b.pubSeq); err != nil {
		return err
	}
	b.log = newSpanLog(4 << 20)
	return nil
}

func (b *bench) close() {
	if b.gen != nil {
		b.gen.close()
	}
	if b.sink != nil {
		b.sink.close()
	}
	for _, d := range b.dirs {
		os.RemoveAll(d)
	}
}

// stateDir makes a fresh, empty state directory inside the work dir.
func (b *bench) stateDir() (string, error) {
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		return "", fmt.Errorf("work dir: %w", err)
	}
	d, err := os.MkdirTemp(b.workdir, "state-")
	if err != nil {
		return "", fmt.Errorf("state dir: %w", err)
	}
	b.dirs = append(b.dirs, d)
	return d, nil
}

// startCost is what bringing an instance up took, from the first call
// into the pipeline's packages until every worker serves.
type startCost struct {
	wall time.Duration
	// cpu is the process's CPU time less the sink thread's (the build
	// runs on the generator's thread, so that one stays in). The work is
	// CPU-bound and mostly serial, so on an unshared host it matches the
	// wall time; unlike the wall time it leaves out time the hypervisor
	// ran something else on this guest's CPUs, which the kernel keeps
	// out of its CPU clocks.
	cpu time.Duration
}

// start builds an instance on stateDir (a fresh one when empty) and
// returns it once every worker serves, with what that took.
func (b *bench) start(dir string) (*sut, startCost, error) {
	if b.wl.durable && dir == "" {
		var err error
		if dir, err = b.stateDir(); err != nil {
			return nil, startCost{}, err
		}
	}
	// A restarted process starts with an empty heap: collect what the
	// earlier instances and trials left, so that neither the collection
	// nor the heap it leaves depends on when the runtime last ran one.
	runtime.GC()
	cpu0 := processCPU() - b.sink.cpu()
	t0 := time.Now()
	s, err := startSUT(sutConfig{
		wl: b.wl, seed: b.seed, egress: b.sink.Addr(), stateDir: dir,
		log: b.log, tracing: &b.tracing, batches: &b.batches,
	}, b.flows)
	if err != nil {
		return nil, startCost{}, err
	}
	b.lastOpen = s.sopen
	if err := s.waitServing(b.gen); err != nil {
		return s, startCost{}, err
	}
	wall := time.Since(t0)
	return s, startCost{wall: wall, cpu: time.Duration(processCPU() - b.sink.cpu() - cpu0)}, nil
}

// trial offers rate for dur, waits for the pipeline to drain, and counts
// what reached the sink.
func (b *bench) trial(rate float64, dur time.Duration) (trialResult, error) {
	st0 := hostSteal()
	r, err := b.gen.run(rate, dur)
	r.Steal = hostSteal().sub(st0).stealShare()
	if err != nil {
		return r, err
	}
	time.Sleep(drainWait)
	if err := b.sink.flush(b.gen); err != nil {
		return r, err
	}
	r.Received = b.sink.countSeen(r.FirstSeq, r.EndSeq)
	return r, nil
}

// drainWait is how long a trial waits after its last frame for frames
// still queued in the pipeline; well under the idle time that ends a run.
const drainWait = 60 * time.Millisecond

// fixedRun is one measurement at the workload's fixed offered rate.
type fixedRun struct {
	trial    trialResult
	windows  []window
	late     []float64 // generator lateness, µs
	sutCPU   int64     // ns
	procCPU  int64     // ns, the whole process
	poolMin  int
	gcs      uint32
	gcPause  time.Duration
	steal    cpuTimes
	rxBefore portCounters
	rxAfter  portCounters
}

// measureFixed runs one fixed-rate trial with latency, CPU and sampler
// recording around it.
func (b *bench) measureFixed(s *sut, dur time.Duration) (fixedRun, error) {
	var fr fixedRun
	b.sink.latencyWindow(b.gen.seq, int(b.wl.rate*dur.Seconds()))
	if b.tracing.Load() {
		// Only the traced trial reports the generator's lateness.
		b.gen.late = make([]int64, 0, int(b.wl.rate*dur.Seconds())+burstMax)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ages []ageSample
	var steals []stealMark
	poolMin := math.MaxInt
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			ts := now()
			if i%5 == 0 {
				steals = append(steals, stealMark{at: ts, times: hostSteal(),
					sutCPU: processCPU() - threadCPU(b.gen.tid) - b.sink.cpu()})
			}
			for _, l := range s.lanes {
				ref := s.started
				switch {
				case b.wl.durable:
					ref = max(ref, l.lastDurable.Load())
				case b.wl.checkpointEvery > 0:
					ref = max(ref, l.lastCapture.Load())
				}
				ages = append(ages, ageSample{at: ts, ms: float64(ts-ref) / 1e6})
			}
			poolMin = min(poolMin, s.port.PoolAvailable())
		}
	}()
	fr.rxBefore = readPort(s)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st0 := hostSteal()
	proc0, gen0, sink0 := processCPU(), threadCPU(b.gen.tid), b.sink.cpu()
	r, err := b.gen.run(b.wl.rate, dur)
	if err == nil {
		time.Sleep(drainWait)
	}
	proc1, gen1, sink1 := processCPU(), threadCPU(b.gen.tid), b.sink.cpu()
	st1 := hostSteal()
	runtime.ReadMemStats(&ms1)
	fr.gcs = ms1.NumGC - ms0.NumGC
	fr.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	fr.steal = st1.sub(st0)
	close(stop)
	wg.Wait()
	fr.rxAfter = readPort(s)
	if err != nil {
		return fr, err
	}
	lat, err := b.sink.takeLatency(b.gen)
	if err != nil {
		return fr, err
	}
	r.Received = b.sink.countSeen(r.FirstSeq, r.EndSeq)
	fr.trial = r
	fr.windows = windowsOf(lat, ages, steals, r, dur)
	fr.late = toFloats(b.gen.late, 1e3)
	b.gen.late = nil
	fr.procCPU = proc1 - proc0
	fr.sutCPU = fr.procCPU - (gen1 - gen0) - (sink1 - sink0)
	fr.poolMin = poolMin
	return fr, nil
}

// portCounters is a snapshot of the port's exported counters.
type portCounters struct {
	rxDatagrams, rxBatches, ringFull, parseError, poolEmpty uint64
}

func readPort(s *sut) portCounters {
	st := &s.port.Stats
	return portCounters{
		rxDatagrams: st.RxDatagrams.Load(), rxBatches: st.RxBatches.Load(),
		ringFull: st.RingFull.Load(), parseError: st.ParseError.Load(), poolEmpty: st.PoolEmpty.Load(),
	}
}

func (a portCounters) sub(b portCounters) portCounters {
	return portCounters{
		a.rxDatagrams - b.rxDatagrams, a.rxBatches - b.rxBatches,
		a.ringFull - b.ringFull, a.parseError - b.parseError, a.poolEmpty - b.poolEmpty,
	}
}

// restartRuns is how many restarts an untraced run times; restart_s is
// the median of their CPU times. Each ends with a stop that waits for
// the workers to go idle, so they span about five seconds and, on
// churn-durable, several WAL compaction cycles.
const restartRuns = 21

// setups is how many times an untraced run sets the pipeline up; setup_s
// is the median of their CPU times.
const setups = 21

// runEndToEnd is the untraced run: set-up time, then delivery and CPU at
// the fixed rate, restart time and peak memory.
func (b *bench) runEndToEnd(rep *report) error {
	if err := b.open(); err != nil {
		return err
	}
	budget := b.budget.Seconds()
	var setupCPU, setupWall []float64
	var s *sut
	for i := 0; i < setups; i++ {
		inst, c, err := b.start("")
		if err != nil {
			if inst != nil {
				inst.stop(rep)
			}
			return err
		}
		setupCPU = append(setupCPU, c.cpu.Seconds())
		setupWall = append(setupWall, c.wall.Seconds())
		fmt.Printf("set-up %d: %.2f ms CPU, %.2f ms wall\n", i, c.cpu.Seconds()*1e3, c.wall.Seconds()*1e3)
		if i == setups-1 {
			s = inst
			break
		}
		inst.stop(rep)
	}
	rep.add("setup_s", median(setupCPU), "s", fmt.Sprintf("CPU time, median of %d set-ups; wall time median %.6f s", len(setupCPU), median(setupWall)))

	if _, err := b.trial(b.wl.rate, secs(b.wl.warmup*budget)); err != nil {
		s.stop(rep)
		return err
	}
	fr, err := b.measureFixed(s, secs(0.75*budget))
	if err != nil {
		s.stop(rep)
		return err
	}
	restartCPU, restartWall, err := b.restarts(rep, s, restartRuns)
	if err != nil {
		return err
	}

	fr.print()
	rep.add("delivered_ratio", calmDelivered(fr.windows), "ratio", fmt.Sprintf("frames received over frames sent, in the calm windows but the lossiest tenth; whole trial: loss_ratio %.6f, %d of %d frames lost at %.0f pps", fr.trial.Loss(), fr.trial.Sent-fr.trial.Received, fr.trial.Sent, fr.trial.Rate))
	rep.add("cpu_us_per_pkt", calmCPUPerFrame(fr.windows)/1e3, "us", "process CPU minus generator and sink threads, per frame, in the calm windows")
	rep.add("rss_peak_mb", float64(peakRSS())/(1<<20), "MiB", "peak resident set of the whole process")
	rep.add("restart_s", median(restartCPU), "s", fmt.Sprintf("CPU time, median of %d: %s; wall time median %.6f s", restartRuns, restartBasis(b.wl), median(restartWall)))
	rep.check(fr.trial.Sent > 0, "the fixed-rate trial sent nothing")
	return nil
}

// restarts stops s, then n times reopens what it left (the durable
// workload's state dir, each time as the previous restart left it; a
// cold start for the others) until every worker serves again, checking
// each durable restart against the flow count of the last durable
// epoch. It returns the CPU and the wall time of each restart, in
// seconds.
func (b *bench) restarts(rep *report, s *sut, n int) (cpu, wall []float64, err error) {
	durableFlows := laneDurableFlows(s)
	dir := s.cfg.stateDir
	s.stop(rep)
	fmt.Printf("restarts (ms CPU/wall):")
	defer fmt.Println()
	for i := 0; i < n; i++ {
		rs, c, err := b.start(dir)
		if err != nil {
			if rs != nil {
				rs.stop(rep)
			}
			return nil, nil, err
		}
		fmt.Printf(" %.2f/%.2f", c.cpu.Seconds()*1e3, c.wall.Seconds()*1e3)
		cpu = append(cpu, c.cpu.Seconds())
		wall = append(wall, c.wall.Seconds())
		if b.wl.durable {
			for w, l := range rs.lanes {
				rep.check(l.restoredFlows.Load() == durableFlows[w],
					"restart %d: worker %d restored %d session flows, its last durable epoch recorded %d", i, w, l.restoredFlows.Load(), durableFlows[w])
			}
		}
		// Each restart serves briefly and persists new epochs: the next
		// one must restore those.
		rs.stop(rep)
		for w, l := range rs.lanes {
			if l.lastDurable.Load() != 0 {
				durableFlows[w] = l.durableFlows.Load()
			}
		}
	}
	return cpu, wall, nil
}

// ndr runs the no-drop-rate search on a serving instance.
func (b *bench) ndr(rep *report, dur time.Duration) (float64, string, error) {
	search := ndrSearch{Start: b.wl.ndrStart, Grow: 1.25, Step: 1.04, Trials: 30, LossLimit: 0.001, StealLimit: 0.01}
	trialDur := dur / time.Duration(search.Trials) * 3 / 4 // the rest drains and counts
	ndr, trials, err := search.run(func(rate float64) (trialResult, error) { return b.trial(rate, trialDur) })
	if err != nil {
		return 0, "", err
	}
	for _, r := range trials {
		fmt.Printf("ndr trial: offered %9.0f pps, lost %.4f%%, host steal %.1f%%\n", r.Offered, 100*r.Loss(), 100*r.Steal)
	}
	rep.check(ndr > 0, "no trial of the no-drop-rate search passed, from %.0f pps", search.Start)
	return ndr, fmt.Sprintf("staircase over %d trials of %s: the rate a trial keeps loss <=0.1%% three times in four", len(trials), trialDur.Round(time.Millisecond)), nil
}

// print writes the fixed-rate trial's windows.
func (fr fixedRun) print() {
	for i, w := range fr.windows {
		fmt.Printf("window %2d: %6d of %6d frames, p50 %8.1fus, p99 %8.1fus, %6.1fus CPU/frame, host steal %5.1f%%\n", i, w.n, w.sent, w.p50, w.p99, ratio(w.sutCPU, float64(w.n))/1e3, 100*w.steal)
	}
	fmt.Printf("fixed trial: %d GCs, %v paused, host steal %.1f%% of CPU time\n", fr.gcs, fr.gcPause, 100*fr.steal.stealShare())
}

func calmNote(ws []window) string {
	return fmt.Sprintf("median over the %d calm windows (of %d, %s each)", len(calmest(ws)), len(ws), windowLen)
}

// laneDurableFlows reads, per worker, the session flow count its newest
// durable epoch recorded.
func laneDurableFlows(s *sut) []int64 {
	out := make([]int64, len(s.lanes))
	for i, l := range s.lanes {
		out[i] = l.durableFlows.Load()
	}
	return out
}

func ageBasis(wl workload) string {
	switch {
	case wl.durable:
		return "age of each worker's newest durable epoch, in the calm windows"
	case wl.checkpointEvery > 0:
		return "no durable tier: age of each worker's newest RAM checkpoint, in the calm windows"
	default:
		return "no checkpoints: age of each worker's state since start, in every window"
	}
}

func restartBasis(wl workload) string {
	if wl.durable {
		return "reopen the state dir, restore every worker from its last durable epoch, serve"
	}
	return "no durable state: cold start until every worker serves"
}

func quantNote(q quantile, rate float64) string {
	s := fmt.Sprintf("p%g of %d samples", math.Round(q.Q*1000)/10, q.N)
	if rate > 0 {
		s += fmt.Sprintf(" at %.0f pps", rate)
	}
	return s
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// provenance describes where and how the numbers were measured.
func (b *bench) provenance() map[string]any {
	return map[string]any{
		"workload":   b.wl.name,
		"seed":       b.seed,
		"seconds":    b.budget.Seconds(),
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     gitCommit(),
		"network":    "loopback: traffic crossed the host's loopback interface (127.0.0.1), not a physical link",
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit finds the source commit: the build's VCS stamp, else the
// repository's HEAD read from .git, else "unknown" (a checkout without
// history).
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		if h, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
			return strings.TrimSpace(string(h))
		}
		return "unknown"
	}
	return ref
}

// sinkFailures lists the sink's failed frame checks.
func (b *bench) sinkFailures() []string {
	if b.sink == nil {
		return nil
	}
	var out []string
	for _, c := range []struct {
		n    uint64
		what string
	}{
		{b.sink.badParse.Load(), "did not parse as a stamped frame"},
		{b.sink.badSeq.Load(), "carried a sequence number never sent"},
		{b.sink.dups.Load(), "arrived more than once"},
		{b.sink.badDst.Load(), "had a destination that is no maglev backend"},
	} {
		if c.n > 0 {
			out = append(out, fmt.Sprintf("%d frames at the sink %s", c.n, c.what))
		}
	}
	return out
}

// sinkChecked is the number of frames the sink checked.
func (b *bench) sinkChecked() uint64 {
	if b.sink == nil {
		return 0
	}
	return b.sink.received.Load() + b.sink.errorsSeen()
}

// printReport writes the human-readable lines, the provenance record and
// the result object (last line).
func printReport(rep *report, prov map[string]any) {
	for _, m := range rep.metrics {
		fmt.Printf("%-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, f := range rep.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance: %s\n", pj)
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val, len(rep.metrics))
	for _, m := range rep.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = val{v, m.unit}
	}
	out := map[string]any{
		"correct":   len(rep.failures) == 0,
		"attempted": max(rep.attempted, 1),
		"failed":    len(rep.failures),
		"metrics":   metrics,
	}
	j, err := json.Marshal(out)
	if err != nil {
		fmt.Println(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		return
	}
	fmt.Println(string(j))
}
