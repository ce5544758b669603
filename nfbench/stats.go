package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// quantile is one reported order statistic: the value, the percentile it
// is (which the sample may have forced below the one asked for) and the
// sample count behind it.
type quantile struct {
	Value float64
	Q     float64
	N     int
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailQuantile applies the percentile rule: report the percentile asked
// for when at least minTail samples lie beyond it, otherwise the highest
// percentile that has minTail samples beyond it, and never less than
// the median. The value is a sample (nearest rank), not an
// interpolation. ok is false for an empty sample.
func tailQuantile(xs []float64, want float64) (q quantile, ok bool) {
	n := len(xs)
	if n == 0 {
		return quantile{}, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	p := min(want, 1-float64(minTail)/float64(n))
	p = max(p, 0.5)
	// Nearest rank: the smallest sample with at least p of the sample at
	// or below it.
	idx := int(math.Ceil(p*float64(n))) - 1
	idx = min(max(idx, 0), n-1)
	return quantile{Value: s[idx], Q: p, N: n}, true
}

// median is the middle sample (mean of the two middle ones for an even
// count); 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// toFloats converts integer samples (ns) to float64 in the given unit.
func toFloats(xs []int64, unit float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / unit
	}
	return out
}

// ndrSearch finds the no-drop rate (RFC 2544 §26.1, with a loss
// tolerance): the highest offered rate whose fixed-length trials lose at
// most LossLimit of the frames sent. On a host whose CPUs are shared, the
// same rate passes in one second and fails in the next, so a bisection
// that trusts each trial wanders wherever its first unlucky trial sends
// it. The search is a staircase instead: it climbs by Grow from Start
// until a trial fails, then steps up by Step after a pass and down by
// Step³ after a failure, which settles where a trial passes three times
// in four. The result is the median offered rate of the staircase's
// trials after its first failure, so every trial moves the answer a
// little and none decides it. A trial that fails while the hypervisor
// stole more than StealLimit of the host's CPU time is run again at the
// same rate instead of moving the staircase, at most twice in a row: its
// loss says more about the neighbours than about the pipeline. A search
// that never fails reports its highest passing rate, a lower bound.
type ndrSearch struct {
	Start      float64 // first rate, expected to pass, frames/s
	Grow       float64 // climb factor before the first failure
	Step       float64 // staircase factor after it
	Trials     int
	LossLimit  float64
	StealLimit float64
}

// run drives trial and returns the estimate (0 when no trial failed or
// none passed) and every trial made.
func (s ndrSearch) run(trial func(rate float64) (trialResult, error)) (ndr float64, trials []trialResult, err error) {
	rate := s.Start
	climbing := true
	var settled []float64
	var highest float64
	retries := 0
	for len(trials) < s.Trials {
		r, err := trial(rate)
		if err != nil {
			return 0, trials, err
		}
		trials = append(trials, r)
		pass := r.Sent > 0 && r.Loss() <= s.LossLimit
		if !pass && r.Steal > s.StealLimit && retries < 2 {
			retries++
			continue
		}
		retries = 0
		if pass {
			highest = max(highest, r.Offered)
		}
		if !climbing {
			settled = append(settled, r.Offered)
		}
		switch {
		case climbing && pass:
			rate *= s.Grow
		case climbing:
			climbing = false
			rate /= s.Grow // back to the last rate that passed
		case pass:
			rate *= s.Step
		default:
			rate /= s.Step * s.Step * s.Step
		}
	}
	if len(settled) == 0 || highest == 0 {
		return highest, trials, nil
	}
	return median(settled), trials, nil
}

// windowLen is the length of one latency window.
const windowLen = 250 * time.Millisecond

// window is one windowLen of a fixed-rate trial, by frame due time.
type window struct {
	n        int       // frames due in the window that reached the sink
	sent     int       // frames due in the window
	p50, p99 float64   // latency, µs
	steal    float64   // host steal share of CPU time over the window
	sutCPU   float64   // CPU time of the system under test over the window, ns
	ages     []float64 // recoverable-state ages sampled in the window, ms
}

// ageSample is one sampled age of a worker's newest recoverable state.
type ageSample struct {
	at int64 // Unix ns
	ms float64
}

// stealMark is a /proc/stat reading, the system under test's CPU clock
// (ns), and when both were read.
type stealMark struct {
	at     int64
	times  cpuTimes
	sutCPU int64
}

// windowsOf splits the frames trial r sent and the latency samples of
// those received (both by due time), and age samples (by sampling
// time), into windows from r.Start, and pairs each window with the host
// steal measured across it.
func windowsOf(lat []latSample, ages []ageSample, marks []stealMark, r trialResult, dur time.Duration) []window {
	start := r.Start
	n := max(int(dur/windowLen), 1)
	out := make([]window, n)
	// Frame i was due at start + i/rate, computed as the generator does.
	period := 1e9 / r.Rate
	for i := uint64(0); i < r.Sent; i++ {
		if w := int(int64(float64(i)*period) / int64(windowLen)); w < n {
			out[w].sent++
		}
	}
	per := make([][]float64, n)
	for i := range per {
		per[i] = make([]float64, 0, out[i].sent)
	}
	for _, l := range lat {
		i := int((l.due - start) / int64(windowLen))
		if i >= 0 && i < n {
			per[i] = append(per[i], float64(l.lat)/1e3)
		}
	}
	for _, a := range ages {
		i := int((a.at - start) / int64(windowLen))
		if i >= 0 && i < n {
			out[i].ages = append(out[i].ages, a.ms)
		}
	}
	for i := range out {
		w := &out[i]
		w.n = len(per[i])
		if q, ok := tailQuantile(per[i], 0.5); ok {
			w.p50 = q.Value
		}
		if q, ok := tailQuantile(per[i], 0.99); ok {
			w.p99 = q.Value
		}
		lo := start + int64(i)*int64(windowLen)
		w.steal, w.sutCPU = across(marks, lo, lo+int64(windowLen))
	}
	return out
}

// across measures the window [lo, hi) between the last mark at or before
// lo and the first at or after hi: the host steal share, and the SUT's
// CPU time scaled from that span to the window's length.
func across(marks []stealMark, lo, hi int64) (steal, sutCPU float64) {
	if len(marks) < 2 {
		return 0, 0
	}
	a, b := marks[0], marks[len(marks)-1]
	for _, m := range marks {
		if m.at <= lo {
			a = m
		}
		if m.at >= hi {
			b = m
			break
		}
	}
	if b.at <= a.at {
		return 0, 0
	}
	return b.times.sub(a.times).stealShare(), float64(b.sutCPU-a.sutCPU) * float64(hi-lo) / float64(b.at-a.at)
}

// calmWindows is how many of n windows the latency figures are taken
// over at least: the quarter with the least host steal, at least one.
func calmWindows(n int) int { return max(n/4, 1) }

// calmSteal is the host steal share a window may show and still count
// as calm: below it, /proc/stat's 10 ms ticks cannot tell windows apart.
const calmSteal = 0.01

// latencyFigures reports the medians of the p50s and of the p99s of the
// calmWindows windows with the least host steal. On a virtual machine
// whose CPUs are shared, a window in which the hypervisor ran someone
// else's work shows that work in its latency; the calm quarter keeps the
// figures a property of the pipeline, while a stall inside the
// pipeline, which shows in every window, still moves them.
func latencyFigures(ws []window) (p50, p99 float64) {
	var p50s, p99s []float64
	for _, w := range calmest(ws) {
		if w.n == 0 {
			continue
		}
		p50s = append(p50s, w.p50)
		p99s = append(p99s, w.p99)
	}
	return median(p50s), median(p99s)
}

// calmest returns the windows with frames whose host steal is at most
// that of the calmWindows-th calmest, or at most calmSteal: every window
// of a calm run, the calm quarter of a disturbed one. A window whose
// frames were all lost still counts.
func calmest(ws []window) []window {
	calm := slices.DeleteFunc(slices.Clone(ws), func(w window) bool { return w.n == 0 && w.sent == 0 })
	if len(calm) == 0 {
		return nil
	}
	slices.SortStableFunc(calm, func(a, b window) int { return cmp.Compare(a.steal, b.steal) })
	limit := max(calm[min(len(calm), calmWindows(len(ws)))-1].steal, calmSteal)
	return slices.DeleteFunc(calm, func(w window) bool { return w.steal > limit })
}

// calmAges pools the age samples of the calmest windows.
func calmAges(ws []window) []float64 {
	var out []float64
	for _, w := range calmest(ws) {
		out = append(out, w.ages...)
	}
	return out
}

// allAges pools the age samples of every window.
func allAges(ws []window) []float64 {
	var out []float64
	for _, w := range ws {
		out = append(out, w.ages...)
	}
	return out
}

// calmCPUPerFrame is the SUT's CPU time per frame (ns) over the calmest
// windows.
func calmCPUPerFrame(ws []window) float64 {
	var cpu float64
	var n int
	for _, w := range calmest(ws) {
		cpu += w.sutCPU
		n += w.n
	}
	return ratio(cpu, float64(n))
}

// lossyShare is the share of the calm windows, those that lost the most
// frames, that calmDelivered leaves out.
const lossyShare = 0.1

// calmDelivered is the share of the frames due in the calmest windows
// that reached the sink, leaving out the lossyShare of them that lost
// the most. A hypervisor that deschedules the guest, or a shared disk
// that stalls an fsync, for longer than the port's rings hold makes the
// pipeline shed frames that a dedicated host would forward. Such stalls
// come a few times in some runs and never in others; a pipeline that
// sheds by itself, on every epoch or every crash, does so in most
// windows.
func calmDelivered(ws []window) float64 {
	calm := calmest(ws)
	slices.SortFunc(calm, func(a, b window) int {
		return cmp.Compare(ratio(float64(a.n), float64(a.sent)), ratio(float64(b.n), float64(b.sent)))
	})
	var n, sent int
	for _, w := range calm[int(lossyShare*float64(len(calm))):] {
		n += w.n
		sent += w.sent
	}
	return ratio(float64(n), float64(sent))
}
