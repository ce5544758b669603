package main

// Spans recorded by the layer wrappers. A span has a layer name, a
// start, an end and the span that caused it; spans of one batch share
// the id the feeder took when it received the batch. Spans stay in
// memory for the run; at the end they are summarised and written out.

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

type spanKind uint8

const (
	spBatch     spanKind = iota // a worker's whole batch: first stage start to transmit end
	spRx                        // the feeder's receive call on the port
	spMailbox                   // receive return to first stage start: the mailbox hop
	spParse                     // pipeline stages, in order
	spFirewall                  //
	spMaglev                    //
	spSession                   //
	spTx                        // transmit call on the port
	spSpill                     // session eviction batch written to the flow index
	spLookup                    // session miss looked up in the flow index
	spCapture                   // checkpoint capture of the worker's state
	spEncode                    // checkpoint token encode
	spPersist                   // durable epoch append (WAL write + group fsync)
	spRestore                   // state restore from a checkpoint token
	spDecode                    // checkpoint token decode (restart)
	spLastEpoch                 // durable epoch lookup (restart)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"netbricks.batch", "netport.rx", "domain.mailbox",
	"packet.parse", "firewall", "maglev", "session",
	"netport.tx", "statestore.spill", "statestore.lookup",
	"checkpoint.capture", "checkpoint.encode", "statestore.persist",
	"checkpoint.restore", "checkpoint.decode", "statestore.last_epoch",
}

func (k spanKind) String() string { return spanNames[k] }

// span is one timed call. parent is the id of the enclosing span (0 for
// none); end is 0 while the span is open.
type span struct {
	kind   spanKind
	worker uint8
	parent uint32
	batch  uint64
	start  int64
	end    int64
	pkts   uint32 // packets (or flows, or bytes) the call handled
}

// spanLog holds a run's spans. Ids are 1-based positions.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	limit   int
	dropped uint64
}

func newSpanLog(limit int) *spanLog {
	return &spanLog{limit: limit, spans: make([]span, 0, min(limit, 1<<16))}
}

// add records a finished span and returns its id (0 when the log is full).
func (l *spanLog) add(s span) uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= l.limit {
		l.dropped++
		return 0
	}
	l.spans = append(l.spans, s)
	return uint32(len(l.spans))
}

// open records a span whose end is not known yet.
func (l *spanLog) open(s span) uint32 {
	s.end = 0
	return l.add(s)
}

// close ends an open span.
func (l *spanLog) close(id uint32, end int64) {
	if id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].end = end
	l.mu.Unlock()
}

// abandon ends an open batch span where its last finished child ended,
// so a batch lost to a fault keeps the stages it finished and drops the
// one that failed.
func (l *spanLog) abandon(id uint32) {
	if id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	root := &l.spans[id-1]
	end := root.start
	for i := int(id); i < len(l.spans); i++ {
		if c := l.spans[i]; c.parent == id && c.end != 0 && c.end > end {
			end = c.end
		}
	}
	root.end = end
}

// reset drops every span recorded so far.
func (l *spanLog) reset() {
	l.mu.Lock()
	l.spans = l.spans[:0]
	l.dropped = 0
	l.mu.Unlock()
}

// snapshot copies the spans recorded so far and counts those the full
// log turned away.
func (l *spanLog) snapshot() ([]span, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...), l.dropped
}

// layerTotals is what a set of spans says about each layer.
type layerTotals struct {
	self  [numSpanKinds]int64  // self time, ns
	total [numSpanKinds]int64  // span time, ns
	count [numSpanKinds]int64  // finished spans
	pkts  [numSpanKinds]uint64 // summed span counts
}

// summarise computes each layer's self time: a span's duration minus the
// part of it its children cover. Children of one span never overlap, so
// the covered part is the sum of their durations clipped to the parent.
// Open spans (end 0) and their children are left out.
func summarise(spans []span) layerTotals {
	var t layerTotals
	for i := range spans {
		s := &spans[i]
		if s.end == 0 || s.end < s.start {
			continue
		}
		if s.parent != 0 {
			p := &spans[s.parent-1]
			if p.end == 0 {
				continue
			}
		}
		d := s.end - s.start
		t.self[s.kind] += d
		t.total[s.kind] += d
		t.count[s.kind]++
		t.pkts[s.kind] += uint64(s.pkts)
		if s.parent != 0 {
			p := &spans[s.parent-1]
			covered := min(s.end, p.end) - max(s.start, p.start)
			if covered > 0 {
				t.self[p.kind] -= covered
			}
		}
	}
	return t
}

// writeSpans writes spans one per line: id, parent, batch, worker, name,
// start and end (Unix ns) and count.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id parent batch worker name start_ns end_ns count")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d %d %d %d %s %d %d %d\n", i+1, s.parent, s.batch, s.worker, s.kind, s.start, s.end, s.pkts)
	}
	return bw.Flush()
}
