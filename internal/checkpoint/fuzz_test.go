package checkpoint_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/domain"
	"repro/internal/firewall"
	"repro/internal/maglev"
	"repro/internal/packet"
	"repro/internal/session"
)

// fuzzNode is one vertex of the fuzz graph: plain data plus an Rc
// handle that may share its box with other nodes.
type fuzzNode struct {
	ID  int
	Ref checkpoint.Rc[int]
}

// fuzzGraph is the checkpointed root: a slice of unique node pointers
// (sharing happens only through Rc, the structure the engine's modes
// disagree about) plus a plain map.
type fuzzGraph struct {
	Nodes []*fuzzNode
	M     map[int]int
}

// FuzzCheckpointRestore builds an arbitrary Rc-sharing graph from the
// input, checkpoints it under the input-selected mode, mutates the
// original, and asserts the snapshot contract:
//
//  1. Round-trip equality: Materialize reproduces the values as they
//     were at checkpoint time, untouched by later mutation.
//  2. Sharing: RcAware and VisitedSet reproduce the alias structure
//     exactly (nodes that shared a box still do, nodes that did not
//     still do not); Naive duplicates every shared box (Figure 3b).
//  3. Token reuse: a second Materialize yields a fresh, independent
//     clone — mutating the first clone never shows through.
//  4. Durability: the snapshot's payload decodes to a snapshot whose
//     Materialize passes the same value and per-mode alias checks.
func FuzzCheckpointRestore(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 2, 1, 0})          // rc-aware, interleaved sharing
	f.Add([]byte{1, 2, 0, 0, 0})                // naive, one box shared 3x
	f.Add([]byte{2, 5, 4, 3, 2, 1, 0, 1, 2})    // visited-set, mixed
	f.Add([]byte{0, 1, 9})                      // single box
	f.Add([]byte{2, 7, 0, 0, 1, 1, 2, 2, 3, 3}) // paired sharing
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		mode := checkpoint.Mode(int(data[0]) % 3)
		nBoxes := int(data[1])%7 + 1
		boxes := make([]checkpoint.Rc[int], nBoxes)
		for i := range boxes {
			boxes[i] = checkpoint.NewRc(i * 100)
		}
		assign := data[2:]
		if len(assign) > 32 {
			assign = assign[:32]
		}
		g := &fuzzGraph{M: make(map[int]int)}
		boxOf := make([]int, len(assign)) // node index -> box index
		for i, b := range assign {
			bi := int(b) % nBoxes
			boxOf[i] = bi
			g.Nodes = append(g.Nodes, &fuzzNode{ID: i, Ref: boxes[bi].Clone()})
			g.M[i] = bi
		}

		e := checkpoint.NewEngine(mode)
		snap, err := e.Checkpoint(g)
		if err != nil {
			t.Fatal(err)
		}

		// Mutate the original after the checkpoint: the snapshot must be
		// isolated from all of it.
		for _, n := range g.Nodes {
			n.ID += 1000
		}
		for _, b := range boxes {
			b.Set(b.Get() + 7)
		}
		g.M[len(assign)+1] = -1

		verify := func(v any) *fuzzGraph {
			t.Helper()
			c, ok := v.(*fuzzGraph)
			if !ok {
				t.Fatalf("materialized %T", v)
			}
			if len(c.Nodes) != len(assign) || len(c.M) != len(g.M)-1 {
				t.Fatalf("clone shape: %d nodes / %d map entries, want %d / %d",
					len(c.Nodes), len(c.M), len(assign), len(g.M)-1)
			}
			for i, n := range c.Nodes {
				if n.ID != i {
					t.Fatalf("node %d: ID %d, want %d (post-checkpoint mutation leaked in)", i, n.ID, i)
				}
				if got, want := n.Ref.Get(), boxOf[i]*100; got != want {
					t.Fatalf("node %d: Rc value %d, want %d", i, got, want)
				}
				if c.M[i] != boxOf[i] {
					t.Fatalf("map entry %d: %d, want %d", i, c.M[i], boxOf[i])
				}
			}
			for i := 0; i < len(c.Nodes); i++ {
				for j := i + 1; j < len(c.Nodes); j++ {
					same := c.Nodes[i].Ref.SameBox(c.Nodes[j].Ref)
					sharedOrig := boxOf[i] == boxOf[j]
					switch mode {
					case checkpoint.Naive:
						// Figure 3b: every handle gets its own duplicate.
						if same {
							t.Fatalf("naive mode shared a box between nodes %d and %d", i, j)
						}
					default: // RcAware, VisitedSet preserve aliasing exactly
						if same != sharedOrig {
							t.Fatalf("%v mode: nodes %d,%d sharing=%v, original sharing=%v",
								mode, i, j, same, sharedOrig)
						}
					}
				}
			}
			return c
		}

		v1, err := snap.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		c1 := verify(v1)

		// Token reuse: wreck the first clone, materialize again, verify
		// the second is pristine and box-disjoint from the first.
		for _, n := range c1.Nodes {
			n.Ref.Set(-999)
			n.ID = -1
		}
		v2, err := snap.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		c2 := verify(v2)
		for i := range c1.Nodes {
			if c1.Nodes[i].Ref.SameBox(c2.Nodes[i].Ref) {
				t.Fatalf("materialized clones share box at node %d: tokens are not independently restorable", i)
			}
		}

		payload, err := snap.AppendBinary(nil)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		dec, err := checkpoint.Decode[*fuzzGraph](payload)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		v3, err := dec.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		verify(v3)
	})
}

// codecTarget is one durable state shape: its codec and a populated
// checkpoint token of it.
type codecTarget struct {
	name   string
	codec  domain.TokenCodec
	sample func() (any, error)
}

func codecTargets() []codecTarget {
	e := checkpoint.NewEngine(checkpoint.RcAware)
	tu := func(i int) packet.FiveTuple {
		return packet.FiveTuple{SrcIP: packet.IPv4(i), DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	}
	return []codecTarget{
		{"fuzz-graph", checkpoint.Codec[*fuzzGraph]{}, func() (any, error) {
			shared := checkpoint.NewRc(7)
			return e.Checkpoint(&fuzzGraph{Nodes: []*fuzzNode{{ID: 1, Ref: shared}, nil, {ID: 3, Ref: shared.Clone()}}, M: map[int]int{1: 2}})
		}},
		{"session", session.NewTable(), func() (any, error) {
			tbl := session.NewTable()
			for i := 0; i < 6; i++ {
				tbl.Track(tu(i), packet.IPv4(10+i%2), 60)
			}
			return tbl.Checkpoint(e)
		}},
		{"maglev", checkpoint.Codec[*maglev.BalancerState]{}, func() (any, error) {
			b, err := maglev.NewBalancer([]maglev.Backend{{Name: "a", IP: 1}, {Name: "b", IP: 2}}, 13)
			for i := 0; i < 4 && err == nil; i++ {
				b.Pick(tu(i))
			}
			if err != nil {
				return nil, err
			}
			return b.Checkpoint(e)
		}},
		{"firewall", checkpoint.Codec[*firewall.DB]{}, func() (any, error) {
			db := firewall.NewDB(firewall.Deny)
			h, err := db.AddRule(0x0a000000, 8, firewall.Rule{ID: 1, Action: firewall.Allow, Comment: "ten"})
			if err == nil {
				err = db.AttachRule(0xc0a80000, 16, h)
			}
			if err != nil {
				return nil, err
			}
			return db.Checkpoint(e)
		}},
	}
}

// samplePayload encodes a target's sample token.
func samplePayload(tb testing.TB, tg codecTarget) []byte {
	tb.Helper()
	tok, err := tg.sample()
	if err != nil {
		tb.Fatal(err)
	}
	payload, err := tg.codec.EncodeToken(tok)
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

// FuzzSnapshotDecode feeds arbitrary bytes to the decoder of every
// durable state shape: the fuzz graph, the session table, the maglev
// balancer and the firewall DB. The first input byte picks the shape;
// the rest is the payload body, behind that shape's valid header, so
// the fuzzer explores the body instead of the shape hash. Decoding must
// never panic, must allocate O(len(payload)), and any accepted payload
// must re-encode to bytes that decode to an equal value.
func FuzzSnapshotDecode(f *testing.F) {
	targets := codecTargets()
	headers := make([][]byte, len(targets))
	for i, tg := range targets {
		payload := samplePayload(f, tg)
		headers[i] = payload[:9]
		f.Add(append([]byte{byte(i)}, payload[9:]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		i := int(data[0]) % len(targets)
		tg := targets[i]
		payload := append(append([]byte(nil), headers[i]...), data[1:]...)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tok, err := tg.codec.DecodeToken(payload)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(payload)+64<<10); got > limit {
			t.Fatalf("%s: decoding %d bytes allocated %d bytes (limit %d)", tg.name, len(payload), got, limit)
		}
		if err != nil {
			return
		}
		again, err := tg.codec.EncodeToken(tok)
		if err != nil {
			t.Fatalf("%s: re-encode of an accepted payload: %v", tg.name, err)
		}
		tok2, err := tg.codec.DecodeToken(again)
		if err != nil {
			t.Fatalf("%s: re-encoded payload rejected: %v", tg.name, err)
		}
		if !reflect.DeepEqual(tok.(*checkpoint.Snapshot).Value(), tok2.(*checkpoint.Snapshot).Value()) {
			t.Fatalf("%s: re-encoded payload decodes to a different value", tg.name)
		}
	})
}
