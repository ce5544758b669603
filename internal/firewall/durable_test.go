package firewall

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/packet"
)

func TestFirewallTokenRoundTrip(t *testing.T) {
	db := NewDB(Deny)
	// One rule attached under three prefixes (Figure 3a aliasing), plus
	// a prefix-local rule with transport constraints.
	shared, err := db.AddRule(0x0a000000, 8, Rule{ID: 1, Action: Allow, Comment: "allow 10/8"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachRule(0xac100000, 12, shared); err != nil {
		t.Fatal(err)
	}
	// The DNS deny goes first in the /16 leaf (leaf rules evaluate in
	// order), the shared allow-all after it.
	if _, err := db.AddRule(0xc0a80000, 16, Rule{ID: 2, Action: Deny, Proto: 17, DstPort: 53, Comment: "no dns"}); err != nil {
		t.Fatal(err)
	}
	if err := db.AttachRule(0xc0a80000, 16, shared); err != nil {
		t.Fatal(err)
	}
	src, err := NewStateful(db)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := src.Checkpoint(checkpoint.NewEngine(checkpoint.RcAware))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := src.EncodeToken(snap)
	if err != nil {
		t.Fatal(err)
	}

	dst, err := NewStateful(NewDB(Allow))
	if err != nil {
		t.Fatal(err)
	}
	token, err := dst.DecodeToken(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(token); err != nil {
		t.Fatal(err)
	}
	got := dst.DB()
	if got.Default != Deny {
		t.Fatalf("default = %v, want Deny", got.Default)
	}
	// Aliasing preserved exactly: 2 distinct rules, 4 handles.
	distinct, handles := got.RuleCount()
	if distinct != 2 || handles != 4 {
		t.Fatalf("restored %d distinct/%d handles, want 2/4", distinct, handles)
	}
	// Semantics preserved.
	cases := []struct {
		tu   packet.FiveTuple
		want Action
	}{
		{packet.FiveTuple{DstIP: 0x0a010203, Proto: 6, DstPort: 80}, Allow},
		{packet.FiveTuple{DstIP: 0xac1f0001, Proto: 6, DstPort: 80}, Allow},
		{packet.FiveTuple{DstIP: 0xc0a80101, Proto: 17, DstPort: 53}, Deny},
		{packet.FiveTuple{DstIP: 0xc0a80101, Proto: 6, DstPort: 80}, Allow},
		{packet.FiveTuple{DstIP: 0x7f000001, Proto: 6, DstPort: 80}, Deny},
	}
	for i, tc := range cases {
		if act, _ := got.Match(tc.tu); act != tc.want {
			t.Fatalf("case %d: %v, want %v", i, act, tc.want)
		}
	}
}

// TestFirewallTokenLongComment: a comment longer than 65,535 bytes
// survives the byte round trip intact.
func TestFirewallTokenLongComment(t *testing.T) {
	db := NewDB(Deny)
	long := Rule{ID: 7, Action: Allow, Proto: 6, DstPort: 443, Comment: strings.Repeat("c", 70000)}
	if _, err := db.AddRule(0x0a000000, 8, long); err != nil {
		t.Fatal(err)
	}
	src, err := NewStateful(db)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := src.Checkpoint(checkpoint.NewEngine(checkpoint.RcAware))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := src.EncodeToken(snap)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewStateful(NewDB(Allow))
	if err != nil {
		t.Fatal(err)
	}
	token, err := dst.DecodeToken(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(token); err != nil {
		t.Fatal(err)
	}
	rules, ok := dst.DB().Rules.Exact(0x0a000000, 8)
	if !ok || len(rules) != 1 || rules[0].Get() != long {
		t.Fatalf("restored rules %d (found %v), want the 70,000-byte comment rule intact", len(rules), ok)
	}
}

func TestFirewallDecodeRejectsGarbage(t *testing.T) {
	s, err := NewStateful(NewDB(Allow))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DecodeToken(nil); err == nil {
		t.Fatal("nil accepted")
	}
	snap, err := s.Checkpoint(checkpoint.NewEngine(checkpoint.RcAware))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := s.EncodeToken(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DecodeToken(append([]byte{0xee}, payload[1:]...)); err == nil {
		t.Fatal("bad version accepted")
	}
	for _, cut := range []int{len(payload) - 1, 3, 7} {
		if cut >= len(payload) {
			continue
		}
		if _, err := s.DecodeToken(payload[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := s.EncodeToken("nope"); err == nil {
		t.Fatal("bad encode token accepted")
	}
}
