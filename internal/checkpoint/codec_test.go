package checkpoint_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
)

// everything has a field of every kind the codec writes.
type everything struct {
	B      bool
	I      int
	I8     int8
	I16    int16
	I32    int32
	I64    int64
	U      uint
	U8     uint8
	U16    uint16
	U32    uint32
	U64    uint64
	P      uintptr
	F32    float32
	F64    float64
	S      string
	Arr    [3]int16
	Nil    []int
	Empty  []int
	Ptr    *everything
	M      map[string][]uint32
	NilM   map[int]int
	Shared []checkpoint.Rc[string]
	Zero   checkpoint.Rc[string]
	Loop   checkpoint.Rc[*everything]
}

func TestCodecRoundTrip(t *testing.T) {
	shared := checkpoint.NewRc(strings.Repeat("s", 1000))
	in := &everything{
		B: true, I: -1 << 40, I8: -8, I16: -16, I32: -32, I64: -64,
		U: 1 << 40, U8: 8, U16: 16, U32: 32, U64: 1<<64 - 1, P: 7, F32: 1.5, F64: -2.25,
		S: "héllo", Arr: [3]int16{-1, 0, 1}, Empty: []int{},
		Ptr:    &everything{S: "inner", M: map[string][]uint32{"x": nil}},
		M:      map[string][]uint32{"a": {1, 2}, "b": {}},
		Shared: []checkpoint.Rc[string]{shared, shared.Clone(), checkpoint.NewRc("own")},
	}
	in.Loop = checkpoint.NewRc(in) // a cycle, closed only through Rc
	snap, err := checkpoint.NewEngine(checkpoint.RcAware).Checkpoint(in)
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte(shared.Get())); n != 1 {
		t.Fatalf("shared Rc value written %d times, want once", n)
	}
	dec, err := checkpoint.Decode[*everything](data)
	if err != nil {
		t.Fatal(err)
	}
	var out *everything
	if err := dec.Restore(&out); err != nil {
		t.Fatal(err)
	}
	sh := out.Shared
	if sh[0].Get() != shared.Get() || sh[2].Get() != "own" || !sh[0].SameBox(sh[1]) || sh[0].SameBox(sh[2]) {
		t.Fatal("Rc values or alias structure not reproduced")
	}
	if !out.Zero.IsZero() || !out.Loop.Get().Loop.SameBox(out.Loop) {
		t.Fatal("zero Rc or Rc cycle not reproduced")
	}
	// Rc boxes carry per-epoch state; the checks above cover them.
	out.Shared, out.Loop, in.Shared, in.Loop = nil, checkpoint.Rc[*everything]{}, nil, checkpoint.Rc[*everything]{}
	if !reflect.DeepEqual(out, in) || out.Nil != nil || out.Empty == nil || out.NilM != nil {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
}

// hidden carries an unexported field through its own CheckpointCopy.
type hidden struct {
	Shown int
	note  string
}

func (h hidden) CheckpointCopy(func(any) (any, error)) (any, error) { return h, nil }

func TestCodecEncodeRules(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want error
	}{
		{"unexported field zero", hidden{Shown: 3}, nil},
		{"unexported field set", hidden{Shown: 3, note: "lost on disk"}, checkpoint.ErrUnexported},
		{"interface", struct{ V any }{V: 1}, checkpoint.ErrUnsupported},
		{"complex", complex(1, 2), checkpoint.ErrUnsupported},
	}
	for _, tc := range cases {
		snap, err := checkpoint.NewEngine(checkpoint.RcAware).Checkpoint(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snap.AppendBinary(nil); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// rec and its variants differ from rec[int, checkpoint.Rc[int]] in one
// way each, for the shape-mismatch table.
type (
	rec[ID, Ref any] struct {
		ID   ID
		Name string
		Ref  Ref
	}
	recSame    rec[int, checkpoint.Rc[int]]
	recRenamed struct {
		Key  int
		Name string
		Ref  checkpoint.Rc[int]
	}
	recAdded struct {
		ID    int
		Name  string
		Ref   checkpoint.Rc[int]
		Extra bool
	}
	list     struct{ Next *list }
	listSame struct{ Next *listSame }
	list2    struct {
		Next *list2
		N    int
	}
)

func TestShapeMismatch(t *testing.T) {
	encode := func(v any) []byte {
		snap, err := checkpoint.NewEngine(checkpoint.RcAware).Checkpoint(v)
		if err != nil {
			t.Fatal(err)
		}
		data, err := snap.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	data := encode(rec[int, checkpoint.Rc[int]]{ID: 1, Name: "n", Ref: checkpoint.NewRc(5)})
	listData := encode(&list{Next: &list{}})
	cases := []struct {
		name   string
		decode func([]byte) (*checkpoint.Snapshot, error)
		data   []byte
		ok     bool
	}{
		{"identical shape", checkpoint.Decode[recSame], data, true},
		{"field added", checkpoint.Decode[recAdded], data, false},
		{"field renamed", checkpoint.Decode[recRenamed], data, false},
		{"field retyped", checkpoint.Decode[rec[int64, checkpoint.Rc[int]]], data, false},
		{"Rc[T] swapped for T", checkpoint.Decode[rec[int, int]], data, false},
		{"recursive, identical", checkpoint.Decode[*listSame], listData, true},
		{"recursive, field added", checkpoint.Decode[*list2], listData, false},
	}
	for _, tc := range cases {
		_, err := tc.decode(tc.data)
		var se *checkpoint.ShapeError
		if tc.ok && err != nil || !tc.ok && (!errors.As(err, &se) || se.Want == se.Got) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
	if got, err := checkpoint.Decode[recSame](data); err != nil || got.Value().(recSame).Ref.Get() != 5 {
		t.Fatalf("identical shape decoded %v, %v", got, err)
	}
}

// TestCodecRejectsBadInput: for every durable state, short, garbage,
// wrong-version, truncated, padded and over-long payloads are errors, and
// so are tokens of the wrong type.
func TestCodecRejectsBadInput(t *testing.T) {
	foreign, err := checkpoint.NewEngine(checkpoint.RcAware).Checkpoint(map[string]int{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	targets := codecTargets()
	for _, tg := range targets {
		good := samplePayload(t, tg)
		bad := map[string][]byte{
			"nil":         nil,
			"garbage":     []byte("garbage"),
			"bad version": append([]byte{99}, good[1:]...),
			"trailing":    append(append([]byte(nil), good...), 0),
			// The root is a pointer: a present flag, then a count far
			// beyond the payload (or a bad flag, for the firewall DB).
			"over-long": append(append([]byte(nil), good[:9]...), 1, 0xff, 0xff, 0xff, 0xff, 0x0f),
		}
		for cut := range good {
			if _, err := tg.codec.DecodeToken(good[:cut]); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("%s: payload cut to %d of %d bytes: err = %v", tg.name, cut, len(good), err)
			}
		}
		for name, data := range bad {
			if _, err := tg.codec.DecodeToken(data); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Errorf("%s: %s payload: err = %v, want ErrCorrupt", tg.name, name, err)
			}
		}
		for _, tok := range []any{"not a snapshot", foreign} {
			if _, err := tg.codec.EncodeToken(tok); !errors.Is(err, checkpoint.ErrTypeMismatch) {
				t.Errorf("%s: encode %T: err = %v, want ErrTypeMismatch", tg.name, tok, err)
			}
		}
	}
	// A session payload is a shape mismatch to the balancer's codec.
	var se *checkpoint.ShapeError
	if _, err := targets[2].codec.DecodeToken(samplePayload(t, targets[1])); !errors.As(err, &se) {
		t.Fatalf("%s payload decoded as %s: err = %v", targets[1].name, targets[2].name, err)
	}
}

// TestCodecConcurrent builds one type's plan from several goroutines at
// once and shares it: domains persist their epochs concurrently.
func TestCodecConcurrent(t *testing.T) {
	type conc struct {
		Tags map[string]checkpoint.Rc[[]string]
	}
	tags := checkpoint.NewRc([]string{"a", "b"})
	snap, err := checkpoint.NewEngine(checkpoint.RcAware).Checkpoint(&conc{map[string]checkpoint.Rc[[]string]{"x": tags, "y": tags.Clone()}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				data, err := snap.AppendBinary(nil)
				var dec *checkpoint.Snapshot
				if err == nil {
					dec, err = checkpoint.Decode[*conc](data)
				}
				if err == nil && !dec.Value().(*conc).Tags["x"].SameBox(dec.Value().(*conc).Tags["y"]) {
					err = errors.New("sharing lost")
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
