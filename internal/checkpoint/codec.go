package checkpoint

// codec.go derives a durable byte form for snapshots from the type, by
// the same §5 walk that derives the deep copy. The unique-vs-shared split
// carries over: a plain pointer is a unique owner, inlined behind a nil
// flag; an Rc box is written once, at its first visit, and referred to by
// ordinal afterwards — Figure 3a's "already copied" flag, serialized — so
// decoding rebuilds the alias structure, cycles through Rc included.
//
// Payload: u8 version, u64 shape hash of the root type, then the value.
// Bools and numbers are little-endian, as wide as their Go type. Strings
// carry a uvarint length; slices and maps a uvarint length+1, 0 meaning
// nil. An Rc handle is a uvarint: 0 is the zero Rc, n+1 (n boxes so far)
// opens a new box followed by its value, k ≤ n is an alias of box k. An
// unexported field is not written and must be zero. A length is checked
// against the bytes left before anything is allocated.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"unsafe"
)

// codecVersion opens every payload; 1 was the hand-written per-NF
// formats this codec replaced.
const codecVersion = 2

// ErrCorrupt reports a payload that is truncated, has trailing bytes or
// holds a value no encoder writes.
var ErrCorrupt = errors.New("checkpoint: corrupt payload")

// ShapeError reports a payload written for another shape than the type
// it is decoded as, such as a durable record from a build whose state
// types have since changed.
type ShapeError struct {
	Type      reflect.Type // the type decoding asked for
	Want, Got uint64       // shape hashes of Type and of the payload
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("checkpoint: payload shape %016x does not match %s (shape %016x)", e.Got, e.Type, e.Want)
}

// Codec implements the domain runtime's TokenCodec for a state whose
// checkpoint tokens are snapshots of a T. It is zero-size: a state gets
// durability by embedding it.
type Codec[T any] struct{}

// EncodeToken serializes a Checkpoint token holding a T.
func (Codec[T]) EncodeToken(token any) ([]byte, error) {
	snap, ok := token.(*Snapshot)
	if want := reflect.TypeFor[T](); !ok || snap.typ != want {
		return nil, fmt.Errorf("checkpoint: encode token %T is not a snapshot of %s: %w", token, want, ErrTypeMismatch)
	}
	return snap.AppendBinary(nil)
}

// DecodeToken rebuilds a restorable token from EncodeToken's bytes.
func (Codec[T]) DecodeToken(data []byte) (any, error) { return Decode[T](data) }

// AppendBinary appends the snapshot's payload to b. It walks the
// immutable snapshot directly; nothing is materialized.
func (s *Snapshot) AppendBinary(b []byte) ([]byte, error) {
	p, err := planFor(s.typ)
	if err != nil {
		return b, err
	}
	e := encoder{buf: binary.LittleEndian.AppendUint64(append(b, codecVersion), p.shape)}
	if err := e.value(p, s.val); err != nil {
		return b, fmt.Errorf("checkpoint: encode %s: %w", s.typ, err)
	}
	return e.buf, nil
}

// Decode rebuilds a snapshot of a T from AppendBinary's bytes, as an
// RcAware snapshot: Restore reproduces the recorded alias structure.
func Decode[T any](data []byte) (*Snapshot, error) {
	t := reflect.TypeFor[T]()
	p, err := planFor(t)
	if err != nil {
		return nil, err
	}
	if len(data) < 9 || data[0] != codecVersion {
		return nil, fmt.Errorf("checkpoint: decode %s: no version %d header: %w", t, codecVersion, ErrCorrupt)
	}
	if got := binary.LittleEndian.Uint64(data[1:]); got != p.shape {
		return nil, &ShapeError{Type: t, Want: p.shape, Got: got}
	}
	d := decoder{data: data[9:]}
	v := reflect.New(t).Elem()
	if err := d.value(p, v); err != nil {
		return nil, fmt.Errorf("checkpoint: decode %s: %w", t, err)
	}
	if len(d.data) != 0 {
		return nil, fmt.Errorf("checkpoint: decode %s: %d trailing bytes: %w", t, len(d.data), ErrCorrupt)
	}
	return &Snapshot{val: v, typ: t, mode: RcAware}, nil
}

// plan is what the walk needs to know of one type, derived once and
// cached.
type plan struct {
	shape  uint64
	kind   reflect.Kind
	width  int      // bool or number: payload bytes
	rc     rcHandle // Rc[T]: the zero handle
	elem   *plan    // pointee, element, map value or Rc value
	key    *plan
	fields []*plan // struct fields in order; nil: unexported, must be zero
	least  int     // fewest payload bytes of one element or map entry
}

// plans caches plans by reflect.Type. It only grows and a plan depends on
// its type alone, so sharing it is safe.
var (
	plans  sync.Map
	planMu sync.Mutex
)

func planFor(t reflect.Type) (*plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*plan), nil
	}
	planMu.Lock()
	defer planMu.Unlock()
	building := make(map[reflect.Type]*plan)
	p, err := build(t, building)
	if err != nil {
		return nil, err
	}
	for t, p := range building {
		plans.Store(t, p)
	}
	return p, nil
}

// build derives t's plan. A recursive type meets its own plan in
// building while that is still being filled in; the walk reads it only
// later. Nothing is cached unless the whole build succeeds.
func build(t reflect.Type, building map[reflect.Type]*plan) (*plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*plan), nil
	}
	if p := building[t]; p != nil {
		return p, nil
	}
	p := &plan{shape: shapeHash(t), kind: t.Kind()}
	building[t] = p
	var err error
	switch k := p.kind; {
	case isRc(t):
		p.rc = reflect.Zero(t).Interface().(rcHandle)
		p.elem, err = build(p.rc.rcType(), building)
	case k >= reflect.Bool && k <= reflect.Float64:
		p.width = int(t.Size())
	case k == reflect.String:
	case k == reflect.Pointer || k == reflect.Array || k == reflect.Slice:
		p.elem, err = build(t.Elem(), building)
		p.least = minSize(t.Elem())
	case k == reflect.Map:
		if p.key, err = build(t.Key(), building); err == nil {
			p.elem, err = build(t.Elem(), building)
		}
		p.least = minSize(t.Key()) + minSize(t.Elem())
	case k == reflect.Struct:
		p.fields = make([]*plan, t.NumField())
		for i := 0; i < t.NumField() && err == nil; i++ {
			if t.Field(i).IsExported() {
				p.fields[i], err = build(t.Field(i).Type, building)
			}
		}
	default:
		err = fmt.Errorf("checkpoint: codec for %s (kind %s): %w", t, k, ErrUnsupported)
	}
	return p, err
}

// encoder holds one payload and the ordinal of every Rc box written so
// far, keyed by box pointer.
type encoder struct {
	buf []byte
	rcs map[unsafe.Pointer]uint64
}

func (e *encoder) value(p *plan, v reflect.Value) error {
	switch k := p.kind; {
	case p.width > 0:
		var x [8]byte
		binary.LittleEndian.PutUint64(x[:], bits(v))
		e.buf = append(e.buf, x[:p.width]...)
	case p.rc != nil:
		return e.rc(p, v.Interface().(rcHandle))
	case k == reflect.String:
		e.buf = append(binary.AppendUvarint(e.buf, uint64(v.Len())), v.String()...)
	case (k == reflect.Pointer || k == reflect.Slice || k == reflect.Map) && v.IsNil():
		e.buf = append(e.buf, 0)
	case k == reflect.Pointer:
		e.buf = append(e.buf, 1)
		return e.value(p.elem, v.Elem())
	case k == reflect.Array, k == reflect.Slice:
		if k == reflect.Slice {
			e.buf = binary.AppendUvarint(e.buf, uint64(v.Len())+1)
		}
		for i := 0; i < v.Len(); i++ {
			if err := e.value(p.elem, v.Index(i)); err != nil {
				return err
			}
		}
	case k == reflect.Map:
		e.buf = binary.AppendUvarint(e.buf, uint64(v.Len())+1)
		key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		for it := v.MapRange(); it.Next(); {
			key.SetIterKey(it)
			val.SetIterValue(it)
			if err := e.value(p.key, key); err != nil {
				return err
			}
			if err := e.value(p.elem, val); err != nil {
				return err
			}
		}
	default: // struct
		for i, f := range p.fields {
			var err error
			switch {
			case f != nil:
				err = e.value(f, v.Field(i))
			case !v.Field(i).IsZero():
				err = fmt.Errorf("%s.%s is set: %w", v.Type(), v.Type().Field(i).Name, ErrUnexported)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *encoder) rc(p *plan, h rcHandle) error {
	box := h.rcBox()
	k, seen := e.rcs[box]
	switch {
	case box == nil:
		e.buf = append(e.buf, 0)
	case seen:
		e.buf = binary.AppendUvarint(e.buf, k)
	default:
		if e.rcs == nil {
			e.rcs = make(map[unsafe.Pointer]uint64)
		}
		k = uint64(len(e.rcs)) + 1
		e.rcs[box] = k
		e.buf = binary.AppendUvarint(e.buf, k)
		return e.value(p.elem, h.rcElem())
	}
	return nil
}

// decoder holds the unread bytes and the Rc boxes decoded so far, by
// ordinal-1.
type decoder struct {
	data []byte
	rcs  []rcHandle
}

// value sets every written part of v, which must be settable, so a
// scratch value can be decoded into repeatedly.
func (d *decoder) value(p *plan, v reflect.Value) error {
	switch k := p.kind; {
	case p.width > 0:
		b, err := d.take(p.width)
		if err != nil {
			return err
		}
		var x [8]byte
		copy(x[:], b)
		return setBits(v, binary.LittleEndian.Uint64(x[:]), p.width)
	case p.rc != nil:
		return d.rc(p, v)
	case k == reflect.String:
		x, err := d.uvarint()
		if err != nil {
			return err
		}
		n, err := d.fits(x, 1)
		if err != nil {
			return err
		}
		v.SetString(string(d.data[:n]))
		d.data = d.data[n:]
	case k == reflect.Pointer:
		flag, err := d.take(1)
		switch {
		case err != nil:
			return err
		case flag[0] > 1:
			return fmt.Errorf("%w: pointer flag %d", ErrCorrupt, flag[0])
		case flag[0] == 0:
			v.SetZero()
			return nil
		}
		v.Set(reflect.New(v.Type().Elem()))
		return d.value(p.elem, v.Elem())
	case k == reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := d.value(p.elem, v.Index(i)); err != nil {
				return err
			}
		}
	case k == reflect.Slice, k == reflect.Map:
		x, err := d.uvarint()
		if err != nil || x == 0 {
			v.SetZero()
			return err
		}
		n, err := d.fits(x-1, p.least)
		if err != nil {
			return err
		}
		if k == reflect.Slice {
			s := reflect.MakeSlice(v.Type(), n, n)
			for i := 0; i < n; i++ {
				if err := d.value(p.elem, s.Index(i)); err != nil {
					return err
				}
			}
			v.Set(s)
			return nil
		}
		m := reflect.MakeMapWithSize(v.Type(), n)
		key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		for i := 1; i <= n; i++ {
			if err := d.value(p.key, key); err != nil {
				return err
			}
			if err := d.value(p.elem, val); err != nil {
				return err
			}
			if m.SetMapIndex(key, val); m.Len() != i {
				return fmt.Errorf("%w: duplicate map key", ErrCorrupt)
			}
		}
		v.Set(m)
	default: // struct
		for i, f := range p.fields {
			if f == nil {
				continue
			}
			if err := d.value(f, v.Field(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *decoder) rc(p *plan, v reflect.Value) error {
	k, err := d.uvarint()
	if err != nil {
		return err
	}
	switch n := uint64(len(d.rcs)); {
	case k == 0:
		v.SetZero()
	case k <= n:
		h := d.rcs[k-1]
		if reflect.TypeOf(h) != v.Type() {
			return fmt.Errorf("%w: Rc ordinal %d is a %T, want %s", ErrCorrupt, k, h, v.Type())
		}
		v.Set(h.rcAlias())
	case k == n+1:
		h, val := p.rc.rcNew()
		d.rcs = append(d.rcs, h)
		v.Set(reflect.ValueOf(h))
		return d.value(p.elem, val)
	default:
		return fmt.Errorf("%w: Rc ordinal %d with %d boxes decoded", ErrCorrupt, k, n)
	}
	return nil
}

func (d *decoder) take(n int) ([]byte, error) {
	if len(d.data) < n {
		return nil, fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	b := d.data[:n]
	d.data = d.data[n:]
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.data)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	d.data = d.data[n:]
	return x, nil
}

// fits refuses a count of n items of at least least bytes each that the
// bytes left cannot hold, before anything is allocated.
func (d *decoder) fits(n uint64, least int) (int, error) {
	if n > uint64(len(d.data)/max(least, 1)) {
		return 0, fmt.Errorf("%w: length %d exceeds the %d bytes left", ErrCorrupt, n, len(d.data))
	}
	return int(n), nil
}

// bits is a bool's or number's payload, zero-extended to 64 bits.
func bits(v reflect.Value) uint64 {
	switch k := v.Kind(); {
	case k == reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case k <= reflect.Int64:
		return uint64(v.Int())
	case k <= reflect.Uintptr:
		return v.Uint()
	case k == reflect.Float32:
		return uint64(math.Float32bits(float32(v.Float())))
	}
	return math.Float64bits(v.Float())
}

// setBits sets v from a payload of width bytes; only a bool can hold a
// value no encoder writes.
func setBits(v reflect.Value, x uint64, width int) error {
	switch k := v.Kind(); {
	case k == reflect.Bool && x > 1:
		return fmt.Errorf("%w: bool byte %d", ErrCorrupt, x)
	case k == reflect.Bool:
		v.SetBool(x == 1)
	case k <= reflect.Int64:
		shift := 64 - 8*width // sign-extend
		v.SetInt(int64(x<<shift) >> shift)
	case k <= reflect.Uintptr:
		v.SetUint(x)
	case k == reflect.Float32:
		v.SetFloat(float64(math.Float32frombits(uint32(x))))
	default:
		v.SetFloat(math.Float64frombits(x))
	}
	return nil
}

// minSize is the fewest payload bytes a value of t takes. Pointers,
// strings, slices, maps and Rc take at least one header byte, so only
// by-value nesting is descended, which Go keeps finite.
func minSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Struct:
		if isRc(t) {
			return 1
		}
		n := 0
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				n += minSize(f.Type)
			}
		}
		return n
	case reflect.Array:
		return t.Len() * minSize(t.Elem())
	case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map:
		return 1
	}
	return int(t.Size())
}

// shapeHash is FNV-1a over t's canonical shape: kinds, widths of
// platform-sized ints, array lengths, exported field names in order, key
// and element shapes and Rc markers, recursively. A type met again
// inside itself, such as trie.Node, is a back-reference (its distance up
// the walk). Type names are not part of the shape.
func shapeHash(t reflect.Type) uint64 {
	h := fnv.New64a()
	h.Write(appendShape(nil, t, nil))
	return h.Sum64()
}

func appendShape(b []byte, t reflect.Type, stack []reflect.Type) []byte {
	for i, s := range stack {
		if s == t {
			return binary.AppendUvarint(append(b, '^'), uint64(len(stack)-i))
		}
	}
	stack = append(stack, t)
	if isRc(t) {
		return appendShape(append(b, 'R'), reflect.Zero(t).Interface().(rcHandle).rcType(), stack)
	}
	b = append(b, byte(t.Kind()))
	switch t.Kind() {
	case reflect.Int, reflect.Uint, reflect.Uintptr:
		b = append(b, byte(t.Size()))
	case reflect.Pointer, reflect.Slice:
		b = appendShape(b, t.Elem(), stack)
	case reflect.Array:
		b = appendShape(binary.AppendUvarint(b, uint64(t.Len())), t.Elem(), stack)
	case reflect.Map:
		b = appendShape(appendShape(b, t.Key(), stack), t.Elem(), stack)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				b = appendShape(append(binary.AppendUvarint(b, uint64(len(f.Name))), f.Name...), f.Type, stack)
			}
		}
		b = append(b, 0) // ends the field list: no name is empty
	}
	return b
}

// rcHandle is the codec's view of an Rc[T]: box identity and value on
// encode, new boxes and aliases on decode. Only Rc implements it.
type rcHandle interface {
	rcBox() unsafe.Pointer
	rcElem() reflect.Value
	rcType() reflect.Type
	rcNew() (rcHandle, reflect.Value)
	rcAlias() reflect.Value
}

// isRc reports whether t is an Rc instantiation. The kind check keeps
// *Rc[T], whose method set includes Rc's, on the pointer path.
func isRc(t reflect.Type) bool {
	return t.Kind() == reflect.Struct && t.Implements(reflect.TypeFor[rcHandle]())
}

func (r Rc[T]) rcBox() unsafe.Pointer { return unsafe.Pointer(r.box) }

// rcElem reads the box without its lock: a snapshot's boxes are never
// Set, and Restore's walk writes only their epoch flag.
func (r Rc[T]) rcElem() reflect.Value { return reflect.ValueOf(&r.box.val).Elem() }

func (Rc[T]) rcType() reflect.Type { return reflect.TypeFor[T]() }

func (Rc[T]) rcNew() (rcHandle, reflect.Value) {
	nb := &rcBox[T]{strong: 1}
	return Rc[T]{box: nb}, reflect.ValueOf(&nb.val).Elem()
}

func (r Rc[T]) rcAlias() reflect.Value { return reflect.ValueOf(r.Clone()) }
