package main

// The port's receive loop is a goroutine inside netport that no public
// interface exposes: the benchmark prices it with the Go runtime's CPU
// profiler, as the share of samples whose stack runs through the loop
// times the process CPU time the clocks measured. The profile is decoded
// here with a minimal protobuf reader (the pprof format: gzip-compressed
// perftools.profiles.Profile).

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
)

// rxLoopFunc is the receive loop's function name in profile stacks.
const rxLoopFunc = "repro/internal/netport.(*Port).runLoop"

// profiled runs f under the CPU profiler and returns how many samples
// have fn on their stack, out of how many.
func profiled(fn string, f func() error) (hits, samples int64, err error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return 0, 0, fmt.Errorf("cpu profile: %w", err)
	}
	ferr := f()
	pprof.StopCPUProfile()
	if ferr != nil {
		return 0, 0, ferr
	}
	return countSamples(buf.Bytes(), fn)
}

// countSamples counts a pprof CPU profile's samples, and those with fn
// on their stack.
func countSamples(data []byte, fn string) (hits, samples int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, 0, fmt.Errorf("profile: %w", err)
	}
	var (
		recs      []profSample
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			recs = append(recs, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	for _, s := range recs {
		if len(s.values) < 1 {
			continue
		}
		n := int64(s.values[0]) // sample types: samples/count, cpu/nanoseconds
		samples += n
		if onStack(s.locs, locFuncs, funcNames, strs, fn) {
			hits += n
		}
	}
	return hits, samples, nil
}

// onStack reports whether a sample's stack has a frame named fn.
func onStack(locs []uint64, locFuncs map[uint64][]uint64, funcNames map[uint64]int64, strs []string, fn string) bool {
	for _, loc := range locs {
		for _, id := range locFuncs[loc] {
			if idx := funcNames[id]; idx >= 0 && int(idx) < len(strs) && strs[idx] == fn {
				return true
			}
		}
	}
	return false
}

type profSample struct {
	locs   []uint64
	values []uint64
}

// appendVarints appends a repeated integer field: one varint (v) when
// unpacked, a packed run in b otherwise.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message. Varint fields pass their value
// in v (b nil); length-delimited fields pass their bytes in b.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := varint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := varint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			if err := f(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", typ)
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
