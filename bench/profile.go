package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// A stdlib-only reader for the gzip'd pprof protobuf that runtime/pprof
// writes, kept to what layer attribution needs: each sample's stack as
// function names. The module has no dependencies and the run needs no
// `go tool pprof`.

// stackSample is one profile sample: its stack, leaf first with inlined
// frames expanded, and how many profiling ticks hit it.
type stackSample struct {
	Stack []string
	Count int64
}

type cpuProfile struct {
	Samples  []stackSample
	PeriodNs int64
}

var errProto = errors.New("pprof: malformed protobuf")

// eachField calls fn for every field of a protobuf message: v holds a
// varint field's value, data a length-delimited field's bytes. Fixed-width
// fields are skipped; the profile format does not use them.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, skip := int(key>>3), 0
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			skip = n + int(l)
		case 1:
			skip = 8
		case 5:
			skip = 4
		default:
			return errProto
		}
		if skip > len(b) {
			return errProto
		}
		b = b[skip:]
	}
	return nil
}

// varints appends a repeated integer field's values: packed when data is
// set, a single value otherwise.
func varints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// decodeProfile reads a gzip'd profile.proto message.
func decodeProfile(gz []byte) (cpuProfile, error) {
	var p cpuProfile
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return p, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return p, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids, leaf first
		functions = map[uint64]uint64{}   // function id -> name's string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample: location_id = 1, value = 2
			var s rawSample
			err := eachField(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = varints(s.locs, v, data)
				case 2:
					s.values, err = varints(s.values, v, data)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location: id = 1, line = 4 { function_id = 1 }
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			functions[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		case 12:
			p.PeriodNs = int64(v)
		}
		return nil
	})
	if err != nil {
		return p, err
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			return p, errProto
		}
		out := stackSample{Count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				idx := functions[fn]
				if idx >= uint64(len(strs)) {
					return p, errProto
				}
				out.Stack = append(out.Stack, strs[idx])
			}
		}
		p.Samples = append(p.Samples, out)
	}
	return p, nil
}

const internalPrefix = "repro/internal/"

// layerOf maps a function name to its layer: the package under
// repro/internal/, with nand/vth written nand-vth. It returns "" for any
// other function.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	fn = fn[len(internalPrefix):]
	// Type arguments of a generic function may name other packages.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return strings.ReplaceAll(fn[:slash+1+dot], "/", "-")
}

// Keys of attribute's result that are not layers.
const (
	keyTotal   = "total"
	keyBg      = "runtime-bg"      // no repo frame on the stack: GC workers
	keyHarness = "harness"         // only the bench's own frames
	keyMalloc  = "runtime-malloc"  // runtime.mallocgc anywhere on the stack
	keyMemmove = "runtime-memmove" // runtime.memmove anywhere on the stack
)

// attribute charges every sample to the leaf-most repro/internal frame on
// its stack, so runtime work (allocation, memmove, map access) lands on
// the layer that caused it. The malloc and memmove keys cut across the
// layers and overlap them.
func attribute(p cpuProfile) map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.Samples {
		key, harness := "", false
		for _, fn := range s.Stack {
			if key == "" {
				key = layerOf(fn)
			}
			// A test binary compiles package main under its import path.
			harness = harness || strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/bench.")
		}
		if key == "" {
			key = keyBg
			if harness {
				key = keyHarness
			}
		}
		out[key] += s.Count
		out[keyTotal] += s.Count
		if slices.Contains(s.Stack, "runtime.mallocgc") {
			out[keyMalloc] += s.Count
		}
		if slices.Contains(s.Stack, "runtime.memmove") {
			out[keyMemmove] += s.Count
		}
	}
	return out
}
