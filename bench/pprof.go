package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a runtime/pprof profile the layer fold needs:
// sample types and, per sample, its stack as function names and its
// values. The encoding is gzip over the protobuf wire format of
// github.com/google/pprof's profile.proto; only the fields read here are
// decoded.
type profile struct {
	types   []string // sample_type names, e.g. "samples", "cpu" or "alloc_objects"
	samples []stackSample
}

// stackSample is one sample: function names leaf first, with inlined
// callees before the function they were inlined into.
type stackSample struct {
	stack  []string
	values []int64
}

// profile.proto field numbers.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2

	valueTypeType = 1
)

var errWire = errors.New("malformed protobuf")

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		typeIdx   []uint64
		sampleLoc [][]uint64
		sampleVal [][]uint64
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]uint64{}   // function id -> string index
	)
	err = fields(raw, func(num int, wire uint64, v uint64, b []byte) error {
		switch num {
		case profSampleType:
			return fields(b, func(num int, wire uint64, v uint64, _ []byte) error {
				if num == valueTypeType {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case profSample:
			var locs, vals []uint64
			err := fields(b, func(num int, wire uint64, v uint64, b []byte) error {
				var err error
				switch num {
				case sampleLocation:
					locs, err = appendVarints(locs, wire, v, b)
				case sampleValue:
					vals, err = appendVarints(vals, wire, v, b)
				}
				return err
			})
			sampleLoc = append(sampleLoc, locs)
			sampleVal = append(sampleVal, vals)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, wire uint64, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return fields(b, func(num int, _ uint64, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := fields(b, func(num int, _ uint64, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case profStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("string index %d out of range", i)
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.types = append(p.types, s)
	}
	for i, locs := range sampleLoc {
		s := stackSample{}
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				name, err := str(funcName[f])
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		for _, v := range sampleVal[i] {
			s.values = append(s.values, int64(v))
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type and either its integer value (varint and fixed wire types) or
// its bytes (length-delimited).
func fields(buf []byte, fn func(num int, wire uint64, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errWire
		}
		buf = buf[n:]
		var v uint64
		var b []byte
		wire := key & 7
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errWire
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errWire
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errWire
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errWire
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return errWire
		}
		if err := fn(int(key>>3), wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, which the encoder may
// write either one element per field or packed into one byte string.
func appendVarints(dst []uint64, wire uint64, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errWire
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// byLayer sums the named sample value per layer.
func (p *profile) byLayer(sampleType string) (map[string]int64, error) {
	idx := -1
	for i, t := range p.types {
		if t == sampleType {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("profile has no %q samples (types %v)", sampleType, p.types)
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if idx < len(s.values) {
			out[layerOf(s.stack)] += s.values[idx]
		}
	}
	return out, nil
}

// layerOf charges a stack to its innermost pmemaccel frame's layer, so
// runtime work (map growth, allocation, GC assists) counts against the
// simulator code that caused it. Frames of pmemaccel packages outside
// the layer table, such as memaddr's helpers, count as their caller. A
// stack with no such frame (GC workers, the scheduler, the benchmark
// itself) is runtime.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

const internalPrefix = "pmemaccel/internal/"

func frameLayer(fn string) string {
	// A function name is its package path, a dot, then the symbol; the
	// path's last element has no dot, so the first dot after the last
	// slash ends the path.
	slash := strings.LastIndexByte(fn, '/') + 1
	dot := strings.IndexByte(fn[slash:], '.')
	if dot < 0 {
		return ""
	}
	pkg, sym := fn[:slash+dot], fn[slash+dot+1:]
	if pkg == "pmemaccel" {
		return "oracle"
	}
	if !strings.HasPrefix(pkg, internalPrefix) {
		return ""
	}
	top, _, _ := strings.Cut(strings.TrimPrefix(pkg, internalPrefix), "/")
	switch {
	case top == "txcache" && strings.HasPrefix(sym, "(*LineArbiter)."),
		top == "mechanism" && strings.HasPrefix(sym, "(*conflictGuard)."):
		return "arbiter"
	case top == "pheap":
		return "workload"
	}
	for _, l := range layers {
		if l == top {
			return l
		}
	}
	return ""
}
