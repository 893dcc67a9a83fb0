package main

// A reader for the parts of a runtime/pprof CPU profile the per-layer
// table needs: each sample's stack of function names and CPU time. The profile is
// gzip-compressed protocol buffers (github.com/google/pprof's
// profile.proto); the few fields used are decoded here so the benchmark
// needs nothing outside the standard library.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// Field numbers in profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// stackSample is one CPU profile sample: its stack as function names,
// leaf first with inlined calls expanded, and the CPU time it stands for.
type stackSample struct {
	funcs []string
	ns    int64
}

// readCPUProfile decodes a CPU profile's samples.
func readCPUProfile(gz []byte) ([]stackSample, error) {
	if len(gz) == 0 {
		return nil, errors.New("empty CPU profile")
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id → function ids, innermost first
	funcName := map[uint64]int64{}    // function id → string index
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var sm sample
			var vals []int64
			if err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					return varints(v, b, func(x uint64) { sm.locs = append(sm.locs, x) })
				case sampleValue:
					return varints(v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			// A CPU profile's values are (samples, nanoseconds).
			if len(vals) > 0 {
				sm.value = vals[len(vals)-1]
				samples = append(samples, sm)
			}
		case profLocation:
			var id uint64
			var fns []uint64
			if err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case profFunction:
			var id uint64
			var name int64
			if err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	out := make([]stackSample, len(samples))
	for i, s := range samples {
		out[i].ns = s.value
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := "unknown"
				if j, ok := funcName[fn]; ok && j >= 0 && j < int64(len(strs)) {
					name = strs[j]
				}
				out[i].funcs = append(out[i].funcs, name)
			}
		}
	}
	return out, nil
}

// fields walks one protocol-buffer message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// varints decodes a repeated varint field that may be packed (b holds
// the values) or not (v is the one value).
func varints(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
