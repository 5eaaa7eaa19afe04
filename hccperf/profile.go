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

// CPU-profile attribution. runtime/pprof writes a gzipped profile.proto;
// the few fields needed here (samples, locations, functions, strings) are
// decoded by hand so the benchmark needs nothing beyond the standard
// library.

// simPrefix marks the simulator's layer packages in function names.
const simPrefix = "hccsim/internal/"

// runtimeLayer collects samples with no simulator frame on the stack: the
// Go runtime and scheduler, plus the benchmark's own loop.
const runtimeLayer = "go.runtime"

// layerOf maps a fully qualified function name to its simulator layer (the
// first path element under internal/), or "" for non-simulator code.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, simPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// layerSamples attributes every sample of a gzipped CPU profile to the
// innermost simulator package on its stack, not to the leaf frame, so a
// channel handoff or map lookup made on a layer's behalf counts toward that
// layer. It returns sample counts per layer.
func layerSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples []struct {
			locs  []uint64
			count int64
		}
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s struct {
				locs  []uint64
				count int64
			}
			var vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = varints(s.locs, v, b)
				case 2:
					vals, err = varints(vals, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	name := func(fid uint64) string {
		if i, ok := funcs[fid]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := map[string]int64{}
	for _, s := range samples {
		layer := runtimeLayer
	stack:
		for _, lid := range s.locs { // leaf first
			for _, fid := range locs[lid] { // innermost inlined frame first
				if l := layerOf(name(fid)); l != "" {
					layer = l
					break stack
				}
			}
		}
		out[layer] += s.count
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field number and
// either its varint value or its length-delimited bytes. Fixed-width
// fields, which profile.proto does not use for the fields read here, are
// skipped.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated varint field that arrived either unpacked
// (one value v) or packed (body b).
func varints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
