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

// Per-layer CPU attribution from a runtime/pprof CPU profile. Each
// sample is charged to the innermost frame of its stack that belongs
// to the repository, so runtime and standard-library time (map
// assigns, mallocgc, memmove) lands on the layer that caused it —
// what `go tool pprof -top -show='^sciera/'` computes offline. The
// profile is a gzipped profile.proto; only the handful of fields the
// attribution needs are decoded, by hand, because the module has no
// dependencies.

const repoPrefix = "sciera/internal/"

// layerOf maps a Go function name to the bucket it is charged to, or
// "" when the function is not the repository's.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range busyLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "other" // the harness itself
	}
	return ""
}

// attributeProfile returns CPU nanoseconds per bucket (busyLayers,
// "other", "runtime_bg") and their total, which equals the profile's
// total by construction.
func attributeProfile(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}

	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]uint64{}   // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		nSampleTy int
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			nSampleTy++
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line: inlined callees come first
					return eachField(b, func(num int, v uint64, _ []byte) error {
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
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if nSampleTy == 0 {
		return nil, 0, errors.New("profile has no sample types")
	}

	// Go CPU profiles carry (samples/count, cpu/nanoseconds); the last
	// value is the time.
	busy := map[string]int64{}
	var total int64
	layerByFunc := map[uint64]string{}
	for _, s := range samples {
		if len(s.vals) != nSampleTy {
			return nil, 0, fmt.Errorf("sample has %d values, profile declares %d", len(s.vals), nSampleTy)
		}
		ns := s.vals[len(s.vals)-1]
		total += ns
		layer := "runtime_bg"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				l, ok := layerByFunc[fn]
				if !ok {
					if idx := funcName[fn]; idx < uint64(len(strs)) {
						l = layerOf(strs[idx])
					}
					layerByFunc[fn] = l
				}
				if l != "" {
					layer = l
					break stack
				}
			}
		}
		busy[layer] += ns
	}
	return busy, total, nil
}

// eachField walks the fields of one protobuf message. Varint fields
// arrive in v, length-delimited ones in b; fixed-width fields are
// skipped (the attribution reads none).
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("truncated protobuf key")
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("truncated protobuf varint")
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated protobuf fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated protobuf bytes")
			}
			if err := f(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated protobuf fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's payload: the packed
// form arrives as bytes, the unpacked form as a single value.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		u, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		packed = packed[n:]
	}
	return dst
}
