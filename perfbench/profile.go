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

// sample is one CPU-profile sample.
type sample struct {
	stack  []string // function names, leaf first, inlined frames expanded
	cpuNS  int64
	labels map[string]string
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping what attribution needs: each sample's stack, CPU time
// and labels. The toolchain's own reader is not importable.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs, vals []uint64
		labels     [][2]uint64 // key, str (string-table indices)
	}
	var (
		strs      []string
		types     []uint64 // sample_type type names (string-table indices)
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location -> function ids, leaf first
		funcNames = map[uint64]uint64{}   // function -> name (string-table index)
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return repeated(&s.locs, v, b)
				case 2:
					return repeated(&s.vals, v, b)
				case 3:
					var key, str uint64
					err := fields(b, func(n int, v uint64, _ []byte) error {
						switch n {
						case 1:
							key = v
						case 2:
							str = v
						}
						return nil
					})
					s.labels = append(s.labels, [2]uint64{key, str})
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
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
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		s := sample{labels: map[string]string{}}
		if cpu >= 0 && cpu < len(rs.vals) {
			s.cpuNS = int64(rs.vals[cpu])
		}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		for _, l := range rs.labels {
			s.labels[str(l[0])] = str(l[1])
		}
		out = append(out, s)
	}
	return out, nil
}

// fields calls fn for each field of a protobuf message: its number, and
// its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		var v uint64
		var body []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, body); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends a repeated integer field, packed (b non-nil) or not.
func repeated(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst, b = append(*dst, x), b[n:]
	}
	return nil
}

// layers are the buckets CPU samples are charged to: the simulator's
// modules, the Go garbage collector's own workers, and everything else.
var layers = []string{"sim", "cache", "proto", "mesh", "memctrl", "workload", "core", "gc", "other"}

const repoPrefix = "repro/internal/"

// layerOf names the bucket a sample's stack is charged to: the
// repro/internal package of its innermost repository frame, so runtime
// and standard-library frames go to the repository code that called
// them. A stack with no repository frame goes to gc when it is a GC
// worker's; all else, and packages outside layers, go to other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if pkg, ok := strings.CutPrefix(fn, repoPrefix); ok {
			pkg, _, _ = strings.Cut(pkg, ".")
			for _, l := range layers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "gc"
		}
	}
	return "other"
}

// selfTime sums the samples' CPU seconds per layer, and over all.
func selfTime(samples []sample) (perLayer map[string]float64, total float64) {
	perLayer = map[string]float64{}
	for _, l := range layers {
		perLayer[l] = 0
	}
	for _, s := range samples {
		sec := float64(s.cpuNS) / 1e9
		perLayer[layerOf(s.stack)] += sec
		total += sec
	}
	return perLayer, total
}
