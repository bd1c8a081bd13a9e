package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// profileModules are the linefs/internal packages a LineFS run executes.
// attributeProfile charges every CPU sample of the measured phase to the
// innermost frame that belongs to one of them; samples whose innermost
// linefs frame is the benchmark's own code go to "harness", and samples
// with no linefs frame at all (background GC, the scheduler) to
// process.unattributed_self_s.
var profileModules = []string{
	"sim", "hw", "fs", "core", "rdma", "compress", "dfs", "pipeline", "lease",
	"node", "cluster", "stats",
}

// attributeProfile reads a runtime/pprof CPU profile and adds one
// <module>.self_s metric per module, harness.self_s,
// process.unattributed_self_s, and their sum as process.profile_s.
func attributeProfile(path string, out map[string]float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return fmt.Errorf("profile %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("profile %s: %w", path, err)
	}

	known := map[string]bool{}
	for _, m := range profileModules {
		known[m] = true
		out[m+".self_s"] = 0
	}
	out["harness.self_s"] = 0
	out["process.unattributed_self_s"] = 0
	var total int64
	for _, s := range p.samples {
		total += s.cpuNs
		key := "process.unattributed_self_s"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locLines[loc] {
				name := p.strings[p.funcName[fn]]
				if strings.HasPrefix(name, "main.") {
					key = "harness.self_s"
					break frames
				}
				if mod, ok := strings.CutPrefix(name, "linefs/internal/"); ok {
					if i := strings.IndexAny(mod, "./"); i >= 0 {
						mod = mod[:i]
					}
					if known[mod] {
						key = mod + ".self_s"
						break frames
					}
				}
			}
		}
		out[key] += float64(s.cpuNs) / 1e9
	}
	out["process.profile_s"] = float64(total) / 1e9
	return nil
}

// profile is the part of a pprof protobuf (profile.proto) attribution
// needs: samples with their CPU time and leaf-first location ids, each
// location's function ids innermost-inlined first, and function names.
type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64
	funcName map[uint64]int64
	strings  []string
}

type profSample struct {
	locs  []uint64
	cpuNs int64
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := protoFields(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			var vals []uint64
			err := protoFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return protoUints(v, d, &s.locs)
				case 2:
					return protoUints(v, d, &vals)
				}
				return nil
			})
			if err != nil {
				return err
			}
			// CPU profiles carry [samples/count, cpu/nanoseconds].
			if len(vals) < 2 {
				return errors.New("sample without a cpu/nanoseconds value")
			}
			s.cpuNs = int64(vals[1])
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLines[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
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
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// protoFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func protoFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// protoUints appends a repeated uint64 field, packed (data) or not (v).
func protoUints(v uint64, data []byte, out *[]uint64) error {
	if data == nil {
		*out = append(*out, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*out = append(*out, x)
		data = data[n:]
	}
	return nil
}
