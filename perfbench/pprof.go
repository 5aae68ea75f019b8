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

// The CPU profile written by runtime/pprof is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The benchmark needs only
// the leaf function of each sample and the sample's CPU time, so it
// decodes just the fields below rather than depending on the pprof
// module.
const (
	profSampleType  = 1 // Profile.sample_type: ValueType
	profSample      = 2 // Profile.sample: Sample
	profLocation    = 4 // Profile.location: Location
	profFunction    = 5 // Profile.function: Function
	profStringTable = 6 // Profile.string_table: string

	valueTypeType = 1 // ValueType.type: string index

	sampleLocationID = 1 // Sample.location_id: repeated uint64
	sampleValue      = 2 // Sample.value: repeated int64

	locationID   = 1 // Location.id
	locationLine = 4 // Location.line: Line (innermost inlined call first)

	lineFunctionID = 1 // Line.function_id

	functionID   = 1 // Function.id
	functionName = 2 // Function.name: string index
)

// selfTimeByPackage decodes a CPU profile and returns the CPU seconds
// whose sampled stack ends in each package: the package's self time.
// Packages are named by import path ("repro/internal/simnet", "runtime").
func selfTimeByPackage(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		types     []int64 // sample value type string indices
		samples   [][]byte
		locFunc   = map[uint64]uint64{} // location id -> leaf function id
		funcNames = map[uint64]int64{}  // function id -> name string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profStringTable:
			strs = append(strs, string(b))
		case profSampleType:
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == valueTypeType {
					types = append(types, int64(v))
				}
				return nil
			})
		case profSample:
			samples = append(samples, b)
		case profLocation:
			var id, fn uint64
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch {
				case n == locationID:
					id = v
				case n == locationLine && fn == 0:
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == lineFunctionID {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU profile's values are [samples/count, cpu/nanoseconds].
	cpu := -1
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := map[string]float64{}
	for _, sb := range samples {
		var locs []uint64
		var vals []int64
		err := eachField(sb, func(n, wire int, v uint64, b []byte) error {
			switch n {
			case sampleLocationID:
				return appendVarints(wire, v, b, func(x uint64) { locs = append(locs, x) })
			case sampleValue:
				return appendVarints(wire, v, b, func(x uint64) { vals = append(vals, int64(x)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(locs) == 0 || cpu >= len(vals) {
			continue
		}
		name := ""
		if idx, ok := funcNames[locFunc[locs[0]]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[packageOf(name)] += float64(vals[cpu]) / 1e9
	}
	return out, nil
}

// selfCPUPackages maps the self_cpu_s metrics to the packages whose
// self time they sum.
var selfCPUPackages = map[string][]string{
	"sim.self_cpu_s":        {"repro/internal/sim"},
	"simnet.self_cpu_s":     {"repro/internal/simnet"},
	"bittorrent.self_cpu_s": {"repro/internal/bittorrent"},
	"cluster.self_cpu_s":    {"repro/internal/cluster"},
	"runtime.self_cpu_s":    {"runtime"},
	"syscall.self_cpu_s":    {"syscall", "internal/runtime/syscall"},
	"json.self_cpu_s":       {"encoding/json"},
}

// setSelfCPU reports the self_cpu_s metrics per operation, from the
// self times of ops profiled operations.
func setSelfCPU(rep *report, selfCPU map[string]float64, ops int) {
	for name, pkgs := range selfCPUPackages {
		sum := 0.0
		for _, p := range pkgs {
			sum += selfCPU[p]
		}
		rep.set(name, sum/float64(ops))
	}
}

// packageOf returns the import path of a fully qualified Go function
// name: "repro/internal/simnet.(*Network).solve" -> "repro/internal/simnet".
func packageOf(fn string) string {
	if fn == "" {
		return "unknown"
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// appendVarints feeds a repeated integer field to add, in either its
// packed (length-delimited) or unpacked (one varint) encoding.
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message, calling fn with
// the field number, wire type, and the varint value (wire type 0) or the
// payload (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
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
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
