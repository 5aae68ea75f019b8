package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb builds protobuf messages for the tests.
type pb []byte

func (m pb) varint(field int, v uint64) pb {
	m = binary.AppendUvarint(m, uint64(field)<<3)
	return binary.AppendUvarint(m, v)
}

func (m pb) bytes(field int, b []byte) pb {
	m = binary.AppendUvarint(m, uint64(field)<<3|2)
	m = binary.AppendUvarint(m, uint64(len(b)))
	return append(m, b...)
}

func (m pb) packed(field int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return m.bytes(field, p)
}

func gzipped(t *testing.T, b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSelfTimeByPackage decodes a hand-built profile: self time goes to
// the leaf (innermost inlined) function's package, whatever the callers.
func TestSelfTimeByPackage(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/simnet.(*Network).solve", "repro/internal/bittorrent.RunBroadcast",
		"runtime.mallocgc", "main.main"}
	var p pb
	p = p.bytes(profSampleType, pb{}.varint(valueTypeType, 1).varint(2, 2))
	p = p.bytes(profSampleType, pb{}.varint(valueTypeType, 3).varint(2, 4))
	for id, name := range map[uint64]uint64{1: 5, 2: 6, 3: 7, 4: 8} {
		p = p.bytes(profFunction, pb{}.varint(functionID, id).varint(functionName, name))
	}
	// Location 10 is solve inlined into RunBroadcast: the first line is
	// the innermost function.
	p = p.bytes(profLocation, pb{}.varint(locationID, 10).
		bytes(locationLine, pb{}.varint(lineFunctionID, 1)).
		bytes(locationLine, pb{}.varint(lineFunctionID, 2)))
	p = p.bytes(profLocation, pb{}.varint(locationID, 11).bytes(locationLine, pb{}.varint(lineFunctionID, 2)))
	p = p.bytes(profLocation, pb{}.varint(locationID, 12).bytes(locationLine, pb{}.varint(lineFunctionID, 3)))
	p = p.bytes(profLocation, pb{}.varint(locationID, 13).bytes(locationLine, pb{}.varint(lineFunctionID, 4)))
	p = p.bytes(profSample, pb{}.packed(sampleLocationID, 10, 13).packed(sampleValue, 3, 30e6))
	p = p.bytes(profSample, pb{}.packed(sampleLocationID, 11, 13).packed(sampleValue, 1, 10e6))
	p = p.bytes(profSample, pb{}.packed(sampleLocationID, 12, 11, 13).packed(sampleValue, 2, 20e6))
	// Unpacked repeated fields decode too.
	p = p.bytes(profSample, pb{}.varint(sampleLocationID, 10).varint(sampleLocationID, 13).
		varint(sampleValue, 1).varint(sampleValue, 5e6))
	p = p.varint(12, 10000000) // period, skipped
	for _, s := range strs {
		p = p.bytes(profStringTable, []byte(s))
	}

	got, err := selfTimeByPackage(gzipped(t, p))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"repro/internal/simnet":     0.035,
		"repro/internal/bittorrent": 0.010,
		"runtime":                   0.020,
	}
	if len(got) != len(want) {
		t.Fatalf("got packages %v, want %v", got, want)
	}
	for pkg, w := range want {
		if math.Abs(got[pkg]-w) > 1e-12 {
			t.Errorf("%s: self time %g, want %g", pkg, got[pkg], w)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/simnet.(*Network).solve":      "repro/internal/simnet",
		"repro/internal/bittorrent.RunBroadcast":      "repro/internal/bittorrent",
		"runtime.mallocgc":                            "runtime",
		"internal/runtime/syscall.Syscall6":           "internal/runtime/syscall",
		"encoding/json.(*encodeState).marshal":        "encoding/json",
		"main.spin.func1":                             "main",
		"repro/internal/sim.(*Engine).Run.deferwrap1": "repro/internal/sim",
		"gcWriteBarrier":                              "gcWriteBarrier",
		"":                                            "unknown",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) float64 {
	x := 0.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

var sink float64

// TestSelfTimeOfRealProfile profiles a busy loop in this package and
// finds most of the sampled time attributed to it.
func TestSelfTimeOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	sink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	got, err := selfTimeByPackage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range got {
		total += s
	}
	if total == 0 {
		t.Skip("profile took no samples")
	}
	// The loop's time is spent in this package (named main in the
	// command, by import path in its test binary), in math.Sqrt (inlined
	// into it) and in time.Since.
	if own := got["main"] + got["repro/perfbench"]; own < total/3 {
		t.Errorf("this package has %.3fs of %.3fs sampled: %v", own, total, got)
	}
}
