package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeCounters reads the cumulative heap allocation bytes and GC
// cycle count from runtime/metrics.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		gcCycles = s[1].Value.Uint64()
	}
	return allocBytes, gcCycles
}

// fingerprint identifies the hardware and toolchain a result was
// measured on.
func fingerprint() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s kernel=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), kernel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return runtime.GOOS
	}
	return cstring(u.Sysname[:]) + " " + cstring(u.Release[:])
}

// cstring converts a NUL-terminated utsname field, whose element type
// differs between architectures.
func cstring[T int8 | uint8](b []T) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

// heapSnapshot is the cumulative sampled allocation profile, keyed by
// allocation stack.
type heapSnapshot map[[32]uintptr]runtime.MemProfileRecord

// takeHeapSnapshot flushes the allocation profile (it lags by up to two
// GC cycles) and copies it.
func takeHeapSnapshot() heapSnapshot {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			break
		}
	}
	snap := make(heapSnapshot, n)
	for _, r := range recs[:n] {
		snap[r.Stack0] = r
	}
	return snap
}

// allocBytesWithin estimates the bytes allocated between two snapshots
// by stacks that pass through a function of package pkg (an import
// path), scaling each sampled stack as pprof does for the sampling rate.
func allocBytesWithin(before, after heapSnapshot, pkg string) float64 {
	rate := float64(runtime.MemProfileRate)
	total := 0.0
	for stk, r := range after {
		b := r.AllocBytes - before[stk].AllocBytes
		c := r.AllocObjects - before[stk].AllocObjects
		if b <= 0 || c <= 0 || !stackInPackage(r.Stack(), pkg) {
			continue
		}
		if rate > 1 {
			avg := float64(b) / float64(c)
			b = int64(float64(b) / (1 - math.Exp(-avg/rate)))
		}
		total += float64(b)
	}
	return total
}

func stackInPackage(stk []uintptr, pkg string) bool {
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		if packageOf(f.Function) == pkg {
			return true
		}
		if !more {
			return false
		}
	}
}
