package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSample is the process's CPU time, allocation totals and GC count at one
// phase boundary. It is read only at boundaries (ReadMemStats stops the
// world), so it adds nothing per request.
type procSample struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func sampleProc() procSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero sample
	// would only zero the CPU metric.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		bytes:   m.TotalAlloc,
		gcs:     m.NumGC,
	}
}

// procMetrics reports the process counters between two samples per
// operation of the phase.
func procMetrics(from, to procSample, ops int64, out map[string]float64) {
	if ops < 1 {
		ops = 1
	}
	n := float64(ops)
	out["process.cpu_ms_per_kop"] = ms(to.cpu-from.cpu) / (n / 1000)
	out["process.allocs_per_op"] = float64(to.mallocs-from.mallocs) / n
	out["process.alloc_bytes_per_op"] = float64(to.bytes-from.bytes) / n
	out["process.gc_cycles"] = float64(to.gcs - from.gcs)
}
