package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// sample is a point-in-time reading of the process counters an
// iteration is charged with.
type sample struct {
	wall       time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func takeSample() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gcCPU := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gcCPU)
	s := sample{
		cpu:        cpuTime(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   uint64(ms.NumGC),
	}
	if gcCPU[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gcCPU[0].Value.Float64()
	}
	s.wall = time.Now()
	return s
}

// cost is what one timed iteration consumed.
type cost struct {
	wall, cpu           time.Duration
	mallocs, allocBytes uint64
	gcCycles            uint64
	gcCPU               float64
}

func since(before sample) cost {
	after := takeSample()
	return cost{
		wall:       after.wall.Sub(before.wall),
		cpu:        after.cpu - before.cpu,
		mallocs:    after.mallocs - before.mallocs,
		allocBytes: after.allocBytes - before.allocBytes,
		gcCycles:   after.gcCycles - before.gcCycles,
		gcCPU:      after.gcCPU - before.gcCPU,
	}
}

// heapSampler tracks the live-heap high-water mark between start and
// stop by polling, since the runtime keeps no peak of its own.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
