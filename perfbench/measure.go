package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailBand is the half-width, in quantile, of the band tailQuantile
// averages over.
const tailBand = 0.005

// tailQuantile estimates a high quantile of xs as the mean of the samples
// ranked within tailBand of it. In a sparse tail one order statistic jumps
// between unrelated jobs from run to run; the band mean keeps that sampling
// noise out of the estimate. xs is sorted in place.
func tailQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	last := float64(len(xs) - 1)
	lo := int(math.Floor(max(q-tailBand, 0) * last))
	hi := int(math.Ceil(min(q+tailBand, 1) * last))
	sum := 0.0
	for _, x := range xs[lo : hi+1] {
		sum += x
	}
	return sum / float64(hi-lo+1)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procSample is a snapshot of the process counters a window is charged.
type procSample struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	pauseNS uint64
}

func sampleProc() procSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{at: time.Now(), cpu: cpuTime(), alloc: s[0].Value.Uint64(), gcs: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// heapWatch samples the heap's object bytes every few milliseconds and
// keeps the peak since the last cut.
type heapWatch struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// cut returns the peak since the previous cut and starts a new one.
func (h *heapWatch) cut() uint64 { return h.peak.Swap(0) }

func (h *heapWatch) finish() {
	close(h.stop)
	<-h.done
}

// slice is one stretch of a window between two cuts.
type slice struct {
	dur, cpu time.Duration
	jobs     int
	peakHeap uint64
}

// window is what one timed run of a workload produced. A workload cuts it
// into slices at natural boundaries (a paper pass, a second of offered
// load); the throughput, CPU and heap metrics are medians over the slices,
// so a burst of load from outside the process moves one slice, not the run.
type window struct {
	attempted, failed int
	// latencies of every attempted job in milliseconds; failed jobs carry
	// the window length, so they count as missing any latency limit.
	latMS []float64
	// extra holds workload-specific metrics measured in the window.
	extra  map[string]float64
	slices []slice
	merged int

	heap    *heapWatch
	lastAt  time.Time
	lastCPU time.Duration
	lastJob int

	// process deltas over the whole window.
	elapsed    time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcs        uint32
	pause      time.Duration
}

// cut closes the current slice; done is the number of jobs completed in
// the window so far.
func (w *window) cut(done int) {
	now, c := time.Now(), cpuTime()
	w.slices = append(w.slices, slice{dur: now.Sub(w.lastAt), cpu: c - w.lastCPU, jobs: done - w.lastJob, peakHeap: w.heap.cut()})
	w.lastAt, w.lastCPU, w.lastJob = now, c, done
}

// measureWindow runs f on a fresh window and charges it the process CPU,
// allocation and GC it caused.
func measureWindow(f func(w *window) error) (*window, error) {
	runtime.GC()
	w := &window{heap: watchHeap()}
	before := sampleProc()
	w.lastAt, w.lastCPU = before.at, before.cpu
	err := f(w)
	after := sampleProc()
	w.heap.finish()
	if err != nil {
		return nil, err
	}
	if len(w.slices) == 0 {
		w.cut(w.attempted - w.failed)
	}
	w.elapsed = after.at.Sub(before.at)
	w.cpu = after.cpu - before.cpu
	w.allocBytes = after.alloc - before.alloc
	w.gcs = after.gcs - before.gcs
	w.pause = time.Duration(after.pauseNS - before.pauseNS)
	return w, nil
}

// merge folds a later window of the same run into w. Counts, slices and
// process deltas add up; workload metrics are averaged over the windows,
// except the shed count, which adds up.
func (w *window) merge(o *window) {
	w.merged++
	w.attempted += o.attempted
	w.failed += o.failed
	w.latMS = append(w.latMS, o.latMS...)
	w.slices = append(w.slices, o.slices...)
	if w.extra == nil {
		w.extra = map[string]float64{}
	}
	for k, v := range o.extra {
		if k == "server.shed" {
			w.extra[k] += v
		} else {
			w.extra[k] += (v - w.extra[k]) / float64(w.merged)
		}
	}
	w.elapsed += o.elapsed
	w.cpu += o.cpu
	w.allocBytes += o.allocBytes
	w.gcs += o.gcs
	w.pause += o.pause
}

// endToEnd derives the end-to-end metrics of a window.
func (w *window) endToEnd() map[string]float64 {
	done := float64(w.attempted - w.failed)
	if done < 1 {
		done = 1
	}
	var rate, cpu, heap []float64
	for _, s := range w.slices {
		if s.jobs > 0 && s.dur > 0 {
			rate = append(rate, float64(s.jobs)/s.dur.Seconds())
			cpu = append(cpu, float64(s.cpu)/1e6/float64(s.jobs))
		}
		heap = append(heap, float64(s.peakHeap)/(1<<20))
	}
	lat := append([]float64(nil), w.latMS...)
	return map[string]float64{
		"jobs_per_s":       median(rate),
		"latency_p50_ms":   quantile(lat, 0.50),
		"latency_p99_ms":   tailQuantile(lat, 0.99),
		"cpu_ms_per_job":   median(cpu),
		"alloc_kb_per_job": float64(w.allocBytes) / 1024 / done,
		"peak_heap_mb":     median(heap),
	}
}

// latencies is a mutex-guarded sample sink for concurrent jobs.
type latencies struct {
	mu     sync.Mutex
	ms     []float64
	failed int
}

func (l *latencies) add(ms float64, ok bool) {
	l.mu.Lock()
	l.ms = append(l.ms, ms)
	if !ok {
		l.failed++
	}
	l.mu.Unlock()
}

// done reports how many jobs have completed.
func (l *latencies) done() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ms)
}
