package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 needs at least 1,000 samples, a p90 100.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, which it sorts in place, and whether at least minBeyond
// samples lie beyond it. With too few samples it still returns the
// value, so callers can print it flagged, but ok is false.
func percentile(samples []float64, p float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return samples[rank-1], n-rank >= minBeyond
}

// median is the 50th percentile without the sample-count verdict.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 50)
	return v
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// metric is one reported number: the value, its unit and how many
// samples it summarises. Enough is false for a percentile without
// minBeyond samples beyond it; such a value is printed flagged.
type metric struct {
	Name   string
	Value  float64
	Unit   string
	N      int
	Enough bool
}

// metricSet keeps metrics in insertion order for printing.
type metricSet struct {
	list []metric
	idx  map[string]int
}

func (s *metricSet) add(name string, value float64, unit string, n int) {
	s.put(metric{Name: name, Value: value, Unit: unit, N: n, Enough: true})
}

// pct adds the p-th percentile of samples (in milliseconds or whatever
// unit the samples carry) under name.
func (s *metricSet) pct(name string, samples []float64, p float64, unit string) {
	v, ok := percentile(samples, p)
	s.put(metric{Name: name, Value: v, Unit: unit, N: len(samples), Enough: ok})
}

func (s *metricSet) put(m metric) {
	if s.idx == nil {
		s.idx = map[string]int{}
	}
	if i, ok := s.idx[m.Name]; ok {
		s.list[i] = m
		return
	}
	s.idx[m.Name] = len(s.list)
	s.list = append(s.list, m)
}

func (s *metricSet) get(name string) (metric, bool) {
	i, ok := s.idx[name]
	if !ok {
		return metric{}, false
	}
	return s.list[i], true
}

// runtimeSample is the process state the benchmark diffs across a
// run: CPU time, allocated objects, GC cycles, total GC stop-the-world
// time and live heap.
type runtimeSample struct {
	cpu       time.Duration // process user+system CPU time
	allocs    uint64
	gcCycles  uint64
	gcPauseS  float64
	heapBytes uint64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var rs runtimeSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		rs.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		rs.allocs = v.Uint64()
	}
	if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
		rs.gcCycles = v.Uint64()
	}
	if v := samples[2].Value; v.Kind() == metrics.KindFloat64Histogram {
		rs.gcPauseS = histSum(v.Float64Histogram())
	}
	if v := samples[3].Value; v.Kind() == metrics.KindUint64 {
		rs.heapBytes = v.Uint64()
	}
	return rs
}

// histSum estimates a runtime histogram's total from bucket midpoints.
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}

// heapPeak tracks the largest live-heap reading seen at phase
// boundaries; workers may sample it concurrently.
type heapPeak struct{ max atomic.Uint64 }

func (h *heapPeak) sample() {
	b := readRuntime().heapBytes
	for {
		cur := h.max.Load()
		if b <= cur || h.max.CompareAndSwap(cur, b) {
			return
		}
	}
}

func (h *heapPeak) mb() float64 { return float64(h.max.Load()) / (1 << 20) }
