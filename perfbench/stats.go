package main

import (
	"sort"
	"sync"
	"syscall"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail value: a
// tail is the highest percentile that still has this many samples beyond it.
const tailBeyond = 10

// cpuNow returns the CPU time the process has used so far, user plus
// system, over all its threads. Unlike wall time it leaves out what the
// hypervisor steals from a shared host, and the time spent waiting on the
// disk.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF fails only for a bad pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has tailBeyond samples
// above it: the value with exactly tailBeyond larger-ranked samples, and the
// percentile it stands for. With 1000 samples that is the 99th percentile.
// ok is false when there are too few samples for any such percentile.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := sorted(xs)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// coverage accumulates how much of a parent interval its child intervals
// cover, counting overlapping children once. Children must arrive in order
// of start time, which is how a single-threaded engine produces them.
type coverage struct {
	from, to int64 // the parent interval, in ns
	lastEnd  int64 // end of the covered prefix so far
	covered  int64
}

func newCoverage(from, to int64) *coverage {
	return &coverage{from: from, to: to, lastEnd: from}
}

// add records a child interval [start, end), clipped to the parent.
func (c *coverage) add(start, end int64) {
	if start < c.lastEnd {
		start = c.lastEnd
	}
	if end > c.to {
		end = c.to
	}
	if end > start {
		c.covered += end - start
		c.lastEnd = end
	}
}

// self returns the parent's self time: its duration minus what its
// children covered.
func (c *coverage) self() int64 { return c.to - c.from - c.covered }

// latencies is a concurrency-safe bag of named millisecond samples.
type latencies struct {
	mu sync.Mutex
	ms map[string][]float64
}

func newLatencies() *latencies { return &latencies{ms: make(map[string][]float64)} }

func (l *latencies) add(name string, d time.Duration) {
	l.mu.Lock()
	l.ms[name] = append(l.ms[name], float64(d)/float64(time.Millisecond))
	l.mu.Unlock()
}

// names returns the recorded names in order.
func (l *latencies) names() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.ms))
	for n := range l.ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (l *latencies) get(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.ms[name]...)
}
