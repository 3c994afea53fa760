package main

import (
	"math/rand"
	"sort"
)

const (
	// refElems is the reference sort's size: 4 MB of float64, past the
	// per-core caches, so the sort feels the shared cache and memory
	// contention that slows the simulations on a shared host.
	refElems = 1 << 19
	// nominalRefRate is the reference host's sort speed, in elements per
	// CPU second. End-to-end times and throughputs are scaled to it.
	nominalRefRate = 6e6
)

// hostRef times a fixed sort, which no program code takes part in, between
// the passes of a run. A shared host's speed drifts by a quarter or more
// over minutes, in CPU time as well as in wall time; scaling a run's figures
// by its own reference speed takes most of that drift out, while a change
// to the program moves them in full.
//
// The input is made afresh for each sample and dropped after it: a buffer
// kept alive would change the heap the measured passes run on, and with it
// their garbage collection and peak memory.
type hostRef struct {
	rates []float64 // elements per CPU second, per sample
}

// sample sorts the fixed input once and records its speed.
func (h *hostRef) sample() {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, refElems)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	c := cpuNow()
	sort.Float64s(xs)
	h.rates = append(h.rates, refElems/(cpuNow()-c).Seconds())
}

// speed is the host's median reference speed over the run, as a share of
// the nominal one: a CPU second measured here is speed reference seconds.
func (h *hostRef) speed() float64 {
	return median(h.rates) / nominalRefRate
}
