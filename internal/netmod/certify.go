package netmod

import (
	"fmt"
	"math"

	"gurita/internal/topo"
)

// CheckMaxMin certifies a solved allocation without trusting the solver: it
// shares no code with Reallocate and runs in O(flows·hops). It checks that
//
//   - every rate is finite, non-negative and within the flow's MaxRate;
//   - every link carries at most its capacity (all modes);
//   - SPQ: every fabric flow is at its cap or crosses a saturated link on
//     which no flow of its tier has a higher rate (max-min fairness within
//     the tier, given what higher tiers left);
//   - WRR: every fabric flow below its cap crosses a saturated link (work
//     conservation; the weighted phases make same-tier rates unequal).
//
// capacity gives each link's effective capacity (faults applied). Tiers are
// compared by Queue clamped below at 0; queues above the allocator's range
// only weaken the SPQ check, never fail it. Comparisons allow a relative
// 1e-9 plus an absolute 1e-3 B/s, far above the solver's float error and far
// below any real unfairness. The error names the first offending flow or
// link in input order.
func CheckMaxMin(flows []*FlowDemand, capacity func(topo.LinkID) float64, mode Mode) error {
	type tierLink struct {
		l topo.LinkID
		q int
	}
	load := make(map[topo.LinkID]float64)
	top := make(map[tierLink]float64)
	for i, f := range flows {
		if math.IsNaN(f.Rate) || math.IsInf(f.Rate, 0) || f.Rate < 0 {
			return fmt.Errorf("netmod: flow %d has invalid rate %v", i, f.Rate)
		}
		if f.MaxRate > 0 && f.Rate > f.MaxRate+certTol(f.MaxRate) {
			return fmt.Errorf("netmod: flow %d rate %v exceeds its cap %v", i, f.Rate, f.MaxRate)
		}
		q := max(f.Queue, 0)
		for _, l := range f.Path {
			load[l] += f.Rate
			if k := (tierLink{l, q}); f.Rate > top[k] {
				top[k] = f.Rate
			}
		}
	}
	saturated := func(l topo.LinkID) bool {
		c := capacity(l)
		return load[l] >= c-certTol(c)
	}
	for i, f := range flows {
		for _, l := range f.Path {
			if c := capacity(l); load[l] > c+certTol(c) {
				return fmt.Errorf("netmod: link %d carries %v over its capacity %v (flow %d crosses it)", l, load[l], c, i)
			}
		}
	}
	for i, f := range flows {
		if len(f.Path) == 0 || f.MaxRate > 0 && f.Rate >= f.MaxRate-certTol(f.MaxRate) {
			continue
		}
		q := max(f.Queue, 0)
		ok := false
		for _, l := range f.Path {
			if !saturated(l) {
				continue
			}
			if mode == ModeWRR {
				ok = true
				break
			}
			if m := top[tierLink{l, q}]; f.Rate >= m-certTol(m) {
				ok = true
				break
			}
		}
		if !ok {
			if mode == ModeWRR {
				return fmt.Errorf("netmod: flow %d (rate %v, cap %v) is below its cap with no saturated link on its path", i, f.Rate, f.MaxRate)
			}
			return fmt.Errorf("netmod: flow %d (queue %d, rate %v, cap %v) has no saturated link where it is its tier's fastest", i, f.Queue, f.Rate, f.MaxRate)
		}
	}
	return nil
}

// certTol is CheckMaxMin's comparison slack around a rate or capacity x.
func certTol(x float64) float64 { return 1e-9*math.Abs(x) + 1e-3 }
