package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	gurita "gurita"
)

// metrics returns the end-to-end metrics, or with --trace 1 the per-layer
// metrics, by name. End-to-end times and throughputs are in reference
// seconds (see hostRef); per-layer ones are as measured.
func (b *bench) metrics() map[string]metric {
	m := make(map[string]metric)
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	if !b.opts.trace {
		s := b.ref.speed()
		put("events_per_ref_s", "1/ref_s", median(b.eps)/s)
		put("run_ref_s", "ref_s", median(b.roundS)*s)
		put("setup_s", "s", median(b.setupS)*s)
		put("peak_rss_mb", "MB", b.peakRSS)
		put("cold_trials_per_ref_s", "1/ref_s", median(b.coldTPS)/s)
		put("remote_cold_trials_per_ref_s", "1/ref_s", median(b.rColdTPS)/s)
		put("remote_warm_trials_per_ref_s", "1/ref_s", median(b.rWarmTPS)/s)
		return m
	}

	gen := make([]float64, len(b.buildS))
	for i := range gen {
		gen[i] = b.buildS[i] - b.topoS[i]
	}
	w := b.work()
	put("topo.build_s", "s", median(b.topoS))
	put("workload.generate_s", "s", median(gen))
	put("workload.flows", "count", float64(w.flows))
	put("workload.bytes", "bytes", float64(w.bytes))

	tp := func(f func(passStats) float64) float64 {
		xs := make([]float64, len(b.traced))
		for i, p := range b.traced {
			xs[i] = f(p)
		}
		return median(xs)
	}
	ns := func(v int64) float64 { return float64(v) / 1e9 }
	put("sched.assign_s", "s", tp(func(p passStats) float64 { return ns(p.assignNs) }))
	put("sched.assign_calls", "count", tp(func(p passStats) float64 { return float64(p.assignCalls) }))
	put("sched.notify_s", "s", tp(func(p passStats) float64 { return ns(p.notifyNs) }))
	put("sched.dirty_ratio", "ratio", tp(func(p passStats) float64 { return ratio(p.dirty, p.offered) }))
	for _, k := range gurita.AllKinds() {
		name := kindName(k)
		xs := make([]float64, len(b.plain))
		for i, p := range b.plain {
			xs[i] = p.kindS[name]
		}
		put("sim."+name+".run_s", "s", median(xs))
	}
	put("sim.events", "count", float64(w.events))
	put("sim.max_active_flows", "count", float64(w.maxActive))
	put("sim.self_s", "s", tp(func(p passStats) float64 { return ns(p.selfNs) }))
	put("netmod.reallocs", "count", float64(w.reallocs))
	put("netmod.tier_solves", "count", float64(w.tierSolves))
	put("netmod.waterfill_rounds", "count", float64(w.rounds))
	put("netmod.rounds_per_solve", "ratio", ratio(w.rounds, w.tierSolves))
	put("netmod.solve_s", "s", tp(func(p passStats) float64 { return ns(p.solveNs) }))
	put("netmod.ns_per_round", "ns", tp(func(p passStats) float64 { return ratio(p.solveNs, p.rounds) }))

	pm := func(f func(planeCounts) int64) float64 {
		xs := make([]float64, len(b.plane))
		for i, p := range b.plane {
			xs[i] = float64(f(p))
		}
		return median(xs)
	}
	put("runner.executed", "count", pm(func(p planeCounts) int64 { return p.executed }))
	put("runner.cache_hits", "count", pm(func(p planeCounts) int64 { return p.cacheHits }))
	put("runner.dedup_hits", "count", pm(func(p planeCounts) int64 { return p.dedupHits }))
	put("runner.retries", "count", pm(func(p planeCounts) int64 { return p.retries }))
	put("runner.reclaims", "count", pm(func(p planeCounts) int64 { return p.reclaims }))

	lat := func(route string) {
		xs := b.ht.lat.get(route)
		put(route+"_ms.p50", "ms", median(xs))
		v, _, _ := tail(xs)
		put(route+"_ms.tail", "ms", v)
	}
	lat("serve.submit")
	lat("serve.status")
	calls := func(route string) int64 { return int64(len(b.ht.lat.get(route))) }
	put("serve.polls_per_campaign", "ratio", ratio(calls("serve.status"), calls("serve.submit")))
	put("fairq.grants", "count", pm(func(p planeCounts) int64 { return p.grants }))
	put("fairq.wait_ms", "ms", median(b.fairWaitMs))
	for _, r := range []string{"get", "put", "claim", "renew", "release"} {
		lat("cachehttp." + r)
	}
	put("cachehttp.get.hit", "count", pm(func(p planeCounts) int64 { return p.getHit }))
	put("cachehttp.get.miss", "count", pm(func(p planeCounts) int64 { return p.getMiss }))
	put("cachehttp.lease.acquired", "count", pm(func(p planeCounts) int64 { return p.acquired }))
	put("cachehttp.lease.busy", "count", pm(func(p planeCounts) int64 { return p.busy }))
	put("lease.claims_per_trial", "ratio", pm(func(p planeCounts) int64 { return p.claims })/float64(len(b.grid)))
	put("httpstore.retries", "count", pm(func(p planeCounts) int64 { return p.httpRetries }))

	for name, v := range cpuShares(b.cpu) {
		put("cpu_share."+name, "share", v)
	}
	traced, plain := b.directSeconds()
	put("trace.run_s", "s", traced)
	put("trace.untraced_run_s", "s", plain)
	put("trace.overhead_s", "s", traced-plain)
	p50, p99, n := b.warmLatency()
	put("warm_campaign.p50_ms", "ms", p50)
	put("warm_campaign.p99_ms", "ms", p99)
	put("warm_campaign.samples", "count", float64(n))
	return m
}

// directSeconds returns the median traced and plain RunWith pass times.
func (b *bench) directSeconds() (traced, plain float64) {
	secs := func(ps []passStats) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = p.seconds
		}
		return median(xs)
	}
	return secs(b.traced), secs(b.plain)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// workCounts are the deterministic work of one pass over the grid.
type workCounts struct {
	flows, bytes                         int64
	events, reallocs, tierSolves, rounds int64
	maxActive                            int
}

func (b *bench) work() workCounts {
	var w workCounts
	for r, sc := range b.scen {
		w.bytes += b.rowB[r]
		for _, j := range sc.Jobs {
			for _, c := range j.Coflows {
				w.flows += int64(len(c.Flows))
			}
		}
	}
	if len(b.serial) > 0 {
		p := b.serial[0]
		w.events, w.reallocs, w.tierSolves, w.rounds, w.maxActive = p.events, p.reallocs, p.tierSolves, p.rounds, p.maxActive
	}
	return w
}

// printSummary prints the run's exact work counts, digest, error rate and
// sample counts ahead of the result line.
func (b *bench) printSummary() {
	fmt.Printf("perfbench %s seed=%d trace=%v trials=%d rows=%d rounds=%d %s nproc=%d\n",
		b.opts.workload, b.opts.seed, b.opts.trace, len(b.grid), len(b.wl.rows), len(b.roundS), runtime.Version(), runtime.NumCPU())
	if len(b.refFull) > 0 {
		fmt.Printf("digest %s (sha256 prefix of the served result bytes, grid order)\n", b.digest())
	}
	w := b.work()
	fmt.Printf("exact workload.flows=%d workload.bytes=%d sim.events=%d sim.max_active_flows=%d netmod.reallocs=%d netmod.tier_solves=%d netmod.waterfill_rounds=%d\n",
		w.flows, w.bytes, w.events, w.maxActive, w.reallocs, w.tierSolves, w.rounds)
	if len(b.traced) > 0 {
		p := b.traced[0]
		fmt.Printf("exact sched.assign_calls=%d sched.flows_offered=%d sched.flows_dirty=%d\n", p.assignCalls, p.offered, p.dirty)
	}
	fmt.Printf("error_rate %d/%d (failed/attempted operations)\n", b.chk.failed, b.chk.attempted)
	fmt.Printf("host speed %.4f of nominal: median of %d reference sorts, %.4g elements per CPU second against %.4g\n",
		b.ref.speed(), len(b.ref.rates), median(b.ref.rates), float64(nominalRefRate))
	fmt.Printf("as measured: events_per_cpu_s %.6g, run_cpu_s %.6g, setup wall s %.6g, cold/remote cold/remote warm trials per CPU s %.6g %.6g %.6g\n",
		median(b.eps), median(b.roundS), median(b.setupS), median(b.coldTPS), median(b.rColdTPS), median(b.rWarmTPS))
	fmt.Printf("round wall time %.4fs (median of %d rounds)\n", median(b.roundWall), len(b.roundWall))
	for i, c := range b.warmMs {
		v, _, _ := tail(c)
		fmt.Printf("warm chunk %d: %d campaigns, p50 %.3f ms, p99 %.3f ms\n", i, len(c), median(c), v)
	}
	if len(b.warmMs) > 0 {
		if _, pct, ok := tail(b.warmMs[0]); ok {
			p50, p99, n := b.warmLatency()
			fmt.Printf("warm_campaign_p50_ms %.4f ms, warm_campaign_p99_ms %.4f ms: the median of %d samples, and the median over %d chunks of the %.1fth percentile of each chunk's %d samples (%d beyond it)\n",
				p50, p99, n, len(b.warmMs), pct, len(b.warmMs[0]), tailBeyond)
		}
	}
	if b.opts.trace {
		traced, plain := b.directSeconds()
		fmt.Printf("trace overhead: traced RunWith runs %.4fs - plain RunWith runs %.4fs = %.4fs\n", traced, plain, traced-plain)
		for _, route := range b.ht.lat.names() {
			xs := b.ht.lat.get(route)
			if _, pct, ok := tail(xs); ok {
				fmt.Printf("%s: %d samples, tail is the %.1fth percentile\n", route, len(xs), pct)
			} else {
				fmt.Printf("%s: %d samples, too few for a tail\n", route, len(xs))
			}
		}
		if b.profile != "" {
			fmt.Printf("cpu profile of the first RunWith pass: %s\n", b.profile)
		}
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
