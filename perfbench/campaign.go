package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	gurita "gurita"
	"gurita/internal/obs"
	"gurita/internal/serve"
)

const (
	remoteWorkers = 2 // remote workers re-reading the grid together
	// minReread is the fewest trials one remote warm re-read asks for: a
	// small grid is repeated up to it, so per-campaign costs (the worker's
	// manifest shard) do not swamp the cache reads being measured.
	minReread   = 64
	warmTenants = 2 // closed-loop clients submitting cached campaigns
	// Cached campaigns per chunk: the 99th percentile of a chunk has ten
	// samples beyond it. warm_campaign.p99_ms is the median over chunks.
	warmChunk = 1000
	// Chunks in a traced run, which reports the warm latency; an untraced
	// run needs one chunk for its checks and summary line.
	warmChunks = 3
)

// planeCounts are one round's campaign-plane work counts.
type planeCounts struct {
	executed, cacheHits, dedupHits, retries, reclaims int64
	getHit, getMiss, acquired, busy, claims           int64
	httpRetries, grants                               int64
}

// planePasses runs the round's campaign-plane passes on a fresh daemon and
// returns their CPU time: the cold daemon pass, the remote cold pass, and
// the median remote warm re-read.
func (b *bench) planePasses(ctx context.Context, d *daemon) (time.Duration, error) {
	cold, err := b.coldPass(ctx, d)
	if err != nil {
		return 0, err
	}
	var pc planeCounts
	reg := obs.NewSyncRegistry()
	rcold, err := b.remoteCold(ctx, d, reg, &pc)
	if err != nil {
		return 0, err
	}
	rwarm, err := b.remoteWarm(ctx, d, reg, &pc)
	if err != nil {
		return 0, err
	}
	b.plane = append(b.plane, pc)
	return cold + rcold + rwarm, nil
}

// countPlane adds the daemon's and the remote workers' counters to pc. It
// runs after the first remote warm re-read, so a round's counts cover the
// cold pass, the remote cold pass and one re-read whatever the machine's
// speed.
func (b *bench) countPlane(d *daemon, reg *obs.SyncRegistry, pc *planeCounts) {
	n := int64(len(b.grid))
	snap := d.reg.Snapshot()
	b.chk.check(snap["serve.trials.executed"] == n, "daemon executed %d of %d trials on the cold pass", snap["serve.trials.executed"], n)
	pc.executed += snap["serve.trials.executed"]
	pc.cacheHits += snap["serve.trials.cache_hits"]
	pc.dedupHits += snap["serve.trials.dedup_hits"]
	pc.getHit = snap["cachehttp.get.hit"]
	pc.getMiss = snap["cachehttp.get.miss"]
	pc.acquired = snap["cachehttp.lease.acquired"]
	pc.busy = snap["cachehttp.lease.busy"]
	pc.claims = pc.acquired + pc.busy + snap["cachehttp.lease.poisoned_hit"]
	pc.httpRetries = reg.Snapshot()["httpstore.retries"]
	pc.grants = int64(d.grantCount())
}

// coldPass submits each row as its own tenant's campaign, all at once, so
// the daemon's fair queue interleaves them, and waits for every one. Every
// trial must execute, and every served result must match the reference.
func (b *bench) coldPass(ctx context.Context, d *daemon) (time.Duration, error) {
	runtime.GC()
	id := b.passSpan()
	c := cpuNow()
	refs := make([]campaignRef, len(b.wl.rows))
	submitted := make([]time.Time, len(b.wl.rows))
	first := make([]int, len(b.wl.rows)) // grid index of each row's first trial
	start := 0
	for r, row := range b.wl.rows {
		tenant := fmt.Sprintf("cold-%d", r)
		first[r] = start
		submitted[r] = time.Now()
		c, err := submit(ctx, b.client, d.base, tenant, tenant, b.grid[start:start+len(row)])
		if !b.chk.op(err) {
			return 0, err
		}
		refs[r] = c
		start += len(row)
	}
	for r, c := range refs {
		doc, err := await(ctx, b.client, d.base, c)
		if !b.chk.op(err) {
			return 0, err
		}
		n := len(b.wl.rows[r])
		b.chk.check(doc.State == serve.StateDone && doc.Progress.Done == n && doc.Progress.CacheHits == 0,
			"cold campaign %s: state %s, %d/%d done, %d cache hits; want every trial executed", c.id, doc.State, doc.Progress.Done, n, doc.Progress.CacheHits)
	}
	cpu := cpuNow() - c
	b.endPass(id, b.roundID, "pass.cold")
	b.coldTPS = append(b.coldTPS, float64(len(b.grid))/cpu.Seconds())
	for r, c := range refs {
		if g, ok := d.firstGrantOf(fmt.Sprintf("cold-%d", r)); ok {
			b.fairWaitMs = append(b.fairWaitMs, float64(g.Sub(submitted[r]))/float64(time.Millisecond))
		}
		for j := range b.wl.rows[r] {
			data, err := fetchResult(ctx, b.client, d.base, c, j)
			if b.chk.op(err) {
				b.chk.check(bytes.Equal(data, b.refFull[first[r]+j]), "cold campaign %s trial %d: served bytes differ from the serial RunCampaign", c.id, j)
			}
		}
	}
	return cpu, nil
}

// remoteCold runs the grid as one remote worker over the daemon's cache API:
// HTTP lease claims and puts. Its jobs-only schema keeps the daemon's own
// entries from serving it, so every trial executes.
func (b *bench) remoteCold(ctx context.Context, d *daemon, reg *obs.SyncRegistry, pc *planeCounts) (time.Duration, error) {
	runtime.GC()
	id := b.passSpan()
	c := cpuNow()
	st, err := b.remote(ctx, d.base, "remote-cold", reg, b.grid)
	if err != nil {
		return 0, err
	}
	cpu := cpuNow() - c
	b.endPass(id, b.roundID, "pass.remote_cold")
	n := len(b.grid)
	b.chk.check(st.Executed == n, "remote cold pass executed %d of %d trials", st.Executed, n)
	b.rColdTPS = append(b.rColdTPS, float64(n)/cpu.Seconds())
	pc.executed += int64(st.Executed)
	pc.retries += int64(st.Retries)
	pc.reclaims += int64(st.Reclaims)
	pc.dedupHits += int64(st.DedupHits)
	return cpu, nil
}

// remoteWarm has remoteWorkers workers re-read the whole grid together,
// repeated up to minReread trials, every trial from the cache, until
// minTimed has been timed; it returns the median re-read CPU time.
func (b *bench) remoteWarm(ctx context.Context, d *daemon, reg *obs.SyncRegistry, pc *planeCounts) (time.Duration, error) {
	specs := append([]gurita.TrialSpec(nil), b.grid...)
	for len(specs) < minReread {
		specs = append(specs, b.grid...)
	}
	n := len(specs)
	var times []float64
	var total time.Duration
	for total < minTimed {
		runtime.GC()
		id := b.passSpan()
		t, c := time.Now(), cpuNow()
		var wg sync.WaitGroup
		stats := make([]gurita.CampaignStats, remoteWorkers)
		errs := make([]error, remoteWorkers)
		for w := 0; w < remoteWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				stats[w], errs[w] = b.remote(ctx, d.base, fmt.Sprintf("remote-warm-%d", w), reg, specs)
			}(w)
		}
		wg.Wait()
		el, cpu := time.Since(t), cpuNow()-c
		b.endPass(id, b.roundID, "pass.remote_warm")
		for w := range stats {
			if errs[w] != nil {
				return 0, errs[w]
			}
			b.chk.check(stats[w].CacheHits == n, "remote warm worker %d: %d of %d trials from the cache", w, stats[w].CacheHits, n)
			if len(times) == 0 {
				pc.cacheHits += int64(stats[w].CacheHits)
				pc.dedupHits += int64(stats[w].DedupHits)
				pc.retries += int64(stats[w].Retries)
			}
		}
		if len(times) == 0 {
			b.countPlane(d, reg, pc)
		}
		b.rWarmTPS = append(b.rWarmTPS, float64(remoteWorkers*n)/cpu.Seconds())
		times = append(times, cpu.Seconds())
		total += el
	}
	return seconds(median(times)), nil
}

// remote runs specs, trials of the grid in order and repeated, as a remote
// worker against the daemon's cache API and checks the results.
func (b *bench) remote(ctx context.Context, base, owner string, reg *obs.SyncRegistry, specs []gurita.TrialSpec) (gurita.CampaignStats, error) {
	res, st, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{
		Workers:      1,
		CacheURL:     base,
		MultiProcess: &gurita.MultiProcessOptions{Owner: owner, Registry: reg},
	})
	for range specs {
		b.chk.op(err)
	}
	if err != nil {
		return st, err
	}
	for i, r := range res {
		b.chk.check(bytes.Equal(resultBytes(r), b.refLite[i%len(b.grid)]), "%s trial %d: result bytes differ from the serial RunCampaign", owner, i)
	}
	return st, nil
}

// warm runs chunks of warmChunk fully cached one-trial campaigns (one
// chunk, or warmChunks when traced), cycling through the grid, from warmTenants closed-loop
// clients. Each chunk gets a fresh daemon over the last round's cache
// directory, since a daemon keeps every campaign's results for as long as
// it runs. Served bytes are checked after each chunk, outside the timing:
// for every trial, its last campaign's result.
func (b *bench) warm(ctx context.Context, dir string) error {
	chunks := 1
	if b.opts.trace {
		chunks = warmChunks
	}
	b.warmMs = make([][]float64, chunks)
	for chunk := 0; chunk < chunks; chunk++ {
		d, err := startDaemon(ctx, dir, b.client, b.ht)
		if !b.chk.op(err) {
			return err
		}
		runtime.GC()
		id := b.passSpan()
		last := make([]campaignRef, len(b.grid))
		var next atomic.Int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < warmTenants; w++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				for ctx.Err() == nil {
					k := int(next.Add(1) - 1)
					if k >= warmChunk {
						return
					}
					i := (chunk*warmChunk + k) % len(b.grid)
					t := time.Now()
					c, err := submit(ctx, b.client, d.base, tenant, fmt.Sprintf("%s#%d", tenant, k), b.grid[i:i+1])
					if !b.chk.op(err) {
						continue
					}
					doc, err := await(ctx, b.client, d.base, c)
					lat := time.Since(t)
					if !b.chk.op(err) {
						continue
					}
					b.chk.check(doc.State == serve.StateDone && doc.Progress.CacheHits == 1,
						"warm campaign %s: state %s, %d cache hits; want the trial from the cache", c.id, doc.State, doc.Progress.CacheHits)
					mu.Lock()
					b.warmMs[chunk] = append(b.warmMs[chunk], float64(lat)/float64(time.Millisecond))
					last[i] = c
					mu.Unlock()
				}
			}(fmt.Sprintf("warm-%c", 'a'+w))
		}
		wg.Wait()
		b.endPass(id, 0, fmt.Sprintf("pass.warm.%d", chunk))
		for i, c := range last {
			if c.id == "" {
				continue
			}
			data, err := fetchResult(ctx, b.client, d.base, c, 0)
			if b.chk.op(err) {
				b.chk.check(bytes.Equal(data, b.refFull[i]), "warm campaign %s: served bytes differ from the serial RunCampaign", c.id)
			}
		}
		d.stop(b.client)
	}
	return nil
}

// warmLatency returns the median warm latency over every sample, and the
// median over chunks of each chunk's tail.
func (b *bench) warmLatency() (p50, p99 float64, n int) {
	var all, tails []float64
	for _, c := range b.warmMs {
		all = append(all, c...)
		if v, _, ok := tail(c); ok {
			tails = append(tails, v)
		}
	}
	return median(all), median(tails), len(all)
}
