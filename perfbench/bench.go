package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	gurita "gurita"
	"gurita/internal/metrics"
	"gurita/internal/runner"
)

const (
	setupReps = 50 // set-ups per run; setup_s is their median
	// minTimed is how long a round times its serial passes, and its remote
	// warm re-reads, at least: a short pass repeats until it is reached, so
	// its figure is a median over enough work.
	minTimed = 500 * time.Millisecond
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// outDir holds spans, profiles and scratch caches, relative to the
// repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// bench is one run: set-up, then timed rounds, then the warm campaign
// phase, with every output checked against the first serial pass.
type bench struct {
	opts   options
	wl     *workload
	grid   []gurita.TrialSpec
	rowOf  []int
	ids    []string // per trial: first 16 hex digits of its cache key
	scen   []gurita.Scenario
	rowN   []int   // jobs per row
	rowB   []int64 // bytes per row
	tmp    string
	client *http.Client
	chk    checker
	ref    *hostRef

	// refFull is each trial's result as the daemon serves it; refLite is the
	// same result without coflow rows, as a jobs-only campaign returns it.
	refFull, refLite [][]byte

	log       *spanLog   // nil when untraced
	ht        *httpTrace // nil when untraced
	roundID   int64
	passStart atomic.Int64

	setupS, topoS, buildS []float64
	roundS, roundWall     []float64 // per round: CPU time (run_s), wall time
	// Throughputs per CPU second of the process: events per serial pass,
	// trials per plane pass.
	eps                   []float64
	coldTPS, rColdTPS     []float64
	rWarmTPS              []float64
	warmMs                [][]float64 // per warm chunk
	fairWaitMs            []float64
	serial, plain, traced []passStats
	plane                 []planeCounts
	cpu                   map[string]int64
	profile               string
	peakRSS               float64
}

// passStats are one pass's deterministic work counts and, for a RunWith
// pass, its wall time per scheduler and, when traced, its layer timings.
type passStats struct {
	events, reallocs, tierSolves, rounds int64
	maxActive                            int
	seconds                              float64
	kindS                                map[string]float64
	assignNs, notifyNs, solveNs, selfNs  int64
	assignCalls, offered, dirty          int64
}

// add counts one result's deterministic work into the pass.
func (st *passStats) add(r *gurita.Result) {
	st.events += r.Events
	st.reallocs += r.Counters["netmod_reallocs"]
	st.tierSolves += r.Counters["netmod_tier_solves"]
	st.rounds += r.Counters["netmod_waterfill_rounds"]
	if r.MaxActiveFlows > st.maxActive {
		st.maxActive = r.MaxActiveFlows
	}
}

// checker counts operations and records failed checks.
type checker struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	bad       bool
	msgs      []string
}

// op records one attempted operation and whether it failed.
func (c *checker) op(err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		c.bad = true
		c.note(err.Error())
	}
	return err == nil
}

// check records an output check.
func (c *checker) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bad = true
	c.note(fmt.Sprintf(format, args...))
}

func (c *checker) note(msg string) {
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, msg)
	}
}

func newBench(opts options) (*bench, error) {
	wl, err := newWorkload(opts.workload, opts.seed)
	if err != nil {
		return nil, err
	}
	b := &bench{opts: opts, wl: wl, cpu: make(map[string]int64), ref: &hostRef{}}
	for r, row := range wl.rows {
		for range row {
			b.rowOf = append(b.rowOf, r)
		}
	}
	for _, s := range wl.grid() {
		s = s.Normalized()
		key, err := runner.Key(metrics.CampaignSchema, s)
		if err != nil {
			return nil, err
		}
		b.grid = append(b.grid, s)
		b.ids = append(b.ids, key[:16])
	}
	b.tmp = filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(b.tmp, 0o755); err != nil {
		return nil, err
	}
	n := runtime.NumCPU()
	b.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
	if opts.trace {
		b.log = newSpanLog()
		b.ht = &httpTrace{log: b.log, lat: newLatencies()}
	}
	return b, nil
}

func (b *bench) close() {
	b.client.CloseIdleConnections()
	os.RemoveAll(b.tmp)
}

// run executes the whole benchmark: set-up, whole rounds until the run's
// seconds have passed, then the warm campaign phase over the last round's
// cache.
func (b *bench) run(ctx context.Context) error {
	// Flush dirty pages first, so write-back left by an earlier run (its
	// caches and their deletion) does not land in this run's fsyncs.
	syscall.Sync()
	if err := b.setup(ctx); err != nil {
		return err
	}
	start := time.Now()
	var dir string
	for round := 0; round == 0 || time.Since(start).Seconds() < b.opts.seconds; round++ {
		dir = filepath.Join(b.tmp, fmt.Sprintf("round-%d", round))
		if err := b.round(ctx, dir); err != nil {
			return err
		}
	}
	// The warm phase's daemons keep every campaign's results in memory, so
	// the peak is read before it.
	rss, err := peakRSSMB()
	if !b.chk.op(err) {
		return err
	}
	b.peakRSS = rss
	if err := b.warm(ctx, dir); err != nil {
		return err
	}
	if b.log != nil {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", b.opts.workload, b.opts.seed))
		b.chk.op(b.log.write(path))
		fmt.Printf("spans: %d written to %s; %d per-call spans dropped past each trial's first %d\n", len(b.log.spans), path, b.log.dropped.Load(), maxCallSpans)
	}
	return nil
}

// setup builds the workload's inputs and starts a daemon until it answers,
// setupReps times.
func (b *bench) setup(ctx context.Context) error {
	for i := 0; i < 3; i++ {
		b.ref.sample()
	}
	for i := 0; i < setupReps; i++ {
		// Each set-up starts from the same collected heap, so a collection
		// left over from the one before does not land in its time.
		runtime.GC()
		var topo, build time.Duration
		scen := make([]gurita.Scenario, len(b.wl.rows))
		for r, row := range b.wl.rows {
			spec := row[0].Normalized()
			if b.opts.trace {
				// The fabric alone, so Build's remainder is workload
				// generation.
				t := time.Now()
				_, err := gurita.FatTree(podCount(spec), 0)
				if !b.chk.op(err) {
					return err
				}
				topo += time.Since(t)
			}
			t := time.Now()
			sc, err := spec.Build()
			if !b.chk.op(err) {
				return err
			}
			build += time.Since(t)
			scen[r] = sc
		}
		t := time.Now()
		d, err := startDaemon(ctx, filepath.Join(b.tmp, fmt.Sprintf("setup-%d", i)), b.client, nil)
		if !b.chk.op(err) {
			return err
		}
		up := time.Since(t)
		d.stop(b.client)
		b.setupS = append(b.setupS, (build + up).Seconds())
		b.topoS = append(b.topoS, topo.Seconds())
		b.buildS = append(b.buildS, build.Seconds())
		b.scen = scen
	}
	for _, sc := range b.scen {
		b.rowN = append(b.rowN, len(sc.Jobs))
		var bytes int64
		for _, j := range sc.Jobs {
			bytes += j.TotalBytes()
		}
		b.rowB = append(b.rowB, bytes)
	}
	return nil
}

// round runs one timed round: serial simulation passes, then the campaign
// plane on a fresh daemon over dir (see campaign.go). Traced rounds add the
// plain and traced Scenario.RunWith passes in between. It records the
// round's CPU time: one serial pass and one of each plane pass, each the
// median of the round's repetitions; and the round's wall time.
func (b *bench) round(ctx context.Context, dir string) error {
	start := time.Now()
	var rstart int64
	if b.log != nil {
		b.roundID, rstart = b.log.reserve(), b.log.now()
	}
	b.ref.sample()
	serial, err := b.serialPasses(ctx)
	if err != nil {
		return err
	}
	if b.log != nil {
		if err := b.directPasses(ctx); err != nil {
			return err
		}
	}
	b.ref.sample()
	d, err := startDaemon(ctx, dir, b.client, b.ht)
	if !b.chk.op(err) {
		return err
	}
	plane, err := b.planePasses(ctx, d)
	d.stop(b.client)
	if err != nil {
		return err
	}
	b.ref.sample()
	b.roundS = append(b.roundS, (serial + plane).Seconds())
	b.roundWall = append(b.roundWall, time.Since(start).Seconds())
	if b.log != nil {
		b.log.finish(b.roundID, 0, "", "round."+filepath.Base(dir), rstart, b.log.now())
	}
	return nil
}

// serialPasses runs the grid through an in-process serial RunCampaign with
// no cache until minTimed has been timed, and returns the median pass CPU
// time. The first pass's bytes are the reference every other path must
// reproduce.
func (b *bench) serialPasses(ctx context.Context) (time.Duration, error) {
	var times []float64
	var total time.Duration
	for total < minTimed {
		runtime.GC()
		id := b.passSpan()
		t, c := time.Now(), cpuNow()
		res, _, err := gurita.RunCampaign(ctx, b.grid, gurita.CampaignOptions{Workers: 1, IncludeCoflows: true})
		el, cpu := time.Since(t), cpuNow()-c
		for range b.grid {
			b.chk.op(err)
		}
		if err != nil {
			return 0, err
		}
		b.endPass(id, b.roundID, "pass.serial")
		first := b.refFull == nil
		var st passStats
		for i, r := range res {
			b.checkDrained(i, r, "serial")
			full := resultBytes(r)
			if first {
				b.refFull = append(b.refFull, full)
				lite := *r
				lite.Coflows = nil
				b.refLite = append(b.refLite, resultBytes(&lite))
			} else {
				b.chk.check(bytes.Equal(full, b.refFull[i]), "serial trial %d: result bytes differ between repetitions", i)
			}
			st.add(r)
		}
		st.seconds = el.Seconds()
		b.serial = append(b.serial, st)
		b.eps = append(b.eps, float64(st.events)/cpu.Seconds())
		times = append(times, cpu.Seconds())
		total += el
	}
	return seconds(median(times)), nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// checkDrained checks that a trial finished every job and moved exactly the
// workload's bytes.
func (b *bench) checkDrained(i int, r *gurita.Result, path string) {
	row := b.rowOf[i]
	b.chk.check(len(r.Jobs) == b.rowN[row], "%s trial %d: %d of %d jobs finished", path, i, len(r.Jobs), b.rowN[row])
	b.chk.check(r.TotalBytes == b.rowB[row], "%s trial %d: moved %d bytes, workload has %d", path, i, r.TotalBytes, b.rowB[row])
}

func resultBytes(r *gurita.Result) []byte {
	var buf bytes.Buffer
	if err := gurita.WriteResultJSON(&buf, r, false); err != nil {
		return []byte(err.Error())
	}
	return buf.Bytes()
}

// digest hashes the reference results in grid order.
func (b *bench) digest() string {
	h := sha256.New()
	for _, r := range b.refFull {
		h.Write(r)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// directPasses runs every trial of the grid through Scenario.RunWith
// twice, plain and traced, and checks both results' bytes against the
// reference. The traced run wraps the scheduler in the timing decorator and
// attaches the Obs sink. Which of the two goes first alternates from trial
// to trial and round to round, so an order effect (a warmer heap, say)
// cancels instead of showing as tracing overhead. The pass runs under the
// CPU profiler.
func (b *bench) directPasses(ctx context.Context) error {
	plain := passStats{kindS: make(map[string]float64)}
	traced := passStats{kindS: make(map[string]float64)}
	runtime.GC()
	pid, pstart := b.log.reserve(), b.log.now()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	var err error
	for i := 0; i < len(b.grid) && err == nil; i++ {
		first := (i+len(b.plain))%2 == 0
		for _, tr := range []bool{first, !first} {
			st := &plain
			if tr {
				st = &traced
			}
			if err = b.directTrial(ctx, i, tr, pid, st); err != nil {
				break
			}
		}
	}
	pprof.StopCPUProfile()
	b.chk.op(cpuByBucket(prof.Bytes(), b.cpu))
	if b.profile == "" {
		b.profile = filepath.Join(outDir, fmt.Sprintf("cpu-%s-%d.pprof", b.opts.workload, b.opts.seed))
		b.chk.op(os.WriteFile(b.profile, prof.Bytes(), 0o644))
	}
	b.log.finish(pid, b.roundID, "", "pass.direct", pstart, b.log.now())
	b.plain = append(b.plain, plain)
	b.traced = append(b.traced, traced)
	return err
}

// directTrial runs grid trial i once through Scenario.RunWith, traced or
// not, and adds it to st.
func (b *bench) directTrial(ctx context.Context, i int, traced bool, pid int64, st *passStats) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	spec := b.grid[i]
	sc := b.scen[b.rowOf[i]]
	s, err := gurita.NewScheduler(spec.Scheduler, spec.Queues)
	if !b.chk.op(err) {
		return err
	}
	var tr *trialTrace
	tid, tstart := b.log.reserve(), b.log.now()
	name := "sim.trial.plain."
	if traced {
		name = "sim.trial.traced."
		tr = newTrialTrace(b.log, tid, b.ids[i], tstart)
		sc.Obs = tr
		s = wrap(s, tr)
	}
	t := time.Now()
	res, err := sc.RunWith(s, wrrPlane(spec.Scheduler))
	el := time.Since(t)
	if !b.chk.op(err) {
		return err
	}
	tend := b.log.now()
	if traced {
		st.selfNs += tr.end(tend)
		st.assignNs += tr.assignNs
		st.notifyNs += tr.notifyNs
		st.solveNs += tr.solveNs
		st.assignCalls += tr.assignCalls
		st.offered += tr.offered
		st.dirty += tr.dirty
	}
	b.log.finish(tid, pid, b.ids[i], name+kindName(spec.Scheduler), tstart, tend)
	st.kindS[kindName(spec.Scheduler)] += el.Seconds()
	st.seconds += el.Seconds()
	st.add(res)
	b.checkDrained(i, res, "direct")
	b.chk.check(bytes.Equal(resultBytes(res), b.refFull[i]),
		"direct trial %d (%s, traced=%v): result bytes differ from the serial RunCampaign", i, spec.Scheduler, traced)
	return nil
}

// kindName makes a scheduler kind usable in a metric name.
func kindName(k gurita.SchedulerKind) string { return strings.ReplaceAll(string(k), "+", "plus") }

// passSpan opens a pass span and points the HTTP tracer at it.
func (b *bench) passSpan() int64 {
	if b.log == nil {
		return 0
	}
	id := b.log.reserve()
	b.ht.parent.Store(id)
	b.passStart.Store(b.log.now())
	return id
}

func (b *bench) endPass(id, parent int64, name string) {
	if b.log == nil {
		return
	}
	b.log.finish(id, parent, "", name, b.passStart.Load(), b.log.now())
}
