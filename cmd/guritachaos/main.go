// Command guritachaos is the kill -9 harness for multi-process campaigns:
// it spawns a fleet of guritaworker processes against one shared cache,
// SIGKILLs and SIGSTOPs them on a seeded schedule while they fight over the
// grid, and then audits the wreckage. The audit is the multi-process
// contract stated as assertions:
//
//   - the fleet (plus reclaims) finishes the whole grid, and every trial's
//     result bytes are identical to a serial in-process run of the same grid;
//   - no lease or poison files survive and the quarantine directory is empty
//     (crashes leave garbage, the protocol cleans all of it up);
//   - the merged worker manifests are self-consistent: the retry, reclaim,
//     and execution tallies in the stats columns equal the obs counters the
//     workers snapshotted alongside them.
//
// With -http-cache the same contract is tested over the remote-cache path:
// the harness spawns a guritad process as the cache server, points the fleet
// at it with -cache-url (workers share nothing but the URL), and adds the
// daemon itself to the kill schedule — SIGKILL the cache server mid-campaign,
// restart it on the same port, and the workers must ride out the outage on
// retries and still converge byte-identically. The audit gains two remote
// assertions: GET /v1/cache/leases must list zero surviving leases, and the
// daemon must drain cleanly (exit 0) on SIGTERM after the fleet is done.
//
// The schedule is deterministic in -seed (modulo OS scheduling, which is the
// point: the chaos is real). Exit status 0 means every assertion held.
//
// Usage:
//
//	go build -o /tmp/bin ./cmd/guritaworker ./cmd/guritachaos
//	/tmp/bin/guritachaos -workers 3 -kills 2 -stops 1 -seed 7
//
//	go build -o /tmp/bin ./cmd/guritaworker ./cmd/guritad ./cmd/guritachaos
//	/tmp/bin/guritachaos -http-cache -workers 3 -kills 2 -daemon-kills 1
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	gurita "gurita"
	"gurita/internal/cachestore"
	"gurita/internal/metrics"
	"gurita/internal/obs"
	"gurita/internal/runner"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "guritachaos: FAIL:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workers   = flag.Int("workers", 3, "worker processes to keep in the fleet")
		parallel  = flag.Int("parallel", 2, "per-worker pool size")
		kills     = flag.Int("kills", 2, "SIGKILLs to deliver (each killed worker is respawned under a fresh id)")
		stops     = flag.Int("stops", 1, "SIGSTOP/SIGCONT pauses to deliver, each longer than the lease TTL")
		seed      = flag.Int64("seed", 1, "chaos-schedule seed")
		leaseTTL  = flag.Duration("lease-ttl", time.Second, "worker lease TTL (short, so reclaims happen within the run)")
		workerBin = flag.String("worker-bin", "", "guritaworker binary (default: next to this binary, then $PATH)")
		cacheDir  = flag.String("cache", "", "shared cache directory (default: a temp dir, removed when the run passes)")

		httpCache   = flag.Bool("http-cache", false, "run the fleet against a guritad cache server over -cache-url instead of a shared directory")
		daemonBin   = flag.String("daemon-bin", "", "guritad binary for -http-cache (default: next to this binary, then $PATH)")
		daemonKills = flag.Int("daemon-kills", 1, "SIGKILL+restart cycles for the cache daemon (only with -http-cache)")
		schedds     = flag.String("schedulers", "gurita,pfs", "comma-separated schedulers in the built-in grid")
		seeds       = flag.Int("seeds", 3, "workload seeds per scheduler in the built-in grid")
		jobs        = flag.Int("jobs", 30, "coflows per trial in the built-in grid")
		timeout     = flag.Duration("timeout", 3*time.Minute, "overall harness deadline")
	)
	flag.Parse()
	if *workers < 2 {
		return fmt.Errorf("-workers must be >= 2 (chaos needs survivors), got %d", *workers)
	}
	if *daemonKills < 0 {
		return fmt.Errorf("-daemon-kills must be >= 0, got %d", *daemonKills)
	}
	if !*httpCache && *daemonBin != "" {
		return fmt.Errorf("-daemon-bin only makes sense with -http-cache")
	}

	bin, err := resolveBin(*workerBin, "guritaworker")
	if err != nil {
		return err
	}

	work, err := os.MkdirTemp("", "guritachaos-")
	if err != nil {
		return err
	}
	cache := *cacheDir
	if cache == "" {
		cache = filepath.Join(work, "cache")
	}
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return err
	}

	// The built-in grid: small enough to finish in seconds, large enough
	// that kills land mid-flight.
	var specs []gurita.TrialSpec
	for _, name := range strings.Split(*schedds, ",") {
		for s := 1; s <= *seeds; s++ {
			specs = append(specs, gurita.TrialSpec{
				Scheduler: gurita.SchedulerKind(strings.TrimSpace(name)),
				Scenario:  gurita.CampaignTrace,
				Structure: gurita.StructureFBTao,
				Scale: gurita.Scale{
					Seed: int64(s), FatTreeK: 4, TraceCoflows: *jobs,
					MaxSenders: 6, MaxReducers: 3, TraceTimeScale: 0.1,
				},
				Queues: 4,
			})
		}
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("grid trial %d: %w", i, err)
		}
	}
	gridPath := filepath.Join(work, "grid.json")
	gridJSON, err := json.MarshalIndent(specs, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(gridPath, gridJSON, 0o644); err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Serial in-process reference: the bytes every trial must reproduce.
	fmt.Fprintf(os.Stderr, "guritachaos: reference run (%d trials, serial)\n", len(specs))
	reference, err := renderResults(ctx, specs, gurita.CampaignOptions{Workers: 1})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}

	// With -http-cache the cache is a guritad process; its disk is the same
	// cache dir, so the post-run filesystem audit applies unchanged.
	var cacheSrv *daemon
	if *httpCache {
		dbin, err := resolveBin(*daemonBin, "guritad")
		if err != nil {
			return err
		}
		cacheSrv = &daemon{bin: dbin, cache: cache, work: work, ttl: *leaseTTL}
		if err := cacheSrv.start(ctx); err != nil {
			return err
		}
		defer cacheSrv.killNow()
		fmt.Fprintf(os.Stderr, "guritachaos: cache daemon serving %s\n", cacheSrv.url())
	}

	// Spawn the fleet and run the seeded chaos schedule against it.
	fleet := &fleet{
		bin: bin, grid: gridPath, cache: cache,
		parallel: *parallel, ttl: *leaseTTL,
	}
	if *httpCache {
		fleet.cacheURL = cacheSrv.url()
	}
	for i := 0; i < *workers; i++ {
		if err := fleet.spawn(); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(*seed))
	killed, stopped, dkilled := 0, 0, 0
	wantDKills := 0
	if *httpCache {
		wantDKills = *daemonKills
	}
	// The first kill lands fast, before a small grid can drain — the
	// harness's one guarantee is that at least one worker actually dies
	// mid-campaign.
	time.Sleep(100*time.Millisecond + time.Duration(rng.Intn(100))*time.Millisecond)
	const (
		actKillWorker = iota
		actStopWorker
		actKillDaemon
	)
	for killed < *kills || stopped < *stops || dkilled < wantDKills {
		if ctx.Err() != nil {
			fleet.killAll()
			return fmt.Errorf("chaos schedule overran -timeout %v", *timeout)
		}
		var acts []int
		if killed < *kills {
			acts = append(acts, actKillWorker)
		}
		if stopped < *stops {
			acts = append(acts, actStopWorker)
		}
		if dkilled < wantDKills {
			acts = append(acts, actKillDaemon)
		}
		switch acts[rng.Intn(len(acts))] {
		case actKillWorker:
			id, err := fleet.killRandom(rng)
			if err != nil {
				return err
			}
			killed++
			fmt.Fprintf(os.Stderr, "guritachaos: SIGKILL %s (%d/%d), respawning\n", id, killed, *kills)
			if err := fleet.spawn(); err != nil {
				return err
			}
		case actStopWorker:
			id, err := fleet.stopRandom(rng, *leaseTTL+(*leaseTTL)/2)
			if err != nil {
				return err
			}
			stopped++
			fmt.Fprintf(os.Stderr, "guritachaos: SIGSTOP/SIGCONT %s (%d/%d)\n", id, stopped, *stops)
		case actKillDaemon:
			if err := cacheSrv.kill(); err != nil {
				return err
			}
			dkilled++
			fmt.Fprintf(os.Stderr, "guritachaos: SIGKILL cache daemon (%d/%d), restarting on %s\n",
				dkilled, wantDKills, cacheSrv.addr)
			// Let the fleet hammer a dead address for a moment — the retry
			// path is the thing under test — then bring it back on the same
			// port with the same disk.
			time.Sleep(time.Duration(100+rng.Intn(200)) * time.Millisecond)
			if err := cacheSrv.start(ctx); err != nil {
				return err
			}
		}
		time.Sleep(time.Duration(150+rng.Intn(450)) * time.Millisecond)
	}
	if err := fleet.wait(ctx); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "guritachaos: fleet done (%d spawned, %d killed, %d paused, %d daemon kills)\n",
		fleet.spawned, killed, stopped, dkilled)

	// Verification pass: an in-process lease-mode campaign over the same
	// cache. It must see a fully populated cache, and it sweeps any stale
	// lease the schedule left behind. In -http-cache mode it goes through
	// the daemon like any other remote worker.
	reg := obs.NewSyncRegistry()
	vopts := gurita.CampaignOptions{Workers: 2}
	if *httpCache {
		vopts.CacheURL = cacheSrv.url()
		vopts.MultiProcess = &gurita.MultiProcessOptions{Owner: "chaos-verify", Registry: reg}
	} else {
		vopts.CacheDir = cache
		vopts.MultiProcess = &gurita.MultiProcessOptions{Owner: "chaos-verify", LeaseTTL: *leaseTTL, Registry: reg}
	}
	verified, err := renderResults(ctx, specs, vopts)
	if err != nil {
		return fmt.Errorf("verification pass: %w", err)
	}

	// Assertion 1: exactly-once result bytes.
	for i := range specs {
		if !bytes.Equal(reference[i], verified[i]) {
			return fmt.Errorf("trial %d result bytes differ from the serial reference (%d vs %d bytes)",
				i, len(reference[i]), len(verified[i]))
		}
	}
	// Assertion 2: no leases, poisons, or quarantined entries survive. In
	// -http-cache mode the lease authority is the daemon's in-memory table,
	// so ask it directly — after a grace period in which any lease orphaned
	// in the schedule's final instant expires on the daemon's clock — and
	// then require a clean drain (a daemon that cannot shut down gracefully
	// after chaos failed the contract too).
	if *httpCache {
		time.Sleep(*leaseTTL + *leaseTTL/2)
		left, err := cacheSrv.listLeases()
		if err != nil {
			return err
		}
		if len(left) != 0 {
			return fmt.Errorf("daemon still holds leases: %v", left)
		}
		if err := cacheSrv.stop(); err != nil {
			return fmt.Errorf("cache daemon graceful stop: %w", err)
		}
	}
	if left := globNames(filepath.Join(cache, cachestore.LeaseSubdir), "*"); len(left) != 0 {
		return fmt.Errorf("lease files left behind: %v", left)
	}
	if q := globNames(filepath.Join(cache, cachestore.QuarantineDir), "*"); len(q) != 0 {
		return fmt.Errorf("quarantined cache entries: %v", q)
	}
	// Assertion 3: the merged manifests are self-consistent — stats columns
	// equal the counters snapshotted next to them.
	shards, err := runner.LoadWorkerManifests(cache, metrics.WorkerManifestSchema, "")
	if err != nil {
		return err
	}
	// Shards exist only for workers that finished; at minimum the survivors
	// and the verify pass wrote one each.
	if len(shards) < 2 {
		return fmt.Errorf("only %d manifest shards found, want >= 2", len(shards))
	}
	merged, err := runner.MergeWorkerManifests(shards)
	if err != nil {
		return err
	}
	for col, want := range map[string]int{
		"runner.trials.executed": merged.Executed,
		"runner.trials.retried":  merged.Retries,
		"lease.reclaimed":        merged.Reclaims,
	} {
		if got := merged.Counters[col]; got != int64(want) {
			return fmt.Errorf("merged manifest disagrees with obs counters: %s = %d, stats column = %d", col, got, want)
		}
	}
	if len(merged.Failures) != 0 {
		return fmt.Errorf("healthy grid degraded: %+v", merged.Failures)
	}
	if merged.Executed+merged.CacheHits+merged.DedupHits < len(specs) {
		return fmt.Errorf("accounting hole: %d trials but executed+cache+dedup = %d",
			len(specs), merged.Executed+merged.CacheHits+merged.DedupHits)
	}

	mode := "shared-dir cache"
	if *httpCache {
		mode = fmt.Sprintf("http cache, %d daemon kills", dkilled)
	}
	fmt.Printf("guritachaos: PASS — %d trials, %d workers spawned, %d SIGKILLed, %d paused (%s); executed %d, reclaims %d, retries %d, byte-identical\n",
		len(specs), fleet.spawned, killed, stopped, mode, merged.Executed, merged.Reclaims, merged.Retries)
	if *cacheDir == "" {
		os.RemoveAll(work)
	}
	return nil
}

// renderResults runs the grid and renders every trial's result with the same
// writer guritasim -json uses, so byte comparison is end-to-end.
func renderResults(ctx context.Context, specs []gurita.TrialSpec, opts gurita.CampaignOptions) ([][]byte, error) {
	opts.IncludeCoflows = true
	results, _, err := gurita.RunCampaign(ctx, specs, opts)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(results))
	for i, res := range results {
		if res == nil {
			return nil, fmt.Errorf("trial %d produced no result", i)
		}
		var buf bytes.Buffer
		if err := gurita.WriteResultJSON(&buf, res, false); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// fleet manages the worker processes under chaos. With cacheURL set the
// workers share the cache through a guritad daemon instead of the directory.
type fleet struct {
	bin, grid, cache string
	cacheURL         string
	parallel         int
	ttl              time.Duration
	spawned          int
	live             []*worker
}

type worker struct {
	id   string
	cmd  *exec.Cmd
	done chan error
}

func (f *fleet) spawn() error {
	f.spawned++
	id := fmt.Sprintf("chaos-w%d", f.spawned)
	args := []string{
		"-grid", f.grid,
		"-parallel", strconv.Itoa(f.parallel),
		"-worker-id", id, "-retries", "1", "-quiet",
	}
	if f.cacheURL != "" {
		// Remote mode: lease tuning is the daemon's (-cache-lease-ttl), so
		// the worker gets only the URL.
		args = append(args, "-cache-url", f.cacheURL)
	} else {
		args = append(args, "-cache", f.cache, "-lease-ttl", f.ttl.String())
	}
	cmd := exec.Command(f.bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawning %s: %w", id, err)
	}
	w := &worker{id: id, cmd: cmd, done: make(chan error, 1)}
	go func() { w.done <- cmd.Wait() }()
	f.live = append(f.live, w)
	return nil
}

// pick returns a random still-running worker, pruning finished ones.
func (f *fleet) pick(rng *rand.Rand) (*worker, error) {
	alive := f.live[:0]
	for _, w := range f.live {
		select {
		case err := <-w.done:
			if err != nil {
				return nil, fmt.Errorf("worker %s exited under chaos: %w", w.id, err)
			}
		default:
			alive = append(alive, w)
		}
	}
	f.live = alive
	if len(f.live) == 0 {
		return nil, nil
	}
	return f.live[rng.Intn(len(f.live))], nil
}

// killRandom SIGKILLs one live worker and reaps it. When the fleet already
// finished the grid there is nothing left to kill — that counts: the
// surviving schedule was too gentle, but the contract under test is the
// fleet's, not the schedule's.
func (f *fleet) killRandom(rng *rand.Rand) (string, error) {
	w, err := f.pick(rng)
	if err != nil || w == nil {
		return "(fleet already done)", err
	}
	if err := w.cmd.Process.Kill(); err != nil {
		return "", fmt.Errorf("killing %s: %w", w.id, err)
	}
	<-w.done // reap; a kill-induced error is the expected outcome
	for i, lw := range f.live {
		if lw == w {
			f.live = append(f.live[:i], f.live[i+1:]...)
			break
		}
	}
	return w.id, nil
}

// stopRandom SIGSTOPs one live worker for longer than the lease TTL, then
// SIGCONTs it — the worker wakes to find its leases reclaimed and must
// defer to its peers' results.
func (f *fleet) stopRandom(rng *rand.Rand, pause time.Duration) (string, error) {
	w, err := f.pick(rng)
	if err != nil || w == nil {
		return "(fleet already done)", err
	}
	if err := w.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return "", fmt.Errorf("stopping %s: %w", w.id, err)
	}
	time.Sleep(pause)
	if err := w.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		return "", fmt.Errorf("resuming %s: %w", w.id, err)
	}
	return w.id, nil
}

// wait blocks until every live worker exits cleanly or ctx expires.
func (f *fleet) wait(ctx context.Context) error {
	for _, w := range f.live {
		select {
		case err := <-w.done:
			if err != nil {
				return fmt.Errorf("worker %s failed: %w", w.id, err)
			}
		case <-ctx.Done():
			f.killAll()
			return fmt.Errorf("workers still running at -timeout: %s", w.id)
		}
	}
	f.live = nil
	return nil
}

func (f *fleet) killAll() {
	for _, w := range f.live {
		_ = w.cmd.Process.Kill()
		<-w.done
	}
	f.live = nil
}

// daemon manages the guritad cache server under chaos: started once on a
// free port, SIGKILLed and restarted on the same port mid-schedule, and
// SIGTERMed at the end where it must drain cleanly.
type daemon struct {
	bin, cache, work string
	ttl              time.Duration
	addr             string // concrete host:port, fixed after the first start
	cmd              *exec.Cmd
	done             chan error
}

func (d *daemon) url() string { return "http://" + d.addr }

// start launches guritad and blocks until its cache API answers. The first
// start binds :0 and learns the port from -addr-file; restarts reuse it so
// the fleet's -cache-url stays valid across the kill.
func (d *daemon) start(ctx context.Context) error {
	listen := d.addr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	addrFile := filepath.Join(d.work, "daemon-addr")
	os.Remove(addrFile)
	cmd := exec.Command(d.bin,
		"-listen", listen, "-addr-file", addrFile,
		"-cache", d.cache,
		"-cache-lease-ttl", d.ttl.String())
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawning guritad: %w", err)
	}
	d.cmd = cmd
	d.done = make(chan error, 1)
	go func() { d.done <- cmd.Wait() }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			d.addr = strings.TrimSpace(string(data))
			break
		}
		select {
		case err := <-d.done:
			return fmt.Errorf("guritad exited before serving: %v", err)
		default:
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			d.killNow()
			return errors.New("guritad did not publish its address in time")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for {
		resp, err := http.Get(d.url() + "/v1/cache/len")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			d.killNow()
			return errors.New("guritad cache API did not come up in time")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill SIGKILLs the daemon and reaps it — the chaos event.
func (d *daemon) kill() error {
	if err := d.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("killing guritad: %w", err)
	}
	<-d.done // a kill-induced error is the expected outcome
	return nil
}

// killNow is the best-effort cleanup for error paths; idempotent.
func (d *daemon) killNow() {
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	if d.cmd.Process.Kill() == nil {
		<-d.done
	}
	d.cmd = nil
}

// stop SIGTERMs the daemon and requires a clean drain (exit 0).
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.done:
		d.cmd = nil
		if err != nil {
			return fmt.Errorf("guritad exited uncleanly on SIGTERM: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		d.killNow()
		return errors.New("guritad did not drain within 30s of SIGTERM")
	}
}

// listLeases asks the daemon for its unexpired leases ("key owner" strings).
func (d *daemon) listLeases() ([]string, error) {
	resp, err := http.Get(d.url() + "/v1/cache/leases")
	if err != nil {
		return nil, fmt.Errorf("listing daemon leases: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("listing daemon leases: status %d", resp.StatusCode)
	}
	var doc struct {
		Leases []struct {
			Key   string `json:"key"`
			Owner string `json:"owner"`
		} `json:"leases"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding daemon lease list: %w", err)
	}
	out := make([]string, 0, len(doc.Leases))
	for _, l := range doc.Leases {
		out = append(out, fmt.Sprintf("%s held by %s", l.Key[:12], l.Owner))
	}
	return out, nil
}

// resolveBin finds a sibling gurita binary: explicit flag, next to this
// binary, then $PATH.
func resolveBin(flagVal, name string) (string, error) {
	if flagVal != "" {
		return flagVal, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), name)
		if _, err := os.Stat(cand); err == nil {
			return cand, nil
		}
	}
	if path, err := exec.LookPath(name); err == nil {
		return path, nil
	}
	return "", fmt.Errorf("%s binary not found; build it next to guritachaos or pass the flag", name)
}

// globNames lists base names matching pattern under dir (empty when the
// directory does not exist).
func globNames(dir, pattern string) []string {
	matches, _ := filepath.Glob(filepath.Join(dir, pattern))
	names := make([]string, 0, len(matches))
	for _, m := range matches {
		names = append(names, filepath.Base(m))
	}
	return names
}
