package gurita_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	gurita "gurita"
)

// campaignGrid is a small scheduler × scenario × seed grid, big enough to
// exercise both workload families and out-of-order completion.
func campaignGrid() []gurita.TrialSpec {
	scale := gurita.QuickScale()
	scale.TraceCoflows = 8
	scale.BurstyJobs = 8
	scale.BurstSize = 4
	scale.MaxSenders = 3
	scale.MaxReducers = 2
	var specs []gurita.TrialSpec
	for _, scenario := range []gurita.CampaignScenario{gurita.CampaignTrace, gurita.CampaignBursty} {
		for _, kind := range []gurita.SchedulerKind{gurita.KindPFS, gurita.KindGurita} {
			for seed := int64(1); seed <= 2; seed++ {
				s := scale
				s.Seed = seed
				specs = append(specs, gurita.TrialSpec{
					Scheduler: kind,
					Scenario:  scenario,
					Structure: gurita.StructureFBTao,
					Scale:     s,
				})
			}
		}
	}
	return specs
}

// aggregateJSON renders a campaign's results as one deterministic JSON
// stream — the "aggregated output" the determinism guarantee is stated
// over.
func aggregateJSON(t *testing.T, results []*gurita.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		if err := gurita.WriteResultJSON(&buf, r, false); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestCampaignDeterminismGolden: the same campaign run (a) serially, (b)
// with 8 workers, and (c) from a warm cache yields byte-identical
// aggregated JSON — and the warm run executes zero simulations.
func TestCampaignDeterminismGolden(t *testing.T) {
	ctx := context.Background()
	specs := campaignGrid()

	serial, stats, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != len(specs) || stats.CacheHits != 0 {
		t.Fatalf("serial stats = %+v", stats)
	}

	parallel, _, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cold, stats, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != len(specs) {
		t.Fatalf("cold cached run stats = %+v", stats)
	}
	warm, stats, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{Workers: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 || stats.CacheHits != len(specs) {
		t.Fatalf("warm run executed %d simulations, want 0 (stats %+v)", stats.Executed, stats)
	}

	golden := aggregateJSON(t, serial)
	for name, got := range map[string][]*gurita.Result{
		"parallel": parallel, "cold-cache": cold, "warm-cache": warm,
	} {
		if !bytes.Equal(golden, aggregateJSON(t, got)) {
			t.Fatalf("%s aggregated JSON differs from the serial run", name)
		}
	}
}

// TestCampaignForce re-executes everything over a warm cache.
func TestCampaignForce(t *testing.T) {
	ctx := context.Background()
	specs := campaignGrid()[:2]
	dir := t.TempDir()
	if _, _, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	_, stats, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{CacheDir: dir, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != len(specs) || stats.CacheHits != 0 {
		t.Fatalf("forced stats = %+v", stats)
	}
}

// TestCampaignCacheRobustness: corrupting cached campaign entries on disk
// downgrades them to misses; the campaign recomputes, overwrites, and still
// produces the identical aggregate.
func TestCampaignCacheRobustness(t *testing.T) {
	ctx := context.Background()
	specs := campaignGrid()[:4]
	dir := t.TempDir()
	first, _, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	golden := aggregateJSON(t, first)

	// Truncate one entry, garbage a second.
	var entries []string
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			entries = append(entries, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(specs) {
		t.Fatalf("cache holds %d entries, want %d", len(entries), len(specs))
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[1], []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	again, stats, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 2 || stats.CacheHits != 2 {
		t.Fatalf("after corruption stats = %+v, want 2 executed / 2 hits", stats)
	}
	if !bytes.Equal(golden, aggregateJSON(t, again)) {
		t.Fatal("recovered campaign aggregate differs")
	}
	// Healed: a third run is fully warm again.
	_, stats, err = gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 {
		t.Fatalf("cache not healed: %+v", stats)
	}
}

// TestCampaignCancellation: a canceled context aborts the campaign with
// ctx.Err and leaves completed trials in the cache for resume.
func TestCampaignCancellation(t *testing.T) {
	specs := campaignGrid()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, _, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{
		Workers:  1,
		CacheDir: dir,
		Progress: func(p gurita.CampaignProgress) {
			n++
			if n == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	results, stats, err := gurita.RunCampaign(context.Background(), specs, gurita.CampaignOptions{Workers: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits < 3 {
		t.Fatalf("resume found %d cached trials, want >= 3", stats.CacheHits)
	}
	if len(results) != len(specs) {
		t.Fatalf("resume returned %d results", len(results))
	}
}

// TestTrialSpecValidation: unknown scenario, topology, and scheduler fail
// cleanly.
func TestTrialSpecValidation(t *testing.T) {
	base := campaignGrid()[0]
	ctx := context.Background()

	bad := base
	bad.Scenario = "warp"
	if _, _, err := gurita.RunCampaign(ctx, []gurita.TrialSpec{bad}, gurita.CampaignOptions{}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	bad = base
	bad.Topo = "torus"
	if _, _, err := gurita.RunCampaign(ctx, []gurita.TrialSpec{bad}, gurita.CampaignOptions{}); err == nil {
		t.Fatal("unknown topology accepted")
	}
	bad = base
	bad.Scheduler = "nope"
	if _, _, err := gurita.RunCampaign(ctx, []gurita.TrialSpec{bad}, gurita.CampaignOptions{}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

// TestTrialSpecTopologies: the alternative fabrics build and drain.
func TestTrialSpecTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	base := campaignGrid()[0] // trace, pfs, seed 1
	var specs []gurita.TrialSpec
	for _, topo := range []string{"fattree", "leafspine", "bigswitch"} {
		s := base
		s.Topo = topo
		specs = append(specs, s)
	}
	oversub := base
	oversub.Oversub = 4
	specs = append(specs, oversub)
	results, _, err := gurita.RunCampaign(context.Background(), specs, gurita.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if len(r.Jobs) == 0 {
			t.Fatalf("spec %d (%s) drained no jobs", i, specs[i].Topo)
		}
	}
}

// TestTrialSpecNormalization: specs that differ only in defaulted fields
// share a cache entry.
func TestTrialSpecNormalization(t *testing.T) {
	a := campaignGrid()[0]
	b := a
	b.Queues = 4
	b.Topo = "fattree"
	b.Oversub = 1
	b.Scale.Trials = 7 // ignored per-trial
	dir := t.TempDir()
	ctx := context.Background()
	if _, stats, err := gurita.RunCampaign(ctx, []gurita.TrialSpec{a}, gurita.CampaignOptions{CacheDir: dir}); err != nil || stats.Executed != 1 {
		t.Fatalf("first run: stats=%+v err=%v", stats, err)
	}
	_, stats, err := gurita.RunCampaign(ctx, []gurita.TrialSpec{b}, gurita.CampaignOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 1 || stats.Executed != 0 {
		t.Fatalf("normalized spec missed the cache: %+v", stats)
	}
}

// TestCampaignMultiProcessLeaseTiming: lease timing that would let peers
// reclaim a live worker's leases (a heartbeat no faster than the TTL) or
// silently disable the poison budget (negative attempts) is rejected before
// any trial runs; a sound configuration runs, publishes its manifest shard,
// and leaves no leases behind.
func TestCampaignMultiProcessLeaseTiming(t *testing.T) {
	ctx := context.Background()
	specs := campaignGrid()[:1]
	bad := []gurita.MultiProcessOptions{
		{LeaseTTL: time.Second, Heartbeat: time.Second},
		{LeaseTTL: time.Second, Heartbeat: 2 * time.Second},
		{Heartbeat: 10 * time.Second}, // >= the default TTL
		{MaxAttempts: -1},
		{LeaseTTL: -time.Second},
		{Heartbeat: -time.Millisecond},
	}
	for i, mp := range bad {
		mp := mp
		dir := t.TempDir()
		_, stats, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{CacheDir: dir, MultiProcess: &mp})
		if err == nil || stats.Executed != 0 {
			t.Errorf("case %d (%+v): err = %v, executed = %d; want rejection before execution", i, mp, err, stats.Executed)
		}
	}

	dir := t.TempDir()
	mp := &gurita.MultiProcessOptions{Owner: "w1", LeaseTTL: 2 * time.Second, Heartbeat: 500 * time.Millisecond, MaxAttempts: 2}
	_, stats, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{CacheDir: dir, MultiProcess: mp})
	if err != nil || stats.Executed != 1 {
		t.Fatalf("sound multi-process run: stats = %+v, err = %v", stats, err)
	}
	if shards, _ := filepath.Glob(filepath.Join(dir, "manifests", "w1-*.json")); len(shards) != 1 {
		t.Errorf("manifest shards = %v, want one for w1", shards)
	}
	if leases, _ := os.ReadDir(filepath.Join(dir, "leases")); len(leases) != 0 {
		t.Errorf("leases left behind: %d", len(leases))
	}
	// A single-process campaign over a fresh directory never creates leases/.
	plain := t.TempDir()
	if _, _, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{CacheDir: plain}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(plain, "leases")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("single-process campaign created a leases dir: %v", err)
	}
}
