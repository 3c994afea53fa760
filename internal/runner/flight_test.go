package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gurita/internal/cachestore/fsstore"
)

// TestFlightCoalescesAcrossCampaigns runs two campaigns over overlapping
// grids concurrently, sharing one cache and one flight: every distinct key
// must execute exactly once process-wide, with the loser of each race
// counted as a dedup (or cache) hit, and both campaigns must still see
// correct results in grid order.
func TestFlightCoalescesAcrossCampaigns(t *testing.T) {
	cache, err := fsstore.Open(t.TempDir(), "flight-test-v1")
	if err != nil {
		t.Fatal(err)
	}
	flight := &Flight{}

	var executions sync.Map // spec -> *int32
	started := make(chan struct{})
	var startOnce sync.Once
	exec := func(ctx context.Context, spec int) (int, error) {
		startOnce.Do(func() { close(started) })
		v, _ := executions.LoadOrStore(spec, new(int32))
		atomic.AddInt32(v.(*int32), 1)
		// Long enough that the overlapping campaign reliably finds the key
		// in flight rather than already cached.
		time.Sleep(50 * time.Millisecond)
		return spec * 10, nil
	}
	opts := Options{Workers: 4, Store: storeFor(t, cache), Flight: flight}

	gridA := []int{1, 2, 3, 4}
	gridB := []int{3, 4, 5, 6}
	var (
		wg             sync.WaitGroup
		resA, resB     []int
		statsA, statsB Stats
		errA, errB     error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		resA, statsA, errA = Run(context.Background(), gridA, exec, opts)
	}()
	go func() {
		defer wg.Done()
		<-started // overlap, don't fully serialize
		resB, statsB, errB = Run(context.Background(), gridB, exec, opts)
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("campaign errors: %v / %v", errA, errB)
	}
	for i, s := range gridA {
		if resA[i] != s*10 {
			t.Fatalf("campaign A result[%d] = %d", i, resA[i])
		}
	}
	for i, s := range gridB {
		if resB[i] != s*10 {
			t.Fatalf("campaign B result[%d] = %d", i, resB[i])
		}
	}
	executions.Range(func(k, v any) bool {
		if n := atomic.LoadInt32(v.(*int32)); n != 1 {
			t.Errorf("spec %v executed %d times, want 1", k, n)
		}
		return true
	})
	// Six distinct keys across both campaigns, eight trials total: the two
	// overlapping keys were served without executing (dedup if caught in
	// flight, cache if the race resolved first).
	if got := statsA.Executed + statsB.Executed; got != 6 {
		t.Fatalf("total executed = %d, want 6 (stats A %+v, B %+v)", got, statsA, statsB)
	}
	if served := statsA.DedupHits + statsB.DedupHits + statsA.CacheHits + statsB.CacheHits; served != 2 {
		t.Fatalf("served without executing = %d, want 2 (stats A %+v, B %+v)", served, statsA, statsB)
	}
}

// TestFlightLeaderFailurePropagates: a deterministic trial error reaches
// both the leader and the coalesced duplicate.
func TestFlightLeaderFailurePropagates(t *testing.T) {
	cache, err := fsstore.Open(t.TempDir(), "flight-err-v1")
	if err != nil {
		t.Fatal(err)
	}
	flight := &Flight{}
	var calls int32
	leaderIn := make(chan struct{})
	proceed := make(chan struct{})
	exec := func(ctx context.Context, spec int) (int, error) {
		if atomic.AddInt32(&calls, 1) == 1 {
			close(leaderIn)
		}
		<-proceed
		return 0, errors.New("boom")
	}
	opts := Options{Workers: 1, Store: storeFor(t, cache), Flight: flight}
	var wg sync.WaitGroup
	var err1, err2 error
	wg.Add(2)
	go func() { defer wg.Done(); _, _, err1 = Run(context.Background(), []int{7}, exec, opts) }()
	go func() {
		defer wg.Done()
		<-leaderIn // the other campaign holds the flight slot
		_, _, err2 = Run(context.Background(), []int{7}, exec, opts)
	}()
	<-leaderIn
	// Give the duplicate time to join the flight before the leader fails;
	// the leader is parked in exec, so the slot stays occupied meanwhile.
	time.Sleep(50 * time.Millisecond)
	close(proceed)
	wg.Wait()
	if err1 == nil || err2 == nil {
		t.Fatalf("errors: %v / %v", err1, err2)
	}
	for _, e := range []error{err1, err2} {
		if !strings.Contains(e.Error(), "boom") {
			t.Fatalf("unexpected error: %v", e)
		}
	}
	if n := atomic.LoadInt32(&calls); n != 1 {
		t.Fatalf("exec calls = %d, want 1 (duplicate must share the failure)", n)
	}
}

// TestFlightFollowerTakesOverAfterCancelledLeader: when the leader's own
// campaign is cancelled mid-flight, a waiting duplicate from a healthy
// campaign must re-run the trial instead of inheriting the cancellation.
func TestFlightFollowerTakesOverAfterCancelledLeader(t *testing.T) {
	cache, err := fsstore.Open(t.TempDir(), "flight-takeover-v1")
	if err != nil {
		t.Fatal(err)
	}
	flight := &Flight{}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	var execs int32
	exec := func(ctx context.Context, spec int) (int, error) {
		n := atomic.AddInt32(&execs, 1)
		if n == 1 {
			close(leaderIn)
			<-ctx.Done() // simulate a cooperative trial observing cancellation
			return 0, ctx.Err()
		}
		return spec * 10, nil
	}
	opts := Options{Workers: 1, Store: storeFor(t, cache), Flight: flight}
	var wg sync.WaitGroup
	var resF []int
	var errL, errF error
	wg.Add(2)
	go func() { defer wg.Done(); _, _, errL = Run(leaderCtx, []int{9}, exec, opts) }()
	go func() {
		defer wg.Done()
		<-leaderIn // ensure the other campaign is the leader
		resF, _, errF = Run(context.Background(), []int{9}, exec, opts)
	}()
	<-leaderIn
	// Give the follower a moment to join the flight, then kill the leader.
	time.Sleep(20 * time.Millisecond)
	cancelLeader()
	wg.Wait()
	if errL == nil {
		t.Fatal("leader campaign should have been cancelled")
	}
	if errF != nil {
		t.Fatalf("follower should have taken over, got %v", errF)
	}
	if resF[0] != 90 {
		t.Fatalf("follower result = %d, want 90", resF[0])
	}
	if n := atomic.LoadInt32(&execs); n != 2 {
		t.Fatalf("executions = %d, want 2 (leader aborted + follower rerun)", n)
	}
}

// TestGateOrdersAndReleases: the gate sees every cache-missing trial exactly
// once, its release runs exactly once per admission, and cache hits bypass
// the gate entirely.
func TestGateOrdersAndReleases(t *testing.T) {
	cache, err := fsstore.Open(t.TempDir(), "gate-test-v1")
	if err != nil {
		t.Fatal(err)
	}
	var admitted, released int32
	gate := func(ctx context.Context, index int, key string) (func(), error) {
		atomic.AddInt32(&admitted, 1)
		if key == "" {
			t.Errorf("gate saw empty key for index %d", index)
		}
		return func() { atomic.AddInt32(&released, 1) }, nil
	}
	exec := func(ctx context.Context, spec int) (int, error) { return spec, nil }
	specs := []int{1, 2, 3}
	if _, _, err := Run(context.Background(), specs, exec, Options{Workers: 2, Store: storeFor(t, cache), Gate: gate}); err != nil {
		t.Fatal(err)
	}
	if admitted != 3 || released != 3 {
		t.Fatalf("admitted/released = %d/%d, want 3/3", admitted, released)
	}
	// Second run: all hits, gate untouched.
	atomic.StoreInt32(&admitted, 0)
	_, stats, err := Run(context.Background(), specs, exec, Options{Workers: 2, Store: storeFor(t, cache), Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 3 {
		t.Fatalf("cache hits = %d, want 3", stats.CacheHits)
	}
	if admitted != 0 {
		t.Fatalf("gate admitted %d cache hits, want 0", admitted)
	}
}

// TestDrainSoftStops: closing Options.Drain finishes the in-flight trial,
// skips the rest, returns ErrDrained with partial results, and a rerun over
// the same grid resumes from the cache.
func TestDrainSoftStops(t *testing.T) {
	cache, err := fsstore.Open(t.TempDir(), "drain-test-v1")
	if err != nil {
		t.Fatal(err)
	}
	drain := make(chan struct{})
	firstDone := make(chan struct{})
	var once sync.Once
	var executed int32
	exec := func(ctx context.Context, spec int) (int, error) {
		atomic.AddInt32(&executed, 1)
		once.Do(func() { close(firstDone) })
		// The trial must complete even though the drain fires while it runs:
		// drains finish in-flight work.
		time.Sleep(30 * time.Millisecond)
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		return spec * 10, nil
	}
	go func() {
		<-firstDone
		close(drain)
	}()
	specs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	results, stats, err := Run(context.Background(), specs, exec, Options{
		Workers: 1, Store: storeFor(t, cache), Drain: drain,
	})
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("err = %v, want ErrDrained", err)
	}
	if stats.Executed == 0 || stats.Executed == len(specs) {
		t.Fatalf("executed = %d, want partial completion", stats.Executed)
	}
	if stats.Skipped != stats.Total-stats.Executed {
		t.Fatalf("skipped = %d, executed = %d, total = %d", stats.Skipped, stats.Executed, stats.Total)
	}
	for i := 0; i < stats.Executed; i++ {
		if results[i] != specs[i]*10 {
			t.Fatalf("completed slot %d = %d", i, results[i])
		}
	}

	// Resumption: the same grid now completes, serving the drained run's
	// work from the cache.
	atomic.StoreInt32(&executed, 0)
	results, stats, err = Run(context.Background(), specs, exec, Options{Workers: 1, Store: storeFor(t, cache)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits == 0 || stats.CacheHits+stats.Executed != len(specs) {
		t.Fatalf("resumed stats: %+v", stats)
	}
	for i, s := range specs {
		if results[i] != s*10 {
			t.Fatalf("resumed result[%d] = %d", i, results[i])
		}
	}
}

// TestDrainSkipsGateWaiters: trials parked at the admission gate when the
// drain fires are skipped — not failed — while the admitted one finishes.
func TestDrainSkipsGateWaiters(t *testing.T) {
	cache, err := fsstore.Open(t.TempDir(), "drain-gate-v1")
	if err != nil {
		t.Fatal(err)
	}
	drain := make(chan struct{})
	var slots = make(chan struct{}, 1) // single admission slot, never released during the test
	firstAdmitted := make(chan struct{})
	var once sync.Once
	gate := func(ctx context.Context, index int, key string) (func(), error) {
		select {
		case slots <- struct{}{}:
			once.Do(func() { close(firstAdmitted) })
			return func() {}, nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	exec := func(ctx context.Context, spec int) (int, error) {
		// Hold the slot until the drain has definitely fired.
		<-drain
		return spec * 10, nil
	}
	go func() {
		<-firstAdmitted
		time.Sleep(10 * time.Millisecond) // let another worker park at the gate
		close(drain)
	}()
	specs := []int{1, 2, 3, 4}
	results, stats, err := Run(context.Background(), specs, exec, Options{
		Workers: 2, Store: storeFor(t, cache), Gate: gate, Drain: drain, ContinueOnError: true,
	})
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("err = %v (stats %+v), want ErrDrained", err, stats)
	}
	if stats.Executed != 1 {
		t.Fatalf("executed = %d, want 1", stats.Executed)
	}
	if len(stats.Failures) != 0 {
		t.Fatalf("gate waiters recorded as failures: %+v", stats.Failures)
	}
	if stats.Skipped != 3 {
		t.Fatalf("skipped = %d, want 3", stats.Skipped)
	}
	// Either worker may win the single slot, so the admitted trial is not
	// necessarily index 0 — assert exactly one trial produced its result.
	admitted := 0
	for i, r := range results {
		if r == 0 {
			continue
		}
		if r != specs[i]*10 {
			t.Fatalf("results[%d] = %d, want %d", i, r, specs[i]*10)
		}
		admitted++
	}
	if admitted != 1 {
		t.Fatalf("admitted trials = %d (results %v), want 1", admitted, results)
	}
}

// TestDrainBeforeStartSkipsEverything: a drain that fires before any trial
// is dispatched yields all-skipped with ErrDrained, not an error storm.
func TestDrainBeforeStartSkipsEverything(t *testing.T) {
	drain := make(chan struct{})
	close(drain)
	exec := func(ctx context.Context, spec int) (int, error) {
		return 0, fmt.Errorf("must not run")
	}
	_, stats, err := Run(context.Background(), []int{1, 2, 3}, exec, Options{Workers: 2, Drain: drain})
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("err = %v", err)
	}
	if stats.Skipped != 3 || stats.Executed != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}
