package fsstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gurita/internal/cachestore"
	"gurita/internal/leakcheck"
)

const testSchema = "lease-test-v1"

var ctx = context.Background()

func mustOpen(t testing.TB, dir, owner string, mut ...func(*Config)) *Store {
	t.Helper()
	cfg := Config{Dir: dir, Owner: owner, Schema: testSchema, TTL: 200 * time.Millisecond}
	for _, f := range mut {
		f(&cfg)
	}
	s, err := OpenStore(cfg)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

// mustClaim claims key and requires the given outcome state.
func mustClaim(t *testing.T, s *Store, key string, want cachestore.LeaseState) cachestore.Lease {
	t.Helper()
	l, err := s.Claim(ctx, key)
	if err != nil {
		t.Fatalf("Claim(%s): %v", key, err)
	}
	if l.State != want {
		t.Fatalf("Claim(%s) = %+v, want state %v", key, l, want)
	}
	return l
}

// plant writes a raw lease file for key, bypassing the protocol.
func plant(t *testing.T, s *Store, key string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(s.leaseDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.leasePath(key), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// age rewinds the lease file's mtime. Liveness for seq-carrying records no
// longer reads mtimes, so this only drives the fallback path (legacy and
// foreign records) and Sweep.
func age(t *testing.T, s *Store, key string, by time.Duration) {
	t.Helper()
	past := time.Now().Add(-by)
	if err := os.Chtimes(s.leasePath(key), past, past); err != nil {
		t.Fatalf("Chtimes: %v", err)
	}
}

// warpClock installs a controllable clock on s and returns a function that
// advances it, so observation-based staleness tests move time instead of
// sleeping.
func warpClock(s *Store) func(time.Duration) {
	var mu sync.Mutex
	offset := time.Duration(0)
	s.clock = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return time.Now().Add(offset)
	}
	return func(d time.Duration) {
		mu.Lock()
		offset += d
		mu.Unlock()
	}
}

// sight performs the first Claim a peer makes against a held lease: the
// sighting that starts its staleness watch. It must come back busy.
func sight(t *testing.T, s *Store, key string) {
	t.Helper()
	mustClaim(t, s, key, cachestore.LeaseBusy)
}

func TestOpenValidates(t *testing.T) {
	dir := t.TempDir()
	cases := []Config{
		{Owner: "w", Schema: "s"},                                  // no dir
		{Dir: dir, Schema: "s"},                                    // no owner
		{Dir: dir, Owner: "w", Schema: ""},                         // no schema
		{Dir: dir, Owner: "a/b", Schema: "s"},                      // unsafe owner
		{Dir: dir, Owner: "a\x00b", Schema: "s"},                   // unsafe owner
		{Dir: dir, Owner: "w", Schema: "s", TTL: -time.Second},     // negative TTL
		{Dir: dir, Owner: "w", Schema: "s", Heartbeat: -1},         // negative heartbeat
		{Dir: dir, Owner: "w", Schema: "s", MaxAttempts: -1},       // negative budget
		{Dir: dir, Owner: "w", Schema: "s", Heartbeat: DefaultTTL}, // heartbeat == default TTL
		{Dir: dir, Owner: "w", Schema: "s", TTL: time.Second, Heartbeat: 2 * time.Second},
	}
	for i, cfg := range cases {
		if _, err := OpenStore(cfg); err == nil {
			t.Errorf("case %d: OpenStore(%+v) succeeded, want error", i, cfg)
		}
	}
	s := mustOpen(t, filepath.Join(dir, "sub"), "w1")
	if s.TTL() != 200*time.Millisecond || s.HeartbeatEvery() != s.TTL()/3 {
		t.Errorf("TTL = %v, heartbeat = %v", s.TTL(), s.HeartbeatEvery())
	}
	if _, err := os.Stat(filepath.Join(dir, "sub")); err != nil {
		t.Errorf("cache dir not created: %v", err)
	}
	// The leases/ subtree appears with the first claim, not at open, so a
	// store that never coordinates leaves the cache layout untouched.
	if _, err := os.Stat(s.leaseDir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("lease dir created at open: %v", err)
	}
}

func TestClaimAcquireReleaseCycle(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "w1")
	l := mustClaim(t, s, "k1", cachestore.LeaseAcquired)
	if l.Attempt != 1 || l.Reclaimed {
		t.Fatalf("first claim = %+v, want acquired attempt 1", l)
	}
	// The lease file exists and carries our identity plus a live sequence.
	rec, mtime, ok := s.readLease("k1")
	if !ok || mtime.IsZero() {
		t.Fatal("lease file unreadable after acquire")
	}
	if rec.Owner != "w1" || rec.Schema != testSchema || rec.Attempt != 1 {
		t.Fatalf("lease record = %+v", rec)
	}
	if rec.Seq == 0 {
		t.Fatalf("acquired lease has no sequence number: %+v", rec)
	}
	s.Release(ctx, "k1")
	if _, err := os.Stat(s.leasePath("k1")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("lease file survives Release: %v", err)
	}
	st := s.LeaseStats()
	if st.Acquired != 1 || st.Released != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Released leases are immediately re-claimable.
	mustClaim(t, s, "k1", cachestore.LeaseAcquired)
	s.Release(ctx, "k1")
}

func TestClaimBusyWhileFresh(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, dir, "w1")
	s2 := mustOpen(t, dir, "w2")
	mustClaim(t, s1, "k", cachestore.LeaseAcquired)
	l := mustClaim(t, s2, "k", cachestore.LeaseBusy)
	if l.Holder != "w1" {
		t.Errorf("holder = %q, want w1", l.Holder)
	}
	if l.Remaining <= 0 || l.Remaining > s2.TTL() {
		t.Errorf("remaining = %v, want within (0, TTL]", l.Remaining)
	}
	s1.Release(ctx, "k")
}

func TestReclaimStaleLease(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, dir, "w1")
	s2 := mustOpen(t, dir, "w2")
	advance := warpClock(s2)
	mustClaim(t, s1, "k", cachestore.LeaseAcquired)
	// w1 "dies": no renewals. w2 sights the lease, then watches the same
	// (owner, seq) pair sit unchanged past the TTL of its own clock.
	sight(t, s2, "k")
	advance(s2.TTL() + time.Second)
	l := mustClaim(t, s2, "k", cachestore.LeaseAcquired)
	if !l.Reclaimed || l.Attempt != 2 {
		t.Fatalf("reclaim = %+v, want acquired attempt 2 reclaimed", l)
	}
	rec, _, ok := s2.readLease("k")
	if !ok || rec.Owner != "w2" || rec.Attempt != 2 {
		t.Fatalf("post-reclaim record = %+v", rec)
	}
	if s2.LeaseStats().Reclaimed != 1 {
		t.Errorf("reclaimed stat = %d", s2.LeaseStats().Reclaimed)
	}
	s2.Release(ctx, "k")
}

func TestReclaimUnparsableLease(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "w1")
	plant(t, s, "k", []byte("{torn"))
	age(t, s, "k", s.TTL()+time.Second)
	// One unknown prior attempt assumed.
	if l := mustClaim(t, s, "k", cachestore.LeaseAcquired); l.Attempt != 2 {
		t.Fatalf("claim = %+v, want acquired attempt 2", l)
	}
	s.Release(ctx, "k")
}

func TestForeignSchemaLeaseReclaimableWhenStale(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "w1")
	old, _ := json.Marshal(record{Schema: "other-schema", Key: "k", Owner: "ghost", Attempt: 4})
	plant(t, s, "k", old)
	// Fresh foreign lease: still busy (mtime rules).
	mustClaim(t, s, "k", cachestore.LeaseBusy)
	age(t, s, "k", s.TTL()+time.Second)
	// Foreign attempts don't count toward our budget: restart at 2.
	if l := mustClaim(t, s, "k", cachestore.LeaseAcquired); l.Attempt != 2 {
		t.Fatalf("stale foreign lease claim = %+v, want acquired attempt 2", l)
	}
	s.Release(ctx, "k")
}

func TestPoisonAfterMaxAttempts(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "w1", func(c *Config) { c.MaxAttempts = 3 })
	advance := warpClock(s)
	// Simulate a crash loop: claim, watch the seq go silent, reclaim, never
	// release. Each cycle needs a sighting plus a TTL of observed silence.
	mustClaim(t, s, "k", cachestore.LeaseAcquired)
	for want := 2; want <= 3; want++ {
		sight(t, s, "k")
		advance(s.TTL() + time.Second)
		if l := mustClaim(t, s, "k", cachestore.LeaseAcquired); l.Attempt != want {
			t.Fatalf("attempt %d claim = %+v", want, l)
		}
	}
	sight(t, s, "k")
	advance(s.TTL() + time.Second)
	l := mustClaim(t, s, "k", cachestore.LeasePoisoned)
	if l.Poison == nil || l.Poison.Attempts != 3 {
		t.Fatalf("poison record = %+v", l.Poison)
	}
	// Lease file is gone; poison marker persists across stores.
	if _, err := os.Stat(s.leasePath("k")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("lease file survives poisoning: %v", err)
	}
	mustClaim(t, mustOpen(t, dir, "w2"), "k", cachestore.LeasePoisoned)
}

func TestPoisonTrialExplicit(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "w1")
	mustClaim(t, s, "k", cachestore.LeaseAcquired)
	if err := s.PoisonKey(ctx, "k", "abcd1234", 3, errors.New("deterministic trial failure")); err != nil {
		t.Fatalf("PoisonKey: %v", err)
	}
	l := mustClaim(t, s, "k", cachestore.LeasePoisoned)
	if l.Poison.SpecHash != "abcd1234" || l.Poison.Attempts != 3 {
		t.Fatalf("poison record = %+v", l.Poison)
	}
	if !strings.Contains(l.Poison.Err, "deterministic trial failure") {
		t.Errorf("poison err = %q", l.Poison.Err)
	}
	if _, err := os.Stat(s.leasePath("k")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("lease survives PoisonKey: %v", err)
	}
}

func TestForeignSchemaPoisonIgnored(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "w1")
	old, _ := json.Marshal(cachestore.Poison{Schema: "other", Key: "k", Attempts: 9, Err: "ancient"})
	if err := os.MkdirAll(s.leaseDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.poisonPath("k"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	mustClaim(t, s, "k", cachestore.LeaseAcquired)
	if _, err := os.Stat(s.poisonPath("k")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("foreign poison marker not cleaned up: %v", err)
	}
	s.Release(ctx, "k")
}

func TestHeartbeatKeepsLeaseFresh(t *testing.T) {
	snap := leakcheck.Take()
	defer snap.Check(t) // Stop must join the heartbeat goroutine
	dir := t.TempDir()
	s1 := mustOpen(t, dir, "w1", func(c *Config) {
		c.TTL = 300 * time.Millisecond
		c.Heartbeat = 50 * time.Millisecond
	})
	s2 := mustOpen(t, dir, "w2", func(c *Config) { c.TTL = 300 * time.Millisecond })
	mustClaim(t, s1, "k", cachestore.LeaseAcquired)
	hb := cachestore.StartHeartbeat(ctx, s1, "k")
	sight(t, s2, "k")
	// Wait well past the TTL: without heartbeats the peer's sighting would
	// have gone stale and its next claim would reclaim.
	time.Sleep(600 * time.Millisecond)
	if l := mustClaim(t, s2, "k", cachestore.LeaseBusy); l.Holder != "w1" {
		t.Fatalf("peer claim during heartbeat = %+v, want busy held by w1", l)
	}
	hb.Stop()
	s1.Release(ctx, "k")
	if hb.Lost() || s1.LeaseStats().Lost != 0 {
		t.Error("heartbeat reports lost despite continuous renewal")
	}
}

// TestHeartbeatStopsOnContextCancel: cancelling the context handed to
// StartHeartbeat stops the heartbeat goroutine on its own, before any Stop,
// and with it the renewals.
func TestHeartbeatStopsOnContextCancel(t *testing.T) {
	snap := leakcheck.Take()
	s := mustOpen(t, t.TempDir(), "w1", func(c *Config) { c.Heartbeat = 20 * time.Millisecond })
	mustClaim(t, s, "k", cachestore.LeaseAcquired)
	hbCtx, cancel := context.WithCancel(ctx)
	hb := cachestore.StartHeartbeat(hbCtx, s, "k")
	cancel()
	snap.Check(t) // the goroutine exits without a Stop
	rec0, ok := s.ownLease("k")
	if !ok {
		t.Fatal("lease unreadable after cancel")
	}
	time.Sleep(3 * s.HeartbeatEvery())
	if rec, ok := s.ownLease("k"); !ok || rec.Seq != rec0.Seq {
		t.Fatalf("lease renewed after cancel: seq %d -> %d (ok=%v)", rec0.Seq, rec.Seq, ok)
	}
	hb.Stop()
	if hb.Lost() {
		t.Error("cancelled heartbeat reports a lost lease")
	}
	s.Release(ctx, "k")
}

// TestHeartbeatDetectsTakeover pins the takeover bookkeeping the conformance
// suite leaves to each backend: the heartbeat's renewal discovers the
// takeover and ends its loop, a later renewal short-circuits without
// touching the usurper's record, a lost Release leaves the usurper's lease in
// place, and the loss is counted exactly once.
func TestHeartbeatDetectsTakeover(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, dir, "w1", func(c *Config) {
		c.TTL = 10 * time.Second
		c.Heartbeat = 20 * time.Millisecond
	})
	s2 := mustOpen(t, dir, "w2", func(c *Config) { c.TTL = 10 * time.Second })
	mustClaim(t, s1, "k", cachestore.LeaseAcquired)
	// From the peer's point of view our process is SIGSTOPped: it sights the
	// lease, the (owner, seq) pair never changes, and a TTL later it
	// force-reclaims.
	advance := warpClock(s2)
	sight(t, s2, "k")
	advance(11 * time.Second)
	if l := mustClaim(t, s2, "k", cachestore.LeaseAcquired); !l.Reclaimed {
		t.Fatalf("forced reclaim = %+v", l)
	}
	snap := leakcheck.Take()
	hb := cachestore.StartHeartbeat(ctx, s1, "k")
	for deadline := time.Now().Add(2 * time.Second); !hb.Lost(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never detected the takeover")
		}
	}
	snap.Check(t) // a lost heartbeat ends its loop without a Stop
	hb.Stop()
	if err := s1.Renew(ctx, "k"); !errors.Is(err, cachestore.ErrLeaseLost) {
		t.Fatalf("Renew after takeover = %v, want ErrLeaseLost", err)
	}
	if rec, ok := s2.ownLease("k"); !ok {
		t.Fatalf("usurper lease disturbed: %+v", rec)
	}
	s1.Release(ctx, "k")
	if _, ok := s2.ownLease("k"); !ok {
		t.Fatal("lost holder's Release removed the usurper's lease")
	}
	if s1.LeaseStats().Lost != 1 {
		t.Errorf("lost stat = %d, want 1 (loss counted once)", s1.LeaseStats().Lost)
	}
	s2.Release(ctx, "k")
}

func TestConcurrentClaimSingleWinner(t *testing.T) {
	dir := t.TempDir()
	const workers = 8
	stores := make([]*Store, workers)
	for i := range stores {
		stores[i] = mustOpen(t, dir, fmt.Sprintf("w%d", i))
	}
	for round := 0; round < 20; round++ {
		key := fmt.Sprintf("k%d", round)
		var mu sync.Mutex
		var winners []*Store
		var wg sync.WaitGroup
		for _, s := range stores {
			wg.Add(1)
			go func(s *Store) {
				defer wg.Done()
				l, err := s.Claim(ctx, key)
				if err != nil {
					t.Errorf("Claim: %v", err)
					return
				}
				if l.State == cachestore.LeaseAcquired {
					mu.Lock()
					winners = append(winners, s)
					mu.Unlock()
				}
			}(s)
		}
		wg.Wait()
		if len(winners) != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1 (O_EXCL arbitration)", round, len(winners))
		}
		winners[0].Release(ctx, key)
	}
}

func TestSweepRemovesOnlyStaleLeases(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "w1")
	mustClaim(t, s, "stale", cachestore.LeaseAcquired)
	mustClaim(t, s, "fresh", cachestore.LeaseAcquired)
	age(t, s, "stale", s.TTL()+time.Second)
	if removed := s.Sweep(ctx, []string{"stale", "fresh", "absent"}); removed != 1 {
		t.Fatalf("Sweep removed %d, want 1", removed)
	}
	if _, err := os.Stat(s.leasePath("stale")); !errors.Is(err, os.ErrNotExist) {
		t.Error("stale lease survived sweep")
	}
	if _, err := os.Stat(s.leasePath("fresh")); err != nil {
		t.Errorf("fresh lease swept: %v", err)
	}
	s.Release(ctx, "fresh")
}

// countingRegistry is a minimal Counters for asserting emission.
type countingRegistry struct {
	mu sync.Mutex
	m  map[string]int64
}

func (r *countingRegistry) Add(name string, d int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = map[string]int64{}
	}
	r.m[name] += d
}

func TestCountersEmitted(t *testing.T) {
	dir := t.TempDir()
	reg := &countingRegistry{}
	s := mustOpen(t, dir, "w1", func(c *Config) { c.Counters = reg })
	mustClaim(t, s, "a", cachestore.LeaseAcquired)
	s.Release(ctx, "a")
	mustClaim(t, s, "b", cachestore.LeaseAcquired)
	s2 := mustOpen(t, dir, "w2", func(c *Config) { c.Counters = reg })
	advance := warpClock(s2)
	sight(t, s2, "b")
	advance(s2.TTL() + time.Second)
	if l := mustClaim(t, s2, "b", cachestore.LeaseAcquired); !l.Reclaimed {
		t.Fatal("setup: reclaim failed")
	}
	s2.Release(ctx, "b")

	reg.mu.Lock()
	defer reg.mu.Unlock()
	want := map[string]int64{"lease.acquired": 2, "lease.released": 2, "lease.reclaimed": 1}
	for k, v := range want {
		if reg.m[k] != v {
			t.Errorf("counter %s = %d, want %d", k, reg.m[k], v)
		}
	}
}

// TestRenewBumpsSeq: every renewal rewrites the record with a larger sequence
// number — the signal observers use to tell a live holder from a dead one.
func TestRenewBumpsSeq(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "w1")
	mustClaim(t, s, "k", cachestore.LeaseAcquired)
	rec0, _, ok := s.readLease("k")
	if !ok || rec0.Seq == 0 {
		t.Fatalf("initial record = %+v ok=%v", rec0, ok)
	}
	for i := 0; i < 3; i++ {
		if err := s.Renew(ctx, "k"); err != nil {
			t.Fatalf("Renew %d: %v", i, err)
		}
		rec, _, ok := s.readLease("k")
		if !ok {
			t.Fatalf("record unreadable after renew %d", i)
		}
		if rec.Seq <= rec0.Seq {
			t.Fatalf("renew %d: seq %d did not advance past %d", i, rec.Seq, rec0.Seq)
		}
		if rec.Owner != "w1" || rec.Attempt != rec0.Attempt {
			t.Fatalf("renew %d mutated identity: %+v", i, rec)
		}
		rec0 = rec
	}
	s.Release(ctx, "k")
}

// TestLazyTimestampSafety: on a filesystem that never updates mtimes (the
// record looks ancient forever), a holder whose sequence numbers keep
// advancing must never be reclaimed. This is the hole mtime-based liveness
// had and the reason liveness now watches (owner, seq) pairs.
func TestLazyTimestampSafety(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, dir, "w1", func(c *Config) {
		c.TTL = 400 * time.Millisecond
		c.Heartbeat = 25 * time.Millisecond
	})
	s2 := mustOpen(t, dir, "w2", func(c *Config) { c.TTL = 400 * time.Millisecond })
	mustClaim(t, s1, "k", cachestore.LeaseAcquired)
	hb := cachestore.StartHeartbeat(ctx, s1, "k")
	// Sabotage the mtime after every beat window, simulating a filesystem
	// with lazy (or frozen) timestamps, while a peer keeps trying to claim.
	deadline := time.Now().Add(1200 * time.Millisecond)
	for time.Now().Before(deadline) {
		past := time.Now().Add(-time.Hour)
		// Ignore races with the heartbeat's atomic rewrite: the file may be
		// mid-rename, and a miss just means the record keeps its fresh mtime.
		_ = os.Chtimes(s1.leasePath("k"), past, past)
		if l := mustClaim(t, s2, "k", cachestore.LeaseBusy); l.Holder != "w1" {
			t.Fatalf("peer claim = %+v: ancient mtime must not outrank advancing seq", l)
		}
		time.Sleep(50 * time.Millisecond)
	}
	hb.Stop()
	s1.Release(ctx, "k")
	if hb.Lost() || s1.LeaseStats().Lost != 0 {
		t.Error("holder lost lease despite continuous heartbeat")
	}
}

// TestLegacySeqlessLeaseMtimeFallback: lease records written before sequence
// numbers existed carry no seq field; liveness for those falls back to the
// mtime hint so old campaigns still resume.
func TestLegacySeqlessLeaseMtimeFallback(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "w1")
	legacy, _ := json.Marshal(record{Schema: testSchema, Key: "k", Owner: "ghost", Attempt: 2})
	if strings.Contains(string(legacy), "seq") {
		t.Fatalf("legacy record marshals a seq field: %s", legacy)
	}
	plant(t, s, "k", legacy)
	// Fresh legacy lease: busy, holder reported.
	if l := mustClaim(t, s, "k", cachestore.LeaseBusy); l.Holder != "ghost" {
		t.Fatalf("fresh legacy claim = %+v, want busy held by ghost", l)
	}
	// Aged legacy lease: reclaimable by mtime alone, attempts inherited.
	age(t, s, "k", s.TTL()+time.Second)
	if l := mustClaim(t, s, "k", cachestore.LeaseAcquired); !l.Reclaimed || l.Attempt != 3 {
		t.Fatalf("stale legacy claim = %+v, want acquired attempt 3 reclaimed", l)
	}
	s.Release(ctx, "k")
}

func TestStatsMatchCounters(t *testing.T) {
	reg := &countingRegistry{}
	s := mustOpen(t, t.TempDir(), "w1", func(c *Config) { c.Counters = reg })
	mustClaim(t, s, "x", cachestore.LeaseAcquired)
	s.Release(ctx, "x")
	st := s.LeaseStats()
	if st.Acquired != 1 || st.Released != 1 || st.Reclaimed != 0 || st.Lost != 0 || st.Poisoned != 0 {
		t.Errorf("stats = %+v", st)
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.m["lease.acquired"] != st.Acquired || reg.m["lease.released"] != st.Released {
		t.Errorf("counters %v disagree with stats %+v", reg.m, st)
	}
}

// BenchmarkLeaseClaim measures the uncontended acquire+release cycle — the
// cost lease mode adds to every *executed* trial (warm-cache trials never
// reach the lease layer). Pinned in BENCH_baseline.json.
func BenchmarkLeaseClaim(b *testing.B) {
	s, err := OpenStore(Config{Dir: b.TempDir(), Owner: "bench", Schema: "bench-v1", TTL: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("%016x", i)
		l, err := s.Claim(ctx, key)
		if err != nil {
			b.Fatal(err)
		}
		if l.State != cachestore.LeaseAcquired {
			b.Fatalf("state = %v", l.State)
		}
		s.Release(ctx, key)
	}
}
