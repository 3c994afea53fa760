// Package memstore is the in-process cachestore backend: maps behind a
// mutex, no filesystem, no network. It exists for tests (including the
// backend conformance suite) and for single-shot runs that want the runner's
// cache/lease code paths without persisting anything.
//
// Semantics mirror the other backends exactly — verified envelopes,
// quarantine on corruption, lease arbitration with attempt budgets and
// poison records — so a campaign wired against memstore exercises the same
// logic it would against a shared directory or a remote daemon. Lease expiry
// uses this process's wall clock, which is trivially "server-authoritative":
// there is only one clock.
package memstore

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gurita/internal/cachestore"
)

// Config parameterizes a Store.
type Config struct {
	// Schema versions entries, leases, and poison markers.
	Schema string
	// Owner is this handle's lease identity.
	Owner string
	// TTL / Heartbeat / MaxAttempts tune the lease protocol; zero values take
	// the same defaults as the filesystem store (5s TTL, TTL/3 heartbeat, 5
	// attempts).
	TTL         time.Duration
	Heartbeat   time.Duration
	MaxAttempts int
	// Counters, when non-nil, receives the store's operational counters.
	Counters cachestore.Counters
}

// Store is one owner's handle on an in-memory backing store. Safe for
// concurrent use. Open creates a fresh backing store; WithOwner returns a
// peer handle sharing it, the in-memory analogue of a second worker process
// opening the same cache directory.
type Store struct {
	schema      string
	owner       string
	ttl         time.Duration
	heartbeat   time.Duration
	maxAttempts int
	counters    cachestore.Counters

	st *state

	acquired  atomic.Int64
	reclaimed atomic.Int64
	lost      atomic.Int64
	released  atomic.Int64
	poisoned  atomic.Int64
}

// state is the backing store all handles share.
type state struct {
	mu          sync.Mutex
	entries     map[string][]byte // key -> envelope bytes
	quarantined map[string][]byte // key -> envelope bytes moved aside
	leases      map[string]*memLease
	poisons     map[string]*cachestore.Poison
	manifests   map[string][]byte

	// clock overrides the wall clock in tests; nil means time.Now.
	clock func() time.Time
}

// memLease is one held lease: owner identity plus the deadline after which
// any peer may reclaim. Renewals push the deadline; there is no sequence
// number because a single process's clock cannot lie to itself.
type memLease struct {
	owner   string
	attempt int
	expires time.Time
}

var (
	_ cachestore.Store         = (*Store)(nil)
	_ cachestore.LeaseStore    = (*Store)(nil)
	_ cachestore.ManifestStore = (*Store)(nil)
)

// Open returns an empty in-memory store.
func Open(cfg Config) (*Store, error) {
	if cfg.Schema == "" {
		return nil, fmt.Errorf("memstore: Config.Schema must not be empty")
	}
	if cfg.Owner == "" {
		return nil, fmt.Errorf("memstore: Config.Owner must not be empty")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 5 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.TTL / 3
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 5
	}
	return &Store{
		schema:      cfg.Schema,
		owner:       cfg.Owner,
		ttl:         cfg.TTL,
		heartbeat:   cfg.Heartbeat,
		maxAttempts: cfg.MaxAttempts,
		counters:    cfg.Counters,
		st: &state{
			entries:     make(map[string][]byte),
			quarantined: make(map[string][]byte),
			leases:      make(map[string]*memLease),
			poisons:     make(map[string]*cachestore.Poison),
			manifests:   make(map[string][]byte),
		},
	}, nil
}

// WithOwner returns a peer handle on the same backing store under a
// different lease identity: same entries, leases, poisons, and manifests,
// separate lease-stats counters — exactly what a second worker process gets
// when it opens a shared cache directory.
func (s *Store) WithOwner(owner string) (*Store, error) {
	if owner == "" {
		return nil, fmt.Errorf("memstore: owner must not be empty")
	}
	return &Store{
		schema:      s.schema,
		owner:       owner,
		ttl:         s.ttl,
		heartbeat:   s.heartbeat,
		maxAttempts: s.maxAttempts,
		counters:    s.counters,
		st:          s.st,
	}, nil
}

// now is the lease clock. Leases coordinate concurrent claimants, not
// simulations: no trial result ever reads these timestamps.
//
//lint:ignore nondetsource lease expiry is wall-clock coordination between claimants; trial results never depend on it
func (s *Store) now() time.Time {
	if s.st.clock != nil {
		return s.st.clock()
	}
	//lint:ignore nondetsource lease expiry is wall-clock coordination between processes; trial results never depend on it
	return time.Now()
}

func (s *Store) count(name string) {
	if s.counters != nil {
		s.counters.Add(name, 1)
	}
}

// Schema returns the schema version entries are validated against.
func (s *Store) Schema() string { return s.schema }

// Get returns the verified cached result for key. Corrupt entries are
// quarantined and read as misses; foreign-schema entries are plain misses.
func (s *Store) Get(_ context.Context, key string) (json.RawMessage, bool) {
	s.st.mu.Lock()
	data, ok := s.st.entries[key]
	s.st.mu.Unlock()
	if !ok {
		return nil, false
	}
	var e cachestore.Entry
	if err := json.Unmarshal(data, &e); err != nil {
		s.quarantineLocked(key)
		return nil, false
	}
	if e.Schema != s.schema || e.ResultSHA == "" {
		return nil, false
	}
	if e.Verify(key) != nil {
		s.quarantineLocked(key)
		return nil, false
	}
	return e.Result, true
}

// Put persists a finished trial. Racing writers are safe: every writer of a
// key produces byte-identical envelopes, so last-write-wins is a no-op.
func (s *Store) Put(_ context.Context, key string, spec, result json.RawMessage) error {
	if len(key) < 3 {
		return fmt.Errorf("memstore: cache key %q too short", key)
	}
	e, err := cachestore.NewEntry(s.schema, key, spec, result)
	if err != nil {
		return fmt.Errorf("memstore: hashing cache result: %w", err)
	}
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return fmt.Errorf("memstore: encoding cache entry: %w", err)
	}
	s.st.mu.Lock()
	s.st.entries[key] = data
	s.st.mu.Unlock()
	return nil
}

// Stat reports whether an entry exists for key.
func (s *Store) Stat(_ context.Context, key string) bool {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	_, ok := s.st.entries[key]
	return ok
}

// Quarantine preserves the entry for key as corruption evidence.
func (s *Store) Quarantine(_ context.Context, key string) error {
	s.quarantineLocked(key)
	return nil
}

func (s *Store) quarantineLocked(key string) {
	s.st.mu.Lock()
	data, ok := s.st.entries[key]
	if ok {
		delete(s.st.entries, key)
		s.st.quarantined[key] = data
	}
	s.st.mu.Unlock()
	if ok {
		s.count("runner.cache.quarantined")
	}
}

// QuarantineLen reports how many entries have been moved aside — the
// in-memory analogue of counting files under quarantine/.
func (s *Store) QuarantineLen() int {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return len(s.st.quarantined)
}

// Len counts stored entries. Bookkeeping (leases, poisons, manifests,
// quarantine) lives in separate maps, so the predicate is structural here.
func (s *Store) Len(_ context.Context) int {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return len(s.st.entries)
}

// Corrupt flips bytes inside the stored envelope for key, for corruption
// tests. Reports whether an entry existed.
func (s *Store) Corrupt(key string) bool {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	data, ok := s.st.entries[key]
	if !ok {
		return false
	}
	mangled := []byte(`{"schema":`) // valid JSON prefix, torn tail
	s.st.entries[key] = append(mangled, data[:len(data)/2]...)
	return true
}

// Owner returns the lease identity.
func (s *Store) Owner() string { return s.owner }

// TTL returns the lease staleness threshold.
func (s *Store) TTL() time.Duration { return s.ttl }

// HeartbeatEvery returns the lease renewal period.
func (s *Store) HeartbeatEvery() time.Duration { return s.heartbeat }

// Claim attempts to take the lease for key. Expiry is judged on this
// process's clock — the only clock there is.
func (s *Store) Claim(_ context.Context, key string) (cachestore.Lease, error) {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	if p, ok := s.st.poisons[key]; ok {
		return cachestore.Lease{State: cachestore.LeasePoisoned, Poison: p}, nil
	}
	now := s.now()
	l, held := s.st.leases[key]
	if held && now.Before(l.expires) {
		return cachestore.Lease{
			State:     cachestore.LeaseBusy,
			Holder:    l.owner,
			Remaining: l.expires.Sub(now),
		}, nil
	}
	attempt := 1
	reclaimed := false
	if held {
		attempt = l.attempt + 1
		reclaimed = true
		if s.maxAttempts > 0 && attempt > s.maxAttempts {
			p := &cachestore.Poison{
				Schema:   s.schema,
				Key:      key,
				Attempts: attempt - 1,
				Err:      fmt.Sprintf("memstore: trial reclaimed %d times without completing (worker crash loop)", attempt-1),
			}
			s.st.poisons[key] = p
			delete(s.st.leases, key)
			s.poisoned.Add(1)
			s.count("lease.poisoned")
			return cachestore.Lease{State: cachestore.LeasePoisoned, Poison: p}, nil
		}
	}
	s.st.leases[key] = &memLease{owner: s.owner, attempt: attempt, expires: now.Add(s.ttl)}
	if reclaimed {
		s.reclaimed.Add(1)
		s.count("lease.reclaimed")
	} else {
		s.acquired.Add(1)
		s.count("lease.acquired")
	}
	return cachestore.Lease{State: cachestore.LeaseAcquired, Attempt: attempt, Reclaimed: reclaimed}, nil
}

// Renew extends the acquired lease on key by one TTL.
func (s *Store) Renew(_ context.Context, key string) error {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	l, ok := s.st.leases[key]
	if !ok || l.owner != s.owner {
		s.lost.Add(1)
		s.count("lease.lost")
		return cachestore.ErrLeaseLost
	}
	l.expires = s.now().Add(s.ttl)
	return nil
}

// Release ends the acquired lease on key; a usurper's lease is left alone.
func (s *Store) Release(_ context.Context, key string) {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	l, ok := s.st.leases[key]
	if !ok || l.owner != s.owner {
		return
	}
	delete(s.st.leases, key)
	s.released.Add(1)
	s.count("lease.released")
}

// PoisonKey quarantines the claimed trial and releases the lease.
func (s *Store) PoisonKey(_ context.Context, key, specHash string, attempts int, cause error) error {
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	s.st.mu.Lock()
	s.st.poisons[key] = &cachestore.Poison{
		Schema:   s.schema,
		Key:      key,
		SpecHash: specHash,
		Attempts: attempts,
		Err:      msg,
	}
	if l, ok := s.st.leases[key]; ok && l.owner == s.owner {
		delete(s.st.leases, key)
		s.released.Add(1)
		s.count("lease.released")
	}
	s.st.mu.Unlock()
	s.poisoned.Add(1)
	s.count("lease.poisoned")
	return nil
}

// Sweep removes expired leases among the given keys.
func (s *Store) Sweep(_ context.Context, keys []string) int {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	now := s.now()
	removed := 0
	for _, key := range keys {
		if l, ok := s.st.leases[key]; ok && !now.Before(l.expires) {
			delete(s.st.leases, key)
			removed++
		}
	}
	return removed
}

// LeaseCount reports how many leases are currently held (expired or not) —
// the in-memory analogue of counting lease files.
func (s *Store) LeaseCount() int {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return len(s.st.leases)
}

// LeaseStats snapshots the lifetime counters.
func (s *Store) LeaseStats() cachestore.LeaseStats {
	return cachestore.LeaseStats{
		Acquired:  s.acquired.Load(),
		Reclaimed: s.reclaimed.Load(),
		Lost:      s.lost.Load(),
		Released:  s.released.Load(),
		Poisoned:  s.poisoned.Load(),
	}
}

// PutManifest stores (or overwrites) the named manifest shard.
func (s *Store) PutManifest(_ context.Context, name string, data []byte) error {
	if name == "" {
		return fmt.Errorf("memstore: manifest name must not be empty")
	}
	s.st.mu.Lock()
	s.st.manifests[name] = append([]byte(nil), data...)
	s.st.mu.Unlock()
	return nil
}

// Manifests returns the stored shard names in sorted order.
func (s *Store) Manifests(_ context.Context) ([]string, error) {
	s.st.mu.Lock()
	names := make([]string, 0, len(s.st.manifests))
	for name := range s.st.manifests {
		names = append(names, name)
	}
	s.st.mu.Unlock()
	sort.Strings(names)
	return names, nil
}

// GetManifest returns the named shard's bytes.
func (s *Store) GetManifest(_ context.Context, name string) ([]byte, bool) {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	data, ok := s.st.manifests[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}
