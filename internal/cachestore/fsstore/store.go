package fsstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gurita/internal/cachestore"
)

// Config parameterizes a Store.
type Config struct {
	// Dir is the shared cache root. Created if absent.
	Dir string
	// Schema versions entries, leases, and poison markers.
	Schema string
	// Owner is this process's lease identity, stamped into every lease it
	// takes. It must be unique across live workers sharing Dir (host-pid
	// works) and filename-safe.
	Owner string
	// TTL is the staleness threshold: a lease whose (owner, seq) pair has
	// been observed unchanged for longer than TTL may be reclaimed by any
	// peer. 0 means DefaultTTL.
	TTL time.Duration
	// Heartbeat is the renewal period; it must be shorter than TTL or a busy
	// worker looks dead. 0 means TTL/3.
	Heartbeat time.Duration
	// MaxAttempts bounds how many times a trial may be claimed across all
	// workers before it is poisoned (quarantined). 0 means
	// DefaultMaxAttempts.
	MaxAttempts int
	// Counters, when non-nil, receives the store's operational counters
	// (runner.cache.* and lease.*).
	Counters cachestore.Counters
}

// Default lease timing. TTL trades reclaim latency against false takeovers
// under scheduler stalls; both are safe (duplicates publish identical
// bytes), so the default leans toward fast recovery.
const (
	DefaultTTL         = 5 * time.Second
	DefaultMaxAttempts = 5
)

// Store is one process's handle on one shared cache root: the entry Cache,
// the lease protocol over <dir>/leases/ (see lease.go), and the manifests/
// subtree, behind the cachestore interfaces. It is safe for concurrent use.
type Store struct {
	cache    *Cache
	cfg      Config // validated, defaults applied
	leaseDir string

	// clock overrides the wall clock in tests; nil means time.Now.
	clock func() time.Time

	mu sync.Mutex
	// obs tracks busy peers' (owner, seq) sightings per key, the basis of
	// the mtime-free staleness judgment.
	obs map[string]observation
	// held maps every key this handle holds a lease on to whether a renewal
	// or release has found it taken over by a peer. Campaign grids
	// deduplicate keys and the protocol admits one holder per key, so one
	// hold per key per handle is an invariant, not a limitation.
	held map[string]bool

	acquired  atomic.Int64
	reclaimed atomic.Int64
	lost      atomic.Int64
	released  atomic.Int64
	poisoned  atomic.Int64
}

var (
	_ cachestore.Store         = (*Store)(nil)
	_ cachestore.LeaseStore    = (*Store)(nil)
	_ cachestore.ManifestStore = (*Store)(nil)
)

// OpenStore validates cfg and opens (creating if needed) the filesystem
// store at cfg.Dir. The leases/ subtree is created on the first claim, so a
// store that never coordinates leaves the cache layout untouched.
func OpenStore(cfg Config) (*Store, error) {
	if cfg.Owner == "" {
		return nil, errors.New("fsstore: Config.Owner must not be empty")
	}
	if strings.ContainsAny(cfg.Owner, "/\x00") {
		return nil, fmt.Errorf("fsstore: owner %q must be filename-safe", cfg.Owner)
	}
	if cfg.TTL < 0 || cfg.Heartbeat < 0 || cfg.MaxAttempts < 0 {
		return nil, fmt.Errorf("fsstore: lease TTL (%v), heartbeat (%v), and max attempts (%d) must be >= 0", cfg.TTL, cfg.Heartbeat, cfg.MaxAttempts)
	}
	if cfg.TTL == 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.Heartbeat >= cfg.TTL {
		// Peers would see an unchanged (owner, seq) pair for a full TTL and
		// reclaim a live worker's leases.
		return nil, fmt.Errorf("fsstore: lease heartbeat (%v) must renew faster than the TTL (%v) expires", cfg.Heartbeat, cfg.TTL)
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = cfg.TTL / 3
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	c, err := Open(cfg.Dir, cfg.Schema)
	if err != nil {
		return nil, err
	}
	c.Counters = cfg.Counters
	return &Store{
		cache:    c,
		cfg:      cfg,
		leaseDir: filepath.Join(cfg.Dir, cachestore.LeaseSubdir),
		obs:      make(map[string]observation),
		held:     make(map[string]bool),
	}, nil
}

// Schema returns the schema version entries are validated against.
func (s *Store) Schema() string { return s.cache.Schema() }

// Get returns the verified cached result for key; see Cache.Get.
func (s *Store) Get(_ context.Context, key string) (json.RawMessage, bool) {
	return s.cache.Get(key)
}

// Put persists a finished trial atomically and durably; see Cache.Put.
func (s *Store) Put(_ context.Context, key string, spec, result json.RawMessage) error {
	return s.cache.Put(key, spec, result)
}

// Stat reports whether an entry file exists for key.
func (s *Store) Stat(_ context.Context, key string) bool { return s.cache.Stat(key) }

// Quarantine preserves the entry for key as corruption evidence.
func (s *Store) Quarantine(_ context.Context, key string) error {
	return s.cache.QuarantineKey(key)
}

// Len counts stored entries, excluding bookkeeping subtrees.
func (s *Store) Len(_ context.Context) int { return s.cache.Len() }

// PutManifest atomically writes (or overwrites) the named manifest shard.
func (s *Store) PutManifest(_ context.Context, name string, data []byte) error {
	return PutManifestFile(s.cache.Dir(), name, data)
}

// Manifests returns the stored shard names in sorted order.
func (s *Store) Manifests(_ context.Context) ([]string, error) {
	return ListManifests(s.cache.Dir())
}

// GetManifest returns the named shard's bytes.
func (s *Store) GetManifest(_ context.Context, name string) ([]byte, bool) {
	return GetManifestFile(s.cache.Dir(), name)
}

// PutManifestFile atomically writes (or overwrites) a manifest shard under
// <cacheDir>/manifests/. Package-level so the cachehttp server shares the
// exact write protocol without opening a Store.
func PutManifestFile(cacheDir, name string, data []byte) error {
	if err := ValidManifestName(name); err != nil {
		return err
	}
	return WriteFileAtomic(filepath.Join(cacheDir, cachestore.ManifestSubdir), name, data)
}

// ListManifests returns the shard names under <cacheDir>/manifests/ in
// sorted order. Atomic-write temp files (dot-prefixed) are excluded.
func ListManifests(cacheDir string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(cacheDir, cachestore.ManifestSubdir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fsstore: reading manifest dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// GetManifestFile returns the named shard's bytes from <cacheDir>/manifests/.
func GetManifestFile(cacheDir, name string) ([]byte, bool) {
	if ValidManifestName(name) != nil {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(cacheDir, cachestore.ManifestSubdir, name))
	if err != nil {
		return nil, false
	}
	return data, true
}

// ValidManifestName rejects names that could escape the manifests/ subtree
// or collide with atomic-write temp files.
func ValidManifestName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\\x00") || strings.HasPrefix(name, ".") {
		return fmt.Errorf("fsstore: manifest name %q must be a plain filename", name)
	}
	return nil
}
