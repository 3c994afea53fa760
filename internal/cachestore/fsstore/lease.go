package fsstore

// The lease protocol coordinates trial execution across worker processes
// that share nothing but the cache directory: crash-safe lease files make
// "who is executing this trial" a property of the filesystem, so a
// SIGKILLed worker loses its claims instead of taking them to the grave.
//
// The protocol is deliberately primitive — no daemon, no network, no clock
// service — because the campaign layer above it is idempotent: every trial
// is a pure function of its spec, results are published by atomic rename
// into a content-addressed cache, and two workers that accidentally execute
// the same trial publish byte-identical files. Leases therefore only have to
// make duplicate execution *rare*, never impossible; correctness (exactly
// once result bytes) comes from content addressing, efficiency comes from
// the lease. See DESIGN.md §15 for the full argument.
//
// One lease is one file, <dir>/leases/<key>.lease, created with
// O_CREATE|O_EXCL so the filesystem arbitrates the initial race, written
// with the owner id and schema stamp, fsynced, and heartbeated by atomically
// rewriting the record with a bumped monotonic sequence number. Liveness is
// judged logically, not by mtime: an observer records the (owner, seq) pair
// it sees and presumes the holder dead only after watching that pair stay
// unchanged for a full TTL of its own clock — so filesystems with lazy,
// cached, or coarse timestamps cannot make a live worker look dead (or a
// dead one look live). The file's mtime survives only as a fallback hint for
// records that carry no sequence number (pre-seq lease files, foreign
// schemas, torn writes) and for Sweep's post-campaign cleanup. A stale lease
// may be reclaimed by any peer: the reclaimer writes its own record to a
// temp file and atomically renames it over the lease, then reads the file
// back — rename arbitrates, read-back decides. A reclaim increments the
// lease's attempt counter; when a trial has been reclaimed MaxAttempts times
// (a worker crash loop — the trial is killing its executors), it is
// quarantined instead: a <key>.poison marker records the attempts so every
// peer fails the trial fast into its degradation manifest rather than
// feeding it more workers.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gurita/internal/cachestore"
)

// record is the on-disk lease file. Seq is the logical heartbeat: the
// holder bumps it on every renewal, so liveness is visible in the record's
// content, never its mtime. A record with Seq zero predates sequence
// heartbeats (or was written by a foreign world) and is judged by the mtime
// fallback instead.
type record struct {
	Schema  string `json:"schema"`
	Key     string `json:"key"`
	Owner   string `json:"owner"`
	Attempt int    `json:"attempt"`
	Seq     uint64 `json:"seq,omitempty"`
}

// seqIncarnation spaces out the starting sequence number of every claim this
// process takes, so a release-then-reclaim of the same key by the same owner
// can never present an (owner, seq) pair a peer has already observed — that
// would make a live second incarnation look TTL-stale. Renewals bump by one;
// 2^32 renewals per claim is unreachable.
var seqIncarnation atomic.Uint64

func newSeq() uint64 { return seqIncarnation.Add(1) << 32 }

// observation is one remembered sighting of a peer's lease: the (owner, seq)
// pair and when this store first saw it. Staleness is the pair surviving
// unchanged past the TTL on the observer's own clock.
type observation struct {
	owner string
	seq   uint64
	since time.Time
}

// Owner returns the lease identity.
func (s *Store) Owner() string { return s.cfg.Owner }

// TTL returns the lease staleness threshold in effect.
func (s *Store) TTL() time.Duration { return s.cfg.TTL }

// HeartbeatEvery returns the lease renewal period in effect.
func (s *Store) HeartbeatEvery() time.Duration { return s.cfg.Heartbeat }

// LeaseStats snapshots the lifetime lease counters.
func (s *Store) LeaseStats() cachestore.LeaseStats {
	return cachestore.LeaseStats{
		Acquired:  s.acquired.Load(),
		Reclaimed: s.reclaimed.Load(),
		Lost:      s.lost.Load(),
		Released:  s.released.Load(),
		Poisoned:  s.poisoned.Load(),
	}
}

// now is the lease clock. Leases coordinate processes, not simulations:
// heartbeat and staleness are operational wall-clock concerns that no trial
// result ever reads, which is the justification for every wall-clock use in
// the protocol.
//
//lint:ignore nondetsource lease heartbeat/staleness is wall-clock coordination between worker processes; trial results never depend on it
func (s *Store) now() time.Time {
	if s.clock != nil {
		return s.clock()
	}
	//lint:ignore nondetsource lease expiry is wall-clock coordination between processes; trial results never depend on it
	return time.Now()
}

// observe records (or refreshes) the sighting of (owner, seq) on key and
// returns how long this store has watched that exact pair. A changed pair
// restarts the watch: the holder renewed, so it is alive.
func (s *Store) observe(key, owner string, seq uint64, now time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.obs[key]
	if !ok || o.owner != owner || o.seq != seq {
		s.obs[key] = observation{owner: owner, seq: seq, since: now}
		return 0
	}
	return now.Sub(o.since)
}

// settle drops the sighting for key — the lease was acquired, vanished, or
// poisoned, so any remembered (owner, seq) pair is moot — and, when
// acquired, records the hold.
func (s *Store) settle(key string, acquired bool) {
	s.mu.Lock()
	delete(s.obs, key)
	if acquired {
		s.held[key] = false
	}
	s.mu.Unlock()
}

// hold reports whether this handle holds key, and whether that hold has
// been found taken over.
func (s *Store) hold(key string) (held, lost bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lost, held = s.held[key]
	return held, lost
}

// markLost records the takeover of a held key exactly once.
func (s *Store) markLost(key string) {
	s.mu.Lock()
	lost, held := s.held[key]
	if held {
		s.held[key] = true
	}
	s.mu.Unlock()
	if held && !lost {
		s.lost.Add(1)
		s.cache.count("lease.lost")
	}
}

func (s *Store) leasePath(key string) string {
	return filepath.Join(s.leaseDir, key+".lease")
}

func (s *Store) poisonPath(key string) string {
	return filepath.Join(s.leaseDir, key+".poison")
}

// Claim attempts to take the lease for key. Only LeaseAcquired claims may
// execute (and must end in Release or PoisonKey). Claim never blocks on
// peers — LeaseBusy is a hint to wait and retry, with Remaining estimating
// how long until the current lease could go stale.
func (s *Store) Claim(_ context.Context, key string) (cachestore.Lease, error) {
	if p, err := s.readPoison(key); err != nil {
		return cachestore.Lease{}, err
	} else if p != nil {
		return cachestore.Lease{State: cachestore.LeasePoisoned, Poison: p}, nil
	}

	path := s.leasePath(key)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		// The first claim under this cache root creates leases/.
		if err = os.MkdirAll(s.leaseDir, 0o755); err == nil {
			f, err = os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		}
	}
	if err == nil {
		// We created the file: the filesystem arbitrated the initial race in
		// our favor. Fill it in and fsync so a crash cannot leave a lease
		// that lies about its owner for longer than one TTL.
		rec := record{Schema: s.cfg.Schema, Key: key, Owner: s.cfg.Owner, Attempt: 1, Seq: newSeq()}
		if werr := writeRecord(f, rec); werr != nil {
			f.Close()
			os.Remove(path)
			return cachestore.Lease{}, fmt.Errorf("fsstore: writing %s: %w", filepath.Base(path), werr)
		}
		if werr := f.Close(); werr != nil {
			os.Remove(path)
			return cachestore.Lease{}, fmt.Errorf("fsstore: closing %s: %w", filepath.Base(path), werr)
		}
		s.settle(key, true)
		s.acquired.Add(1)
		s.cache.count("lease.acquired")
		return cachestore.Lease{State: cachestore.LeaseAcquired, Attempt: 1}, nil
	}
	if !errors.Is(err, fs.ErrExist) {
		return cachestore.Lease{}, fmt.Errorf("fsstore: creating %s: %w", filepath.Base(path), err)
	}

	// Somebody holds (or held) the lease. Records that carry a sequence
	// number are judged by logical observation — stale only once this
	// store has watched the same (owner, seq) pair for a full TTL, so the
	// filesystem's timestamps are never trusted for liveness. Records
	// without one (pre-seq lease files, foreign schemas, torn writes) have
	// no heartbeat to observe; for those the mtime fallback hint decides.
	rec, mtime, ok := s.readLease(key)
	if mtime.IsZero() {
		// Vanished between EEXIST and stat: the holder just released it.
		// Report busy-with-zero-remaining so the caller re-claims promptly
		// (by then the cache usually answers first).
		s.settle(key, false)
		return cachestore.Lease{State: cachestore.LeaseBusy}, nil
	}
	now := s.now()
	var (
		stale     bool
		remaining time.Duration
		holder    string
	)
	attempt := 2
	if ok && rec.Schema == s.cfg.Schema && rec.Seq != 0 {
		holder = rec.Owner
		attempt = rec.Attempt + 1
		watched := s.observe(key, rec.Owner, rec.Seq, now)
		stale = watched > s.cfg.TTL
		remaining = s.cfg.TTL - watched
	} else {
		age := now.Sub(mtime)
		stale = age > s.cfg.TTL
		remaining = s.cfg.TTL - age
		if ok {
			holder = rec.Owner
			if rec.Schema == s.cfg.Schema {
				attempt = rec.Attempt + 1
			}
		}
	}
	if !stale {
		return cachestore.Lease{State: cachestore.LeaseBusy, Holder: holder, Remaining: remaining}, nil
	}

	// Stale: reclaim, or poison when the trial has burned through its
	// attempt budget. An unreadable lease counts as one unknown attempt.
	if attempt > s.cfg.MaxAttempts {
		p := &cachestore.Poison{
			Schema:   s.cfg.Schema,
			Key:      key,
			Attempts: attempt - 1,
			Err:      fmt.Sprintf("lease: trial reclaimed %d times without completing (worker crash loop)", attempt-1),
		}
		if perr := s.writePoison(p); perr != nil {
			return cachestore.Lease{}, perr
		}
		os.Remove(path) // best-effort; Sweep collects stragglers
		s.settle(key, false)
		s.poisoned.Add(1)
		s.cache.count("lease.poisoned")
		return cachestore.Lease{State: cachestore.LeasePoisoned, Poison: p}, nil
	}
	newRec := record{Schema: s.cfg.Schema, Key: key, Owner: s.cfg.Owner, Attempt: attempt, Seq: newSeq()}
	if err := s.writeLease(newRec); err != nil {
		return cachestore.Lease{}, err
	}
	// Rename arbitrated among concurrent reclaimers; read-back decides which
	// of us actually won. (Two reclaimers can both momentarily believe they
	// won if their rename/read-back windows interleave; the duplicate
	// execution that follows publishes identical bytes, and heartbeat
	// verification converges ownership. See DESIGN.md §15.)
	back, _, bok := s.readLease(key)
	won := bok && back.Owner == s.cfg.Owner
	s.settle(key, won)
	if !won {
		l := cachestore.Lease{State: cachestore.LeaseBusy, Remaining: s.cfg.TTL}
		if bok {
			l.Holder = back.Owner
		}
		return l, nil
	}
	s.reclaimed.Add(1)
	s.cache.count("lease.reclaimed")
	return cachestore.Lease{State: cachestore.LeaseAcquired, Attempt: attempt, Reclaimed: true}, nil
}

// readLease parses the lease file for key. ok reports a well-formed record;
// mtime is zero only when the file does not exist (or cannot be stat'ed).
func (s *Store) readLease(key string) (rec record, mtime time.Time, ok bool) {
	path := s.leasePath(key)
	st, err := os.Stat(path)
	if err != nil {
		return record{}, time.Time{}, false
	}
	mtime = st.ModTime()
	data, err := os.ReadFile(path)
	if err != nil {
		return record{}, mtime, false
	}
	if err := json.Unmarshal(data, &rec); err != nil || rec.Key != key {
		return record{}, mtime, false
	}
	return rec, mtime, true
}

// ownLease reads key's lease record and reports whether it is still ours.
func (s *Store) ownLease(key string) (record, bool) {
	rec, _, ok := s.readLease(key)
	return rec, ok && rec.Owner == s.cfg.Owner
}

// writeLease atomically replaces the lease file for rec.Key with rec.
func (s *Store) writeLease(rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fsstore: encoding lease: %w", err)
	}
	return WriteFileAtomic(s.leaseDir, rec.Key+".lease", data)
}

// readPoison returns the quarantine marker for key, if one exists under the
// store's schema. Foreign-schema markers are ignored (and removed: the
// world they poisoned no longer exists).
func (s *Store) readPoison(key string) (*cachestore.Poison, error) {
	data, err := os.ReadFile(s.poisonPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fsstore: reading poison marker: %w", err)
	}
	var p cachestore.Poison
	if jerr := json.Unmarshal(data, &p); jerr != nil || p.Schema != s.cfg.Schema || p.Key != key {
		os.Remove(s.poisonPath(key))
		return nil, nil
	}
	return &p, nil
}

func (s *Store) writePoison(p *cachestore.Poison) error {
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return fmt.Errorf("fsstore: encoding poison marker: %w", err)
	}
	return WriteFileAtomic(s.leaseDir, p.Key+".poison", data)
}

// Renew extends the acquired lease on key once (one logical heartbeat): it
// verifies the record is still ours, then atomically rewrites it with the
// sequence number bumped. Peers see the changed (owner, seq) pair and
// restart their staleness watch; the file's mtime plays no part.
// ErrLeaseLost means a peer took the lease over (this process was presumed
// dead — SIGSTOP, scheduler stall); the trial keeps executing, its eventual
// publish is byte-identical to the usurper's, but the lease is no longer
// ours to extend.
func (s *Store) Renew(_ context.Context, key string) error {
	if held, lost := s.hold(key); !held || lost {
		return cachestore.ErrLeaseLost
	}
	rec, ours := s.ownLease(key)
	if !ours {
		s.markLost(key)
		return cachestore.ErrLeaseLost
	}
	rec.Seq++
	if err := s.writeLease(rec); err != nil {
		s.markLost(key)
		return cachestore.ErrLeaseLost
	}
	return nil
}

// Release ends the acquired lease on key after its result is published:
// the lease file is removed only if still ours — a usurper's lease is its
// own to release. Safe on lost or unknown leases.
func (s *Store) Release(_ context.Context, key string) {
	if held, _ := s.hold(key); held {
		s.release(key)
	}
}

// release removes a held key's lease file if it is still ours (recording
// the takeover otherwise) and forgets the hold.
func (s *Store) release(key string) {
	if _, ours := s.ownLease(key); !ours {
		s.markLost(key)
	} else if os.Remove(s.leasePath(key)) == nil {
		s.released.Add(1)
		s.cache.count("lease.released")
	}
	s.mu.Lock()
	delete(s.held, key)
	s.mu.Unlock()
}

// PoisonKey quarantines the claimed trial: every peer's next Claim returns
// LeasePoisoned and fails the trial fast into its manifest, instead of
// re-executing a deterministic error. The lease is released.
func (s *Store) PoisonKey(_ context.Context, key, specHash string, attempts int, cause error) error {
	if held, _ := s.hold(key); !held {
		return cachestore.ErrLeaseLost
	}
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	err := s.writePoison(&cachestore.Poison{
		Schema:   s.cfg.Schema,
		Key:      key,
		SpecHash: specHash,
		Attempts: attempts,
		Err:      msg,
	})
	if err == nil {
		s.poisoned.Add(1)
		s.cache.count("lease.poisoned")
	}
	s.release(key)
	return err
}

// Sweep removes stale lease files among the given keys: leftovers of
// workers that died after publishing their result but before releasing.
// Fresh leases (live peers still executing a duplicate) are left alone.
// Returns how many files were removed.
//
// Sweep is post-campaign cleanup, not a liveness decision: nothing is taken
// over, so it may use the mtime hint (every renewal rewrites the file, so a
// live holder's lease always has a recent mtime on any real filesystem). A
// lease a sweep wrongly removes is re-created by its holder's next renewal
// race at worst, and duplicates publish identical bytes.
func (s *Store) Sweep(_ context.Context, keys []string) int {
	removed := 0
	for _, key := range keys {
		_, mtime, _ := s.readLease(key)
		if mtime.IsZero() {
			continue
		}
		if s.now().Sub(mtime) > s.cfg.TTL {
			if os.Remove(s.leasePath(key)) == nil {
				removed++
			}
		}
	}
	return removed
}

// writeRecord writes rec to a freshly created lease file and fsyncs it.
func writeRecord(f *os.File, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Sync()
}
