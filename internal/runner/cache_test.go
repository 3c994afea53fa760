package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"gurita/internal/cachestore"
	"gurita/internal/cachestore/fsstore"
)

func mustKey(t *testing.T, schema string, spec any) string {
	t.Helper()
	k, err := Key(schema, spec)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := fsstore.Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	spec := trial{Name: "rt", Seed: 7}
	key := mustKey(t, "v1", spec)
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	specJSON, _ := json.Marshal(spec)
	resultJSON, _ := json.Marshal(run(spec))
	if err := c.Put(key, specJSON, resultJSON); err != nil {
		t.Fatal(err)
	}
	raw, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	var got outcome
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got != run(spec) {
		t.Fatalf("round trip = %+v, want %+v", got, run(spec))
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	// The stored envelope keeps the spec inspectable.
	data, err := os.ReadFile(filepath.Join(c.Dir(), key[:2], key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"rt"`) {
		t.Fatalf("envelope does not carry the spec: %s", data)
	}
}

// corrupt overwrites a cache entry's file with arbitrary bytes.
func corrupt(t *testing.T, c *fsstore.Cache, key string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(c.Dir(), key[:2], key+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheCorruptionIsMiss: truncated, garbage, wrong-schema and wrong-key
// entries are all treated as misses — recomputed and overwritten, never
// fatal.
func TestCacheCorruptionIsMiss(t *testing.T) {
	spec := trial{Name: "c", Seed: 3}
	specJSON, _ := json.Marshal(spec)
	resultJSON, _ := json.Marshal(run(spec))

	valid := func(t *testing.T, c *fsstore.Cache, key string) []byte {
		t.Helper()
		if err := c.Put(key, specJSON, resultJSON); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(c.Dir(), key[:2], key+".json"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	cases := []struct {
		name    string
		mangled func(valid []byte) []byte
	}{
		{"truncated", func(v []byte) []byte { return v[:len(v)/2] }},
		{"empty", func(v []byte) []byte { return nil }},
		{"garbage", func(v []byte) []byte { return []byte("not json at all {") }},
		{"wrong-key", func(v []byte) []byte {
			var e cachestore.Entry
			if err := json.Unmarshal(v, &e); err != nil {
				t.Fatal(err)
			}
			e.Key = strings.Repeat("0", 64)
			out, _ := json.Marshal(e)
			return out
		}},
		{"wrong-schema", func(v []byte) []byte {
			var e cachestore.Entry
			if err := json.Unmarshal(v, &e); err != nil {
				t.Fatal(err)
			}
			e.Schema = "v0-ancient"
			out, _ := json.Marshal(e)
			return out
		}},
		{"empty-result", func(v []byte) []byte {
			var e cachestore.Entry
			if err := json.Unmarshal(v, &e); err != nil {
				t.Fatal(err)
			}
			e.Result = nil
			out, _ := json.Marshal(e)
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := fsstore.Open(t.TempDir(), "v1")
			if err != nil {
				t.Fatal(err)
			}
			key := mustKey(t, "v1", spec)
			corrupt(t, c, key, tc.mangled(valid(t, c, key)))
			if _, ok := c.Get(key); ok {
				t.Fatal("corrupt entry served as a hit")
			}

			// The runner recomputes and heals the entry.
			var executed atomic.Int32
			exec := func(ctx context.Context, s trial) (outcome, error) {
				executed.Add(1)
				return run(s), nil
			}
			results, stats, err := Run(context.Background(), []trial{spec}, exec, Options{Workers: 1, Store: storeFor(t, c)})
			if err != nil {
				t.Fatal(err)
			}
			if executed.Load() != 1 || stats.Executed != 1 {
				t.Fatalf("corrupt entry did not trigger re-execution: %+v", stats)
			}
			if results[0] != run(spec) {
				t.Fatalf("recomputed result = %+v", results[0])
			}
			if _, ok := c.Get(key); !ok {
				t.Fatal("re-execution did not overwrite the corrupt entry")
			}
		})
	}
}

// TestCacheSchemaMismatchAcrossOpens: a cache written under v1 yields only
// misses when reopened under v2, and the v2 run overwrites entries in place.
func TestCacheSchemaMismatchAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	c1, err := fsstore.Open(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	specs := grid(4)
	exec := func(ctx context.Context, s trial) (outcome, error) { return run(s), nil }
	if _, _, err := Run(context.Background(), specs, exec, Options{Workers: 2, Store: storeFor(t, c1)}); err != nil {
		t.Fatal(err)
	}

	c2, err := fsstore.Open(dir, "v2")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Run(context.Background(), specs, exec, Options{Workers: 2, Store: storeFor(t, c2)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 4 || stats.CacheHits != 0 {
		t.Fatalf("v2 over v1 cache: stats = %+v, want 4 executed", stats)
	}
	// And a second v2 pass is fully warm again.
	_, stats, err = Run(context.Background(), specs, exec, Options{Workers: 2, Store: storeFor(t, c2)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 || stats.CacheHits != 4 {
		t.Fatalf("warm v2 stats = %+v", stats)
	}
}

// TestCacheUndecodableResultIsMiss: an envelope that validates but whose
// result does not decode into the caller's type re-executes instead of
// failing.
func TestCacheUndecodableResultIsMiss(t *testing.T) {
	c, err := fsstore.Open(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	spec := trial{Name: "u", Seed: 1}
	key := mustKey(t, "v1", spec)
	specJSON, _ := json.Marshal(spec)
	if err := c.Put(key, specJSON, json.RawMessage(`"a string, not an outcome"`)); err != nil {
		t.Fatal(err)
	}
	var executed atomic.Int32
	exec := func(ctx context.Context, s trial) (outcome, error) {
		executed.Add(1)
		return run(s), nil
	}
	results, _, err := Run(context.Background(), []trial{spec}, exec, Options{Workers: 1, Store: storeFor(t, c)})
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 1 || results[0] != run(spec) {
		t.Fatalf("undecodable entry not re-executed: %+v", results[0])
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := fsstore.Open("", "v1"); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := fsstore.Open(t.TempDir(), ""); err == nil {
		t.Fatal("empty schema accepted")
	}
}
