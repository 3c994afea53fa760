package runner

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gurita/internal/cachestore"
	"gurita/internal/cachestore/fsstore"
)

func TestGridHash(t *testing.T) {
	a := GridHash([]string{"k1", "k2"})
	if b := GridHash([]string{"k1", "k2"}); a != b {
		t.Fatal("grid hash not deterministic")
	}
	if c := GridHash([]string{"k2", "k1"}); c == a {
		t.Fatal("grid hash order-insensitive (keys are ordered — the grid IS the order)")
	}
	if c := GridHash([]string{"k1k2"}); c == a {
		t.Fatal("grid hash not separator-safe")
	}
	if len(a) != 64 {
		t.Fatalf("grid hash length = %d", len(a))
	}
}

func TestWorkerManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	grid := GridHash([]string{"k1", "k2", "k3"})
	m := NewWorkerManifest("v1", "w1", grid, Stats{
		Total: 3, Executed: 2, CacheHits: 1, Retries: 1, Reclaims: 1,
		Failures: []TrialFailure{{Index: 2, Key: "k3", Err: "boom", Attempts: 2, SpecHash: "h3"}},
	}, map[string]int64{"lease.acquired": 2})

	// Shards are published the way both backends do it: the encoded bytes
	// through the manifest store under ManifestName.
	publish := func(m WorkerManifest) {
		t.Helper()
		data, err := EncodeWorkerManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := fsstore.PutManifestFile(dir, ManifestName(m.Owner, m.Grid), data); err != nil {
			t.Fatal(err)
		}
	}
	publish(m)
	if names, _ := fsstore.ListManifests(dir); len(names) != 1 || names[0] != "w1-"+grid[:8]+".json" {
		t.Errorf("shard names = %v", names)
	}
	got, err := LoadWorkerManifests(dir, "v1", grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], m) {
		t.Fatalf("round trip = %+v, want %+v", got, m)
	}

	// Rewriting the same shard overwrites rather than accumulates.
	m.Executed = 3
	publish(m)
	got, _ = LoadWorkerManifests(dir, "v1", grid)
	if len(got) != 1 || got[0].Executed != 3 {
		t.Fatalf("rewrite = %+v", got)
	}

	// Schema and grid filters.
	if got, _ := LoadWorkerManifests(dir, "v2", grid); len(got) != 0 {
		t.Errorf("schema filter leaked: %+v", got)
	}
	if got, _ := LoadWorkerManifests(dir, "v1", GridHash([]string{"other"})); len(got) != 0 {
		t.Errorf("grid filter leaked: %+v", got)
	}
	if got, _ := LoadWorkerManifests(dir, "v1", ""); len(got) != 1 {
		t.Errorf("empty grid filter should match all: %+v", got)
	}
	// Missing manifest dir is empty, not an error.
	if got, err := LoadWorkerManifests(t.TempDir(), "v1", ""); err != nil || len(got) != 0 {
		t.Errorf("missing dir: %v, %+v", err, got)
	}
	// Unparsable shards are skipped.
	if err := os.WriteFile(filepath.Join(dir, cachestore.ManifestSubdir, "junk.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadWorkerManifests(dir, "v1", grid); err != nil || len(got) != 1 {
		t.Errorf("junk shard broke load: %v, %d shards", err, len(got))
	}
}

func TestMergeWorkerManifests(t *testing.T) {
	grid := GridHash([]string{"ka", "kb", "kc", "kd"})
	shards := []WorkerManifest{
		{
			Schema: "v1", Owner: "w2", Grid: grid,
			Total: 4, Executed: 1, CacheHits: 2, Retries: 1, Reclaims: 1,
			Failures: []TrialFailure{
				{Index: 3, Key: "kd", Err: "boom", Attempts: 2, SpecHash: "hd"},
			},
			Counters: map[string]int64{"lease.acquired": 2, "lease.reclaimed": 1},
		},
		{
			Schema: "v1", Owner: "w1", Grid: grid,
			Total: 4, Executed: 2, DedupHits: 1, LeaseLost: 1,
			Failures: []TrialFailure{
				{Index: 3, Key: "kd", Err: "boom", Attempts: 1, SpecHash: "hd", Quarantined: true},
				{Index: 1, Key: "kb", Err: "other", Attempts: 1, SpecHash: "hb"},
			},
			Counters: map[string]int64{"lease.acquired": 3},
		},
	}
	merged, err := MergeWorkerManifests(shards)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Workers, []string{"w1", "w2"}) {
		t.Errorf("workers = %v", merged.Workers)
	}
	if merged.Total != 4 || merged.Executed != 3 || merged.CacheHits != 2 ||
		merged.DedupHits != 1 || merged.Retries != 1 || merged.Reclaims != 1 || merged.LeaseLost != 1 {
		t.Errorf("merged tallies = %+v", merged)
	}
	if merged.Counters["lease.acquired"] != 5 || merged.Counters["lease.reclaimed"] != 1 {
		t.Errorf("merged counters = %v", merged.Counters)
	}
	if len(merged.Failures) != 2 {
		t.Fatalf("merged failures = %+v", merged.Failures)
	}
	// Sorted by spec hash: hb before hd.
	fb, fd := merged.Failures[0], merged.Failures[1]
	if fb.SpecHash != "hb" || len(fb.Workers) != 1 {
		t.Errorf("hb merge = %+v", fb)
	}
	if fd.SpecHash != "hd" || !reflect.DeepEqual(fd.Workers, []string{"w1", "w2"}) {
		t.Errorf("hd workers = %+v", fd)
	}
	if fd.Attempts != 3 {
		t.Errorf("hd attempts = %d, want 3 (summed)", fd.Attempts)
	}
	if !fd.Quarantined {
		t.Error("hd lost its quarantine mark")
	}
	if !reflect.DeepEqual(fd.Errs, []string{"boom"}) {
		t.Errorf("hd errs = %v, want deduplicated [boom]", fd.Errs)
	}

	// Mixed schemas and mixed grids refuse to merge.
	bad := append(shards, WorkerManifest{Schema: "v2", Owner: "w3", Grid: grid})
	if _, err := MergeWorkerManifests(bad); err == nil {
		t.Error("mixed-schema merge succeeded")
	}
	bad = append(shards[:2:2], WorkerManifest{Schema: "v1", Owner: "w3", Grid: GridHash([]string{"x"})})
	if _, err := MergeWorkerManifests(bad); err == nil {
		t.Error("mixed-grid merge succeeded")
	}
	// Empty input merges to the zero view.
	if m, err := MergeWorkerManifests(nil); err != nil || m.Total != 0 {
		t.Errorf("empty merge = %+v, %v", m, err)
	}
}
