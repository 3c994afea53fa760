package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"testing"

	gurita "gurita"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestTailKeepsTenBeyond checks the percentile rule: the reported tail is
// the highest percentile that still has ten samples above it.
func TestTailKeepsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		value     float64
		pct       float64
		available bool
	}{
		{1000, 990, 99, true},
		{2000, 1990, 99.5, true},
		{100, 90, 90, true},
		{11, 1, 100.0 / 11, true},
		{10, 0, 0, false},
		{0, 0, 0, false},
	} {
		xs := seq(c.n)
		v, pct, ok := tail(xs)
		if ok != c.available || v != c.value || pct != c.pct {
			t.Errorf("tail of %d samples = (%v, %v, %v), want (%v, %v, %v)", c.n, v, pct, ok, c.value, c.pct, c.available)
		}
		if ok {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond != tailBeyond {
				t.Errorf("tail of %d samples has %d samples beyond it, want %d", c.n, beyond, tailBeyond)
			}
		}
	}
	if xs := seq(5); xs[0] != 5 {
		t.Fatal("tail must not reorder its input")
	}
}

// TestCoverageSelfTime checks the self-time arithmetic: a parent's self
// time is its duration minus the union of its children, clipped to it.
func TestCoverageSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		children [][2]int64
		self     int64
	}{
		{"no children", nil, 100},
		{"disjoint", [][2]int64{{10, 20}, {30, 45}}, 75},
		{"overlapping", [][2]int64{{10, 30}, {20, 40}}, 70},
		{"nested", [][2]int64{{10, 50}, {20, 30}}, 60},
		{"clipped at both ends", [][2]int64{{-5, 10}, {90, 120}}, 80},
		{"empty and reversed", [][2]int64{{40, 40}, {60, 50}}, 100},
		{"whole parent", [][2]int64{{0, 100}}, 0},
	} {
		cov := newCoverage(0, 100)
		for _, ch := range c.children {
			cov.add(ch[0], ch[1])
		}
		if got := cov.self(); got != c.self {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.self)
		}
	}
}

// TestDecoratorIsTransparent runs every built-in scheduler plain and
// wrapped in the timing decorator with the tracing sink attached: the
// results must be byte-identical, and so must the decision audit log,
// which carries each policy's DecisionScore.
func TestDecoratorIsTransparent(t *testing.T) {
	sc := gurita.QuickScale()
	sc.FatTreeK = 4
	sc.TraceCoflows = 6
	spec := gurita.TrialSpec{Scenario: gurita.CampaignTrace, Structure: gurita.StructureFBTao, Scale: sc}.Normalized()
	scen, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	log := newSpanLog()
	for _, k := range gurita.AllKinds() {
		run := func(wrapped bool) ([]byte, *gurita.ObsCollector, *trialTrace) {
			s, err := gurita.NewScheduler(k, spec.Queues)
			if err != nil {
				t.Fatal(err)
			}
			col := gurita.NewObsCollector()
			run := scen
			run.Obs = col
			var tr *trialTrace
			if wrapped {
				tr = newTrialTrace(log, 0, string(k), log.now())
				if name := wrap(s, tr).Name(); name != s.Name() {
					t.Errorf("%s: wrapped Name() = %q, want %q", k, name, s.Name())
				}
				_, scores := s.(decisionScorer)
				_, wrappedScores := wrap(s, tr).(decisionScorer)
				if scores != wrappedScores {
					t.Errorf("%s: DecisionScorer forwarded = %v, inner has it = %v", k, wrappedScores, scores)
				}
				s = wrap(s, tr)
				run.Obs = gurita.ObsTee(tr, col)
			}
			res, err := run.RunWith(s, wrrPlane(k))
			if err != nil {
				t.Fatal(err)
			}
			return resultBytes(res), col, tr
		}
		plainBytes, plainCol, _ := run(false)
		wrappedBytes, wrappedCol, tr := run(true)
		if !bytes.Equal(plainBytes, wrappedBytes) {
			t.Errorf("%s: wrapped run's result bytes differ", k)
		}
		if !reflect.DeepEqual(plainCol.Decisions(), wrappedCol.Decisions()) {
			t.Errorf("%s: wrapped run's decision log differs", k)
		}
		if !reflect.DeepEqual(plainCol.Events(), wrappedCol.Events()) {
			t.Errorf("%s: wrapped run's event log differs", k)
		}
		if tr.assignCalls == 0 || tr.offered == 0 {
			t.Errorf("%s: decorator timed no AssignQueues calls", k)
		}
	}
}

// TestCPUBuckets decodes a hand-built profile and checks that each sample
// goes to the innermost listed package on its stack.
func TestCPUBuckets(t *testing.T) {
	strs := []string{"", "runtime.mallocgc", "gurita/internal/netmod.(*Allocator).waterfill",
		"runtime.gcBgMarkWorker", "sort.Slice", "main.helper", "gurita/internal/sched.(*PFS).AssignQueues",
		"gurita/internal/sim.(*Simulator).reallocate", "gurita.Scenario.RunWith"}
	var prof []byte
	for i, s := range strs {
		prof = appendBytes(prof, 6, []byte(s))
		if i > 0 {
			// Function i is named by string i.
			fn := appendVarint(appendVarint(nil, 1, uint64(i)), 2, uint64(i))
			prof = appendBytes(prof, 5, fn)
		}
	}
	// Location ids: 1 = mallocgc, 2 = waterfill, 3 = gcBgMarkWorker,
	// 4 = sort.Slice, 5 = main.helper, 6 = AssignQueues inlined into
	// reallocate, 7 = RunWith.
	locs := [][]uint64{{1}, {2}, {3}, {4}, {5}, {6, 7}, {8}}
	for i, fns := range locs {
		loc := appendVarint(nil, 1, uint64(i+1))
		for _, fn := range fns {
			loc = appendBytes(loc, 4, appendVarint(nil, 1, fn))
		}
		prof = appendBytes(prof, 4, loc)
	}
	sample := func(ns uint64, stack ...uint64) {
		var packed []byte
		for _, l := range stack {
			packed = binary.AppendUvarint(packed, l)
		}
		s := appendBytes(nil, 1, packed)
		s = appendVarint(s, 2, 1) // samples
		s = appendVarint(s, 2, ns)
		prof = appendBytes(prof, 2, s)
	}
	sample(10, 1, 2, 7)  // allocation made by netmod
	sample(20, 3)        // garbage collector
	sample(30, 4, 5)     // library code with no listed package
	sample(40, 4, 6, 7)  // sort inside AssignQueues, inlined into the engine
	sample(100, 2, 6, 7) // netmod below the scheduler frame
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()

	acc := make(map[string]int64)
	if err := cpuByBucket(gz.Bytes(), acc); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"netmod": 110, "runtime": 20, "other": 30, "sched": 40}
	if !reflect.DeepEqual(acc, want) {
		t.Errorf("buckets = %v, want %v", acc, want)
	}
	shares := cpuShares(acc)
	if shares["netmod"] != 0.55 || shares["hr"] != 0 || len(shares) != len(profileBuckets)+1 {
		t.Errorf("shares = %v", shares)
	}
}

func appendVarint(b []byte, field int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func appendBytes(b []byte, field int, data []byte) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"gurita/internal/netmod.(*Allocator).waterfill": "gurita/internal/netmod",
		"gurita.Scenario.RunWith":                       "gurita",
		"runtime.mallocgc":                              "runtime",
		"internal/runtime/maps.(*Map).Get":              "internal/runtime/maps",
		"main.main.func1":                               "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestClassifyRoutes(t *testing.T) {
	key := "0123456789abcdef0123456789abcdef"
	for _, c := range []struct{ method, path, route, id string }{
		{"POST", "/v1/campaigns", "serve.submit", ""},
		{"GET", "/v1/campaigns/c000007", "serve.status", "c000007"},
		{"GET", "/v1/campaigns/c000007/results/3", "serve.result", "c000007"},
		{"GET", "/v1/cache/entries/" + key, "cachehttp.get", key[:16]},
		{"PUT", "/v1/cache/entries/" + key, "cachehttp.put", key[:16]},
		{"POST", "/v1/cache/leases/" + key + "/claim", "cachehttp.claim", key[:16]},
		{"POST", "/v1/cache/leases/" + key + "/renew", "cachehttp.renew", key[:16]},
		{"POST", "/v1/cache/leases/" + key + "/release", "cachehttp.release", key[:16]},
		{"GET", "/healthz", "other", ""},
	} {
		route, id := classify(c.method, c.path)
		if route != c.route || id != c.id {
			t.Errorf("classify(%s %s) = (%q, %q), want (%q, %q)", c.method, c.path, route, id, c.route, c.id)
		}
	}
}

// TestWorkloadsAreSeeded checks that a workload is a function of its seed,
// that the seed changes only the order of its trials, and that every trial
// is valid.
func TestWorkloadsAreSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7)
		if !reflect.DeepEqual(a.grid(), b.grid()) {
			t.Errorf("%s: same seed, different grids", name)
		}
		for _, s := range a.grid() {
			if err := s.Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	// Fixed instances: another seed may reorder the trials, nothing more.
	for _, name := range workloadNames {
		a, _ := newWorkload(name, 1)
		b, _ := newWorkload(name, 2)
		byKind := func(g []gurita.TrialSpec) map[gurita.SchedulerKind]gurita.TrialSpec {
			m := make(map[gurita.SchedulerKind]gurita.TrialSpec)
			for _, s := range g {
				m[s.Scheduler] = s
			}
			return m
		}
		if len(a.grid()) != len(b.grid()) || !reflect.DeepEqual(byKind(a.grid()), byKind(b.grid())) {
			t.Errorf("%s: seeds 1 and 2 built different instances", name)
		}
	}
	if _, err := newWorkload("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestHostRef checks that a reference sample records a speed and that
// speed is the median rate over the nominal one.
func TestHostRef(t *testing.T) {
	var h hostRef
	h.sample()
	if len(h.rates) != 1 || h.rates[0] <= 0 {
		t.Fatalf("sample recorded %v", h.rates)
	}
	h.rates = []float64{nominalRefRate / 2, nominalRefRate, 4 * nominalRefRate}
	if got := h.speed(); got != 1 {
		t.Errorf("speed = %v, want 1", got)
	}
}
