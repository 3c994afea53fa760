package netmod

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gurita/internal/topo"
)

// Component-locality tests: Reallocate re-solves only the connected
// components (flows linked through shared links) a delta reached. On a
// fabric whose traffic is confined to separate pods, a delta in one pod must
// leave every other pod's rates bit-for-bit alone, solve exactly the flows
// of the components it touched, and still agree with a batch solve.

// podFlow builds a flow whose endpoints share pod p of a k-ary FatTree, so
// its path never leaves the pod.
func podFlow(tp *topo.Topology, rng *rand.Rand, p, queues int) *FlowDemand {
	per := tp.K() * tp.K() / 4 // servers per pod
	src := topo.ServerID(p*per + rng.Intn(per))
	dst := topo.ServerID(p*per + rng.Intn(per))
	for dst == src {
		dst = topo.ServerID(p*per + rng.Intn(per))
	}
	f := &FlowDemand{Path: tp.Path(src, dst, rng.Uint64()), Queue: rng.Intn(queues)}
	if rng.Intn(3) == 0 {
		f.MaxRate = tp.LinkCapacity(0) * (0.05 + rng.Float64())
	}
	return f
}

// components labels flows by connected component (union-find over shared
// links, independent of the allocator) and returns each flow's label and
// each label's size.
func components(flows []*FlowDemand) (label map[*FlowDemand]int, size map[int]int) {
	parent := make([]int, len(flows))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	owner := map[topo.LinkID]int{}
	for i, f := range flows {
		for _, l := range f.Path {
			if j, ok := owner[l]; ok {
				parent[find(i)] = find(j)
			} else {
				owner[l] = i
			}
		}
	}
	label = make(map[*FlowDemand]int, len(flows))
	size = map[int]int{}
	for i, f := range flows {
		label[f] = find(i)
		size[find(i)]++
	}
	return label, size
}

func TestComponentLocalChurn(t *testing.T) {
	tp, err := topo.NewFatTree(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	pods := tp.K()
	// WRR weights are global, so locality holds only while the tier shares
	// stay put: one queue (or every flow in one tier) keeps them constant.
	for _, c := range []struct {
		mode   Mode
		queues int
	}{{ModeSPQ, 4}, {ModeSPQ, 1}, {ModeWRR, 1}} {
		t.Run(fmt.Sprintf("%v/q%d", c.mode, c.queues), func(t *testing.T) {
			h := newChurnHarness(t, tp, c.queues, c.mode, 7)
			rng := rand.New(rand.NewSource(11))
			pod := map[*FlowDemand]int{}
			for i := 0; i < 6*pods; i++ {
				p := i % pods
				f := podFlow(tp, rng, p, c.queues)
				pod[f] = p
				h.inc.Register(f)
				h.live = append(h.live, f)
			}
			h.check(-1)

			for step := 0; step < 300; step++ {
				p := rng.Intn(pods)
				var inPod []*FlowDemand
				for _, f := range h.live {
					if pod[f] == p {
						inPod = append(inPod, f)
					}
				}
				before := make(map[*FlowDemand]uint64, len(h.live))
				for _, f := range h.live {
					before[f] = math.Float64bits(f.Rate)
				}
				// The flows whose components the delta reaches: the changed
				// flow's own, or after a removal every piece left on its path.
				var reach []*FlowDemand
				switch op := rng.Intn(4); {
				case op == 0 || len(inPod) == 0:
					f := podFlow(tp, rng, p, c.queues)
					pod[f] = p
					h.inc.Register(f)
					h.live = append(h.live, f)
					reach = []*FlowDemand{f}
				case op == 1:
					g := inPod[rng.Intn(len(inPod))]
					h.inc.Unregister(g)
					for i, f := range h.live {
						if f == g {
							h.live = append(h.live[:i], h.live[i+1:]...)
							break
						}
					}
					for _, f := range h.live {
						if sharesLink(f, g) {
							reach = append(reach, f)
						}
					}
				case op == 2:
					f := inPod[rng.Intn(len(inPod))]
					f.Queue = rng.Intn(c.queues)
					f.MaxRate = tp.LinkCapacity(0) * (0.05 + rng.Float64())
					h.inc.Update(f)
					reach = []*FlowDemand{f}
				default: // toggle the cap
					f := inPod[rng.Intn(len(inPod))]
					if f.MaxRate > 0 {
						f.MaxRate = 0
					} else {
						f.MaxRate = tp.LinkCapacity(0) / 3
					}
					h.inc.Update(f)
					reach = []*FlowDemand{f}
				}
				solvedBefore := h.inc.Stats().FlowsSolved
				h.check(step)
				solved := h.inc.Stats().FlowsSolved - solvedBefore

				label, size := components(h.live)
				touched := map[int]bool{}
				want := 0
				for _, f := range reach {
					if !touched[label[f]] {
						touched[label[f]] = true
						want += size[label[f]]
					}
				}
				for _, f := range h.live {
					b, old := before[f]
					if !old || math.Float64bits(f.Rate) == b {
						continue
					}
					if pod[f] != p {
						t.Fatalf("step %d: delta in pod %d moved a pod-%d flow's rate %v -> %v",
							step, p, pod[f], math.Float64frombits(b), f.Rate)
					}
					if !touched[label[f]] {
						t.Fatalf("step %d: a flow outside the touched components changed rate", step)
					}
				}
				// SPQ fills each flow once; WRR fills it in its tier's phase
				// and again in the spill unless it reached its cap.
				if c.mode == ModeSPQ && solved != int64(want) || c.mode == ModeWRR && (solved < int64(want) || solved > 2*int64(want)) {
					t.Fatalf("step %d: solved %d flows, the touched components hold %d", step, solved, want)
				}
			}
		})
	}
}

// sharesLink reports whether f and g cross a common link.
func sharesLink(f, g *FlowDemand) bool {
	for _, l := range f.Path {
		for _, m := range g.Path {
			if l == m {
				return true
			}
		}
	}
	return false
}

// TestComponentsSolvedAlone checks the batch path solves disjoint
// components separately: two pods' worth of traffic is two components, and
// each pod's rates match a solve of that pod alone bit for bit.
func TestComponentsSolvedAlone(t *testing.T) {
	tp, err := topo.NewFatTree(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var a, b []*FlowDemand
	for i := 0; i < 8; i++ {
		a = append(a, podFlow(tp, rng, 0, 4))
		b = append(b, podFlow(tp, rng, 1, 4))
	}
	for _, mode := range []Mode{ModeSPQ, ModeWRR} {
		both, err := NewAllocator(tp, 4, mode)
		if err != nil {
			t.Fatal(err)
		}
		both.Allocate(append(append([]*FlowDemand(nil), a...), b...))
		if got := both.Stats().ComponentsSolved; got < 2 {
			t.Fatalf("%v: two pods solved as %d component(s)", mode, got)
		}
		joint := make([]float64, len(a))
		for i, f := range a {
			joint[i] = f.Rate
		}
		if mode == ModeWRR {
			continue // the weights depend on both pods' tier shares
		}
		alone, err := NewAllocator(tp, 4, mode)
		if err != nil {
			t.Fatal(err)
		}
		alone.Allocate(a)
		for i, f := range a {
			if f.Rate != joint[i] {
				t.Fatalf("%v: flow %d rate %v alone, %v beside another pod", mode, i, f.Rate, joint[i])
			}
		}
	}
}

// TestAllocateReusedBuffer covers the batch pattern the simulator's
// cross-check uses: the same FlowDemand structs are rewritten with new
// paths and passed to Allocate again. Reset must not rely on the paths the
// structs carried when they were registered.
func TestAllocateReusedBuffer(t *testing.T) {
	tp, err := topo.NewFatTree(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	a, err := NewAllocator(tp, 4, ModeSPQ)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]FlowDemand, 12)
	ptrs := make([]*FlowDemand, len(buf))
	for round := 0; round < 20; round++ {
		for i := range buf {
			buf[i] = *podFlow(tp, rng, rng.Intn(tp.K()), 4)
			ptrs[i] = &buf[i]
		}
		a.Allocate(ptrs)
		fresh, err := NewAllocator(tp, 4, ModeSPQ)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]*FlowDemand, len(buf))
		for i := range buf {
			s := buf[i].Snapshot()
			ref[i] = &s
		}
		fresh.Allocate(ref)
		for i := range buf {
			if buf[i].Rate != ref[i].Rate {
				t.Fatalf("round %d flow %d: reused allocator %v, fresh %v", round, i, buf[i].Rate, ref[i].Rate)
			}
		}
	}
}

// TestCheckMaxMinRejects feeds the certificate allocations that break each
// of its conditions and expects every one to be caught.
func TestCheckMaxMinRejects(t *testing.T) {
	tp := bigSwitch(t, 4) // 100 B/s links
	capOf := tp.LinkCapacity
	mk := func(src, dst topo.ServerID, q int, max, rate float64) *FlowDemand {
		f := flow(tp, src, dst, q, max)
		f.Rate = rate
		return f
	}
	cases := []struct {
		name  string
		mode  Mode
		flows []*FlowDemand
	}{
		{"over capacity", ModeSPQ, []*FlowDemand{mk(0, 1, 0, 0, 60), mk(0, 2, 0, 0, 60)}},
		{"over cap", ModeWRR, []*FlowDemand{mk(0, 1, 0, 10, 20)}},
		{"negative", ModeSPQ, []*FlowDemand{mk(0, 1, 0, 0, -1)}},
		{"NaN", ModeWRR, []*FlowDemand{mk(0, 1, 0, 0, math.NaN())}},
		{"idle capacity SPQ", ModeSPQ, []*FlowDemand{mk(0, 1, 0, 0, 50)}},
		{"idle capacity WRR", ModeWRR, []*FlowDemand{mk(0, 1, 0, 0, 50), mk(2, 3, 1, 0, 99)}},
		// Saturated uplink, but the slower flow has no other bottleneck:
		// max-min would equalize them.
		{"unfair within tier", ModeSPQ, []*FlowDemand{mk(0, 1, 0, 0, 70), mk(0, 2, 0, 0, 30)}},
	}
	for _, c := range cases {
		if err := CheckMaxMin(c.flows, capOf, c.mode); err == nil {
			t.Errorf("%s: certificate accepted a broken allocation", c.name)
		}
	}
	// The same unequal split is legal across tiers under SPQ, and any
	// saturating split is legal under WRR.
	ok := []struct {
		name  string
		mode  Mode
		flows []*FlowDemand
	}{
		{"tiers", ModeSPQ, []*FlowDemand{mk(0, 1, 0, 0, 70), mk(0, 2, 1, 30, 30)}},
		{"starved tier", ModeSPQ, []*FlowDemand{mk(0, 1, 0, 0, 100), mk(0, 2, 3, 0, 0)}},
		{"wrr split", ModeWRR, []*FlowDemand{mk(0, 1, 0, 0, 70), mk(0, 2, 0, 0, 30)}},
		{"capped", ModeSPQ, []*FlowDemand{mk(0, 1, 0, 20, 20)}},
		{"down link", ModeSPQ, []*FlowDemand{mk(0, 1, 0, 0, 0)}},
	}
	down := func(l topo.LinkID) float64 {
		if l == tp.ServerUplink(0) {
			return 0
		}
		return capOf(l)
	}
	for _, c := range ok {
		capacity := capOf
		if c.name == "down link" {
			capacity = down
		}
		if err := CheckMaxMin(c.flows, capacity, c.mode); err != nil {
			t.Errorf("%s: certificate rejected a valid allocation: %v", c.name, err)
		}
	}
}

// TestEpochWrap runs churn across the wrap of the component search's 32-bit
// epoch: stale stamps must never make a link or flow look already reached.
func TestEpochWrap(t *testing.T) {
	tp, err := topo.NewFatTree(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeSPQ, ModeWRR} {
		h := newChurnHarness(t, tp, 4, mode, 5)
		for i := 0; i < 40; i++ {
			h.step()
			h.check(i)
		}
		h.inc.epoch = math.MaxUint32 - 3
		for i := 40; i < 80; i++ {
			h.step()
			h.check(i)
		}
		if h.inc.epoch > 100 {
			t.Fatalf("%v: epoch %d did not wrap", mode, h.inc.epoch)
		}
	}
}
