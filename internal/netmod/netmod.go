// Package netmod models how the fabric divides link bandwidth among
// competing flows. It is the simulator's stand-in for the data plane the
// paper assumes: commodity switches with strict priority queuing (SPQ)
// carrying TCP traffic, optionally emulating SPQ with weighted round robin
// (WRR) for starvation mitigation (paper §IV.B).
//
// The model is fluid: at any instant every flow transmits at a single rate,
// and the allocator computes those rates from the flows' paths, priority
// queues, and per-flow caps. Within one priority tier the allocation is
// max-min fair (progressive filling / water-filling), which is the standard
// flow-level approximation of many TCP flows sharing links.
//
// The allocator is delta-driven: callers Register flows once, report
// changes with Update, retire flows with Unregister, and call Reallocate to
// refresh rates. The canonical allocation is solved per connected component
// (flows linked through shared links, across all tiers), so Reallocate
// re-solves only the components a delta touched while producing rates
// bit-identical to a from-scratch solve (see Reallocate). The batch Allocate
// entry point is retained as a thin wrapper and as the reference the
// equivalence tests compare against; CheckMaxMin is an independent
// certificate for any solve's output.
package netmod

import (
	"fmt"
	"math"

	"gurita/internal/fmath"
	"gurita/internal/topo"
)

// Mode selects how priority tiers share a link.
type Mode int

// Allocation modes.
const (
	// ModeSPQ is strict priority queuing: tier q receives bandwidth only
	// after every tier < q is satisfied. This matches commodity-switch SPQ
	// and can starve low tiers.
	ModeSPQ Mode = iota + 1
	// ModeWRR emulates SPQ with weighted round robin: every tier is
	// guaranteed a share derived from the paper's SPQ waiting-time formula,
	// so low-priority traffic keeps trickling (starvation mitigation).
	ModeWRR
)

func (m Mode) String() string {
	switch m {
	case ModeSPQ:
		return "spq"
	case ModeWRR:
		return "wrr"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// FlowDemand is one active flow as seen by the allocator. The simulator owns
// these structs and reuses them across allocation rounds.
type FlowDemand struct {
	// Path is the sequence of directed links the flow traverses. An empty
	// path denotes a host-local transfer that never touches the fabric.
	// The path must not change while the flow is registered.
	Path []topo.LinkID
	// Queue is the priority tier (0 = highest). Values outside [0, queues)
	// are clamped.
	Queue int
	// MaxRate caps the flow's rate in bytes/second (the sender NIC or a
	// pacer). Zero means uncapped.
	MaxRate float64
	// Rate is the allocator's output, in bytes/second.
	Rate float64

	// Allocator bookkeeping (valid while registered).
	registered bool
	tier       int     // clamped Queue; -1 for host-local flows
	idx        int32   // index into Allocator.fabric (or local)
	capSeen    float64 // MaxRate at the last Register/Update
}

// Snapshot returns a copy of the demand carrying only its inputs (path,
// queue, cap) with clean allocator bookkeeping — the form a reference batch
// Allocate expects when cross-checking an incrementally maintained set.
func (f *FlowDemand) Snapshot() FlowDemand {
	return FlowDemand{Path: f.Path, Queue: f.Queue, MaxRate: f.MaxRate}
}

// Allocator computes per-flow rates. It pre-sizes its state for one topology
// and is reused across allocation instants; it is not safe for concurrent
// use.
type Allocator struct {
	mode   Mode
	queues int
	eta    float64 // target utilization used when deriving WRR weights

	capacity func(topo.LinkID) float64 // the topology's nominal capacities
	// linkCap is each link's effective capacity: the nominal one, or what
	// SetLinkCapacity put in force on a failed or degraded link.
	linkCap  []float64
	residual []float64

	// Persistent registries maintained by Register/Unregister/Update.
	fabric    []*FlowDemand // registered fabric flows; f.idx is the index
	local     []*FlowDemand // registered host-local flows (empty paths)
	tierN     []int         // registered fabric flows per tier
	linkFlows [][]int32     // per-link fabric indices of the crossing flows
	// hopPos[f.idx][h] is f's position in linkFlows[f.Path[h]], for O(1)
	// swap-removes; inner slices stay pooled, so registering does not allocate.
	hopPos [][]int32
	// listed holds every link whose flow list was ever allocated (a link
	// joins on its first registration), so Reset clears only those.
	listed []topo.LinkID

	// Pending work: links whose components a delta touched since the last
	// Reallocate, or every component at once.
	seeds    []topo.LinkID
	allDirty bool

	// Component search state: the epoch stamps what the current Reallocate
	// reached (it only grows, so older stamps never match); compLinks and
	// fills hold the component in hand.
	epoch     uint32
	linkMark  []uint64 // per link: epoch<<32 | flows reached through it
	flowSeen  []uint32
	livePos   []int32 // per fabric index: position in the running fill, or -1
	compLinks []topo.LinkID
	fills     []fill // one per tier; fills[0] also carries the WRR spill

	// Reusable scratch (no per-Reallocate allocation).
	wrrShares  []float64
	wrrWeights []float64 // the weights every solved component was filled with
	wrrNext    []float64
	pool       []float64
	satBuf     []topo.LinkID // links that saturated in the current round
	spill      []int32       // the component's flows, gathered for the WRR spill

	// Cumulative work counters (see Stats), deterministic and all but free.
	stReallocs    int64
	stComponents  int64
	stTierSolves  int64
	stFlowsSolved int64
	stWFRounds    int64
}

// Stats are cumulative work counters since construction: Reallocate calls
// that did work, components they re-solved, water-fill passes (one per SPQ
// tier, WRR weighted phase and spill of a component), the flows those passes
// filled, and their progressive-filling rounds. They are a pure function of
// the demand trajectory; the engine folds them into Result.Counters.
type Stats struct {
	Reallocs         int64
	ComponentsSolved int64
	TierSolves       int64
	FlowsSolved      int64
	WaterfillRounds  int64
}

// Stats returns the allocator's cumulative work counters.
func (a *Allocator) Stats() Stats {
	return Stats{
		Reallocs:         a.stReallocs,
		ComponentsSolved: a.stComponents,
		TierSolves:       a.stTierSolves,
		FlowsSolved:      a.stFlowsSolved,
		WaterfillRounds:  a.stWFRounds,
	}
}

// Option configures an Allocator.
type Option func(*Allocator)

// WithUtilization sets the target utilization η used to convert per-queue
// demand shares into the offered loads ρ_k of the WRR weight formula.
// η must be in (0, 1); the default is 0.95.
func WithUtilization(eta float64) Option {
	return func(a *Allocator) { a.eta = eta }
}

// NewAllocator builds an allocator for the given fabric with the given
// number of priority queues (the paper uses 4 in evaluation; commodity
// switches support 8).
func NewAllocator(t *topo.Topology, queues int, mode Mode, opts ...Option) (*Allocator, error) {
	if queues < 1 {
		return nil, fmt.Errorf("netmod: need at least one queue, got %d", queues)
	}
	if mode != ModeSPQ && mode != ModeWRR {
		return nil, fmt.Errorf("netmod: unknown mode %v", mode)
	}
	n := t.NumLinks()
	a := &Allocator{
		mode:       mode,
		queues:     queues,
		eta:        0.95,
		capacity:   t.LinkCapacity,
		linkCap:    make([]float64, n),
		residual:   make([]float64, n),
		tierN:      make([]int, queues),
		linkFlows:  make([][]int32, n),
		linkMark:   make([]uint64, n),
		fills:      make([]fill, queues),
		wrrShares:  make([]float64, queues),
		wrrWeights: make([]float64, queues),
		wrrNext:    make([]float64, queues),
		pool:       make([]float64, n),
	}
	for l := range a.linkCap {
		a.linkCap[l] = t.LinkCapacity(topo.LinkID(l))
	}
	for q := range a.fills {
		a.fills[q].count = make([]int32, n)
		a.fills[q].touchedIdx = make([]int32, n)
	}
	for _, o := range opts {
		o(a)
	}
	if a.eta <= 0 || a.eta >= 1 {
		return nil, fmt.Errorf("netmod: utilization must be in (0,1), got %v", a.eta)
	}
	return a, nil
}

// Queues returns the number of priority tiers.
func (a *Allocator) Queues() int { return a.queues }

// Mode returns the configured allocation mode.
func (a *Allocator) Mode() Mode { return a.mode }

// rate tolerance: completions and saturation use this epsilon, scaled to
// typical 10G capacities.
const epsRate = 1e-3 // bytes/second

// SetLinkCapacity overrides link l's capacity to c bytes/second (0 = the
// link is down) until ClearLinkCapacity. The override takes effect at the
// next Reallocate, which re-solves the component of the flows crossing l
// (a link no flow crosses has nothing to re-solve). Overrides survive Reset
// and batch Allocate calls — they model the fabric, not the working set.
func (a *Allocator) SetLinkCapacity(l topo.LinkID, c float64) { a.setCap(l, max(c, 0)) }

// ClearLinkCapacity restores link l's nominal capacity.
func (a *Allocator) ClearLinkCapacity(l topo.LinkID) { a.setCap(l, a.capacity(l)) }

// setCap puts capacity c in force on link l and, when that changes it,
// queues the component of the flows crossing l for re-solving.
func (a *Allocator) setCap(l topo.LinkID, c float64) {
	//lint:ignore floatcmp change detection: an unchanged capacity leaves every rate as it is, bit for bit
	if c == a.linkCap[l] {
		return
	}
	a.linkCap[l] = c
	if len(a.linkFlows[l]) > 0 {
		a.seeds = append(a.seeds, l)
	}
}

// clampQueue maps an arbitrary Queue value into [0, queues).
func (a *Allocator) clampQueue(q int) int {
	if q < 0 {
		return 0
	}
	if q >= a.queues {
		return a.queues - 1
	}
	return q
}

// Register adds a flow to the allocator's working set. Host-local flows
// (empty path) receive their rate immediately and never dirty the fabric;
// fabric flows mark their component dirty. Registering an already-
// registered flow is a no-op.
func (a *Allocator) Register(f *FlowDemand) {
	if f.registered {
		return
	}
	f.registered = true
	f.capSeen = f.MaxRate
	if len(f.Path) == 0 {
		// Host-local transfer: the fabric does not constrain it, so an
		// uncapped one runs at the nominal line rate whatever faults hold.
		f.tier = -1
		f.idx = int32(len(a.local))
		a.local = append(a.local, f)
		f.Rate = f.MaxRate
		if f.Rate == 0 {
			f.Rate = a.capacity(0)
		}
		return
	}
	f.Rate = 0
	f.tier = a.clampQueue(f.Queue)
	a.tierN[f.tier]++
	f.idx = int32(len(a.fabric))
	a.fabric = append(a.fabric, f)
	if int(f.idx) == len(a.hopPos) {
		a.hopPos = append(a.hopPos, nil)
		a.flowSeen = append(a.flowSeen, 0)
		a.livePos = append(a.livePos, -1)
	}
	pos := a.hopPos[f.idx][:0]
	for _, l := range f.Path {
		if cap(a.linkFlows[l]) == 0 {
			a.listed = append(a.listed, l)
		}
		pos = append(pos, int32(len(a.linkFlows[l])))
		a.linkFlows[l] = append(a.linkFlows[l], f.idx)
	}
	a.hopPos[f.idx] = pos
	a.seeds = append(a.seeds, f.Path[0])
}

// Unregister removes a flow from the working set. Unregistering a flow that
// is not registered is a no-op.
func (a *Allocator) Unregister(f *FlowDemand) {
	if !f.registered {
		return
	}
	f.registered = false
	if f.tier < 0 {
		last := len(a.local) - 1
		moved := a.local[last]
		a.local[f.idx] = moved
		moved.idx = f.idx
		a.local[last] = nil
		a.local = a.local[:last]
		return
	}
	a.tierN[f.tier]--
	i, pos := f.idx, a.hopPos[f.idx]
	for h, l := range f.Path {
		fl := a.linkFlows[l]
		last := int32(len(fl) - 1)
		g := fl[last]
		fl[pos[h]] = g
		// Repoint the moved flow's hop on l (matched by position, so a path
		// crossing l twice stays consistent).
		gp := a.hopPos[g]
		for k, gl := range a.fabric[g].Path {
			if gl == l && gp[k] == last {
				gp[k] = pos[h]
				break
			}
		}
		a.linkFlows[l] = fl[:last]
	}
	// Removing f can split its component: every remaining piece on its path
	// is re-solved. The seeds also keep Dirty() true when nothing is left to
	// re-solve, because under WRR the tier shares moved.
	a.seeds = append(a.seeds, f.Path...)
	// The last fabric flow takes f's index, in its link lists too.
	last := int32(len(a.fabric) - 1)
	m := a.fabric[last]
	a.fabric[i] = m
	a.hopPos[i], a.hopPos[last] = a.hopPos[last], a.hopPos[i]
	m.idx = i
	if m != f {
		for h, l := range m.Path {
			a.linkFlows[l][a.hopPos[i][h]] = i
		}
	}
	a.fabric[last] = nil
	a.fabric = a.fabric[:last]
}

// Update notifies the allocator that a registered flow's Queue or MaxRate
// changed. Path changes are not supported: Unregister and Register instead.
// Calling Update on a flow whose fields did not change is a cheap no-op, so
// callers may over-report.
func (a *Allocator) Update(f *FlowDemand) {
	if !f.registered {
		return
	}
	//lint:ignore floatcmp change detection on a caller-set field: bitwise compare is intended; an epsilon would silently drop small real updates
	capMoved := f.MaxRate != f.capSeen
	f.capSeen = f.MaxRate
	if f.tier < 0 {
		if capMoved {
			f.Rate = f.MaxRate
			if f.Rate == 0 {
				f.Rate = a.capacity(0)
			}
		}
		return
	}
	if t := a.clampQueue(f.Queue); t != f.tier {
		a.tierN[f.tier]--
		a.tierN[t]++
		f.tier = t
	} else if !capMoved {
		return
	}
	a.seeds = append(a.seeds, f.Path[0])
}

// Dirty reports whether any delta since the last Reallocate requires rates
// to be recomputed.
func (a *Allocator) Dirty() bool { return a.allDirty || len(a.seeds) > 0 }

// Reset unregisters every flow, returning the allocator to its initial
// state. The next Reallocate after new registrations runs a full solve.
func (a *Allocator) Reset() {
	for i, f := range a.fabric {
		f.registered = false
		a.fabric[i] = nil
	}
	a.fabric = a.fabric[:0]
	// Every listed link, not the registered paths: batch callers may already
	// have rewritten the structs they registered last time.
	for _, l := range a.listed {
		a.linkFlows[l] = a.linkFlows[l][:0]
	}
	for i, f := range a.local {
		f.registered = false
		a.local[i] = nil
	}
	a.local = a.local[:0]
	clear(a.tierN)
	a.seeds = a.seeds[:0]
	a.allDirty = true
}

// Reallocate recomputes rates after deltas. The canonical allocation is
// per connected component — flows linked through shared links, across all
// tiers — and Reallocate re-solves exactly the components a delta reached,
// each one alone: flows that share no link with a delta keep their rates.
// This is bit-identical to a from-scratch solve, which runs the same
// per-component fill over every component: a component's solve depends only
// on its own flows, their links' capacities and (under WRR) the global tier
// weights, and progressive filling is iteration-order independent, so the
// order in which components or their flows are reached changes nothing.
// WRR weights couple all components through the tier shares, so a bitwise
// weight change re-solves everything. No-op when nothing is dirty.
func (a *Allocator) Reallocate() {
	if !a.Dirty() {
		return
	}
	a.stReallocs++
	if a.epoch++; a.epoch == 0 { // wrapped: clear the stamps so none is stale
		clear(a.linkMark)
		clear(a.flowSeen)
		a.epoch = 1
	}
	if a.mode == ModeWRR && a.refreshWeights() {
		a.allDirty = true
	}
	if a.allDirty {
		for i, f := range a.fabric {
			if a.flowSeen[i] != a.epoch {
				a.solve(f.Path[0])
			}
		}
	} else {
		for _, l := range a.seeds {
			if uint32(a.linkMark[l]>>32) != a.epoch && len(a.linkFlows[l]) > 0 {
				a.solve(l)
			}
		}
	}
	a.seeds = a.seeds[:0]
	a.allDirty = false
}

// Allocate assigns Rate to every flow in flows, replacing any previously
// registered working set — the batch entry point, equivalent to Reset,
// Register for every flow, and one full Reallocate. Rates satisfy:
//
//   - per-link conservation: the sum of rates crossing any link never
//     exceeds its capacity;
//   - SPQ: a tier receives bandwidth on a link only from what higher tiers
//     left; WRR: each tier is guaranteed its weight share, and unused
//     guarantees spill over (work conserving);
//   - within a tier, max-min fairness subject to MaxRate caps.
func (a *Allocator) Allocate(flows []*FlowDemand) {
	a.Reset()
	for _, f := range flows {
		// The batch contract predates registration: the input is the whole
		// working set, whatever state the structs carry (e.g. snapshots of
		// demands registered elsewhere).
		f.registered = false
		a.Register(f)
	}
	a.Reallocate()
	// An empty flow set registers nothing, leaving Reset's forced dirty
	// marker in place; clear it so Dirty() stays accurate.
	a.allDirty = false
}

// refreshWeights recomputes the WRR tier weights from the registered tier
// sizes and reports whether they moved bitwise since the last solve.
func (a *Allocator) refreshWeights() bool {
	total := 0.0
	for q, n := range a.tierN {
		a.wrrShares[q] = float64(n)
		total += a.wrrShares[q]
	}
	if total > 0 {
		for q := range a.wrrShares {
			a.wrrShares[q] /= total
		}
	}
	next := starvationWeightsInto(a.wrrNext, a.wrrShares, a.eta)
	for q, w := range next {
		//lint:ignore floatcmp a component keeps its rates only while the weights it was filled with are bitwise current; an epsilon would let stale rates survive
		if w != a.wrrWeights[q] {
			a.wrrNext, a.wrrWeights = a.wrrWeights, next
			return true
		}
	}
	return false
}

// fill is one water-fill's working set: its live flows and, per link, how
// many of them cross it. The allocator keeps one per tier so the component
// search can sort flows straight into their tier's fill.
type fill struct {
	count      []int32       // per-link unfrozen crossing count
	touchedIdx []int32       // per-link position in touched (valid for touched links)
	touched    []topo.LinkID // links with count > 0, compacted
	live       []int32       // fabric indices of the unfrozen flows, compacted
	level      float64       // water level: a live flow's rate is Rate+level
}

// enlist adds f to fill fl, counted on every link of its path, and on the
// same walk extends the component search: links first reached join
// compLinks, and every link counts the flows reached through it.
//
//alloc:free appends into the pooled fill and search arrays
func (a *Allocator) enlist(fl *fill, f *FlowDemand) {
	fl.live = append(fl.live, f.idx)
	for _, l := range f.Path {
		if fl.count[l] == 0 {
			fl.touchedIdx[l] = int32(len(fl.touched))
			fl.touched = append(fl.touched, l)
		}
		fl.count[l]++
		m := a.linkMark[l]
		if uint32(m>>32) != a.epoch {
			m = uint64(a.epoch) << 32
			a.compLinks = append(a.compLinks, l)
		}
		a.linkMark[l] = m + 1
	}
}

// freeze retires f from fill fl at the current level: its path counts drop,
// links left with no unfrozen crossing flow leave the touched list, and the
// flow leaves the live set. All removals are O(1) swap-removes.
//
//alloc:free swap-removes over the compacted live/touched arrays
func (a *Allocator) freeze(fl *fill, f *FlowDemand) {
	f.Rate += fl.level
	for _, l := range f.Path {
		fl.count[l]--
		if fl.count[l] == 0 {
			ti := fl.touchedIdx[l]
			last := len(fl.touched) - 1
			lastL := fl.touched[last]
			fl.touched[ti] = lastL
			fl.touchedIdx[lastL] = ti
			fl.touched = fl.touched[:last]
		}
	}
	p := a.livePos[f.idx]
	last := len(fl.live) - 1
	g := fl.live[last]
	fl.live[p] = g
	a.livePos[g], a.livePos[f.idx] = p, -1
	fl.live = fl.live[:last]
}

// solve re-solves the connected component reached from seed. Under SPQ the
// tiers fill in priority order, each from the residual the tiers above it
// left; under WRR each tier fills its weight share of every link and the
// leftover pool then spills over all flows below their caps. Every per-link
// pass runs over the component's links only.
func (a *Allocator) solve(seed topo.LinkID) {
	a.stComponents++
	a.collect(seed)
	links := a.compLinks
	if a.mode == ModeSPQ {
		for _, l := range links {
			a.residual[l] = a.linkCap[l]
		}
		for q := range a.fills {
			a.waterfill(&a.fills[q], len(links))
		}
		return
	}

	// WRR phase 1: per-tier guaranteed share. Each tier fills its slice of
	// every link, then returns what it did not consume to the pool.
	spill := a.spill[:0]
	for _, l := range links {
		a.pool[l] = a.linkCap[l]
	}
	for q := range a.fills {
		fl := &a.fills[q]
		if len(fl.live) == 0 {
			continue
		}
		// The fill empties as it runs; keep its flows for the spill.
		spill = append(spill, fl.live...)
		w := a.wrrWeights[q]
		for _, l := range links {
			a.residual[l] = a.pool[l] * w
		}
		a.waterfill(fl, len(links))
		for _, l := range links {
			a.pool[l] -= a.pool[l]*w - a.residual[l]
		}
	}
	// Phase 2: spill leftover capacity to every flow not yet at its cap.
	for _, l := range links {
		a.residual[l] = a.pool[l]
	}
	fl := &a.fills[0]
	for _, j := range spill {
		if f := a.fabric[j]; f.MaxRate <= 0 || !fmath.AtLeast(f.Rate, f.MaxRate, epsRate) {
			a.enlist(fl, f)
		}
	}
	a.spill = spill
	a.waterfill(fl, len(links))
}

// collect gathers the connected component containing seed by breadth-first
// search over the persistent per-link flow lists: its links into compLinks,
// and its flows, rates reset, straight into their tier's fill. No other
// pass over the component's paths precedes the fills, and the search stops
// scanning link lists once it has reached every registered flow.
//
//alloc:free one pass over the component reusing the allocator's pooled scratch
func (a *Allocator) collect(seed topo.LinkID) {
	a.compLinks = append(a.compLinks[:0], seed)
	a.linkMark[seed] = uint64(a.epoch) << 32
	reached := 0
	for i := 0; i < len(a.compLinks) && reached < len(a.fabric); i++ {
		l := a.compLinks[i]
		if int(uint32(a.linkMark[l])) == len(a.linkFlows[l]) {
			continue // every flow crossing l was reached through other links
		}
		for _, j := range a.linkFlows[l] {
			if a.flowSeen[j] == a.epoch {
				continue
			}
			a.flowSeen[j] = a.epoch
			f := a.fabric[j]
			f.Rate = 0
			a.enlist(&a.fills[f.tier], f)
			reached++
		}
	}
}

// capSlack over-bounds the float error the capLB bookkeeping in waterfill
// can accumulate in one round (~1e-12 relative, versus ~1e-16 actual), so
// the scan-skip decisions stay conservative. Slack only gates which scans
// run — never the arithmetic — so overshooting costs a redundant scan, not
// correctness.
func capSlack(x, d float64) float64 {
	return 1e-12 * (math.Abs(x) + math.Abs(d) + 1)
}

// waterfill runs progressive filling over fl against the current residual
// capacities of the component's nLinks links: all live flows' rates rise
// together by one shared water level, which a flow's rate takes on when it
// freezes — a link on its path saturates or it reaches MaxRate. Residuals
// are decremented in place, and fl is empty on return. An empty fill is a
// no-op.
//
// Every structural shortcut below is a bit-exact rewrite of the naive full
// scans — the iteration sets shrink, never the arithmetic:
//
//   - The round's rise d is a pure min, so scanning only touched links (all
//     of which have count > 0 by construction) and skipping the cap scan
//     when capLB proves no cap can bound d yields the same value.
//   - The shared level replaces a per-round pass over the live flows. A
//     fill that starts from rate 0 (SPQ tiers, WRR weighted phases) gives
//     each flow exactly the sum of the rounds' rises; the WRR spill adds
//     the level to the phase-1 rate once.
//   - Count decrements commute, so freeze order within a round is free; a
//     round's freeze set is determined by residuals fixed before the sweep,
//     so walking only the flows of links that saturated this round
//     (a.linkFlows, filtered by livePos)
//     freezes exactly the flows the full per-flow path scan would.
//   - capLB conservatively lower-bounds the live flows' smallest cap
//     headroom (MaxRate − rate). It decides only whether the exact scans
//     run, never what they compute, so its float slack (capSlack) cannot
//     perturb rates.
//
//alloc:free the per-solve rounds run entirely over the pooled fill arrays
func (a *Allocator) waterfill(fl *fill, nLinks int) {
	if len(fl.live) == 0 {
		return
	}
	for p, j := range fl.live {
		a.livePos[j] = int32(p)
	}
	fl.level = 0
	a.stTierSolves++
	a.stFlowsSolved += int64(len(fl.live))
	// Each round saturates at least one link or caps at least one flow, so
	// rounds are bounded; the guard protects against float corner cases.
	maxRounds := nLinks + len(fl.live) + 2
	capLB := math.Inf(-1) // forces an exact cap scan in round one
	for round := 0; len(fl.live) > 0 && round < maxRounds; round++ {
		a.stWFRounds++
		// The water level can rise by the smallest per-link fair share...
		linkMin := -1.0
		for _, l := range fl.touched {
			s := a.residual[l] / float64(fl.count[l])
			if linkMin < 0 || s < linkMin {
				linkMin = s
			}
		}
		// ...or until the nearest per-flow cap, whichever is smaller. The
		// scan only runs when a cap could actually bound this round.
		d := linkMin
		if linkMin < 0 || linkMin > capLB {
			rm := math.Inf(1)
			hasCap := false
			for _, j := range fl.live {
				f := a.fabric[j]
				if f.MaxRate <= 0 {
					continue
				}
				hasCap = true
				if room := f.MaxRate - (f.Rate + fl.level); room < rm {
					rm = room
				}
			}
			capLB = rm // +Inf when no live flow is capped, skipping all cap work
			if hasCap && (d < 0 || rm < d) {
				d = rm
			}
		}
		if d < 0 {
			break // no constrained links and no caps: nothing bounds rates
		}
		// No live flow can reach its cap this round when the smallest
		// headroom exceeds the rise by more than the freeze tolerance.
		sweepCaps := !math.IsInf(capLB, 1) && capLB-d <= epsRate+capSlack(capLB, d)
		a.satBuf = a.satBuf[:0]
		if d > 0 {
			fl.level += d
			for _, l := range fl.touched {
				a.residual[l] -= d * float64(fl.count[l])
				if a.residual[l] < 0 {
					a.residual[l] = 0
				}
				if a.residual[l] <= epsRate {
					a.satBuf = append(a.satBuf, l)
				}
			}
		} else {
			// d == 0: nothing moved, but links may sit at (or below) the
			// saturation tolerance already — their flows must still freeze.
			for _, l := range fl.touched {
				if a.residual[l] <= epsRate {
					a.satBuf = append(a.satBuf, l)
				}
			}
		}
		if !math.IsInf(capLB, 1) {
			capLB -= d + capSlack(capLB, d)
		}
		// Freeze capped flows (only when one can exist this round)...
		if sweepCaps {
			for i := 0; i < len(fl.live); i++ {
				f := a.fabric[fl.live[i]]
				if f.MaxRate > 0 && fmath.AtLeast(f.Rate+fl.level, f.MaxRate, epsRate) {
					a.freeze(fl, f)
					i--
				}
			}
		}
		// ...then every flow crossing a link that saturated this round.
		for _, l := range a.satBuf {
			for _, j := range a.linkFlows[l] {
				if a.livePos[j] >= 0 {
					a.freeze(fl, a.fabric[j])
				}
			}
		}
	}
	// Only the round guard or an unbounded fill leaves flows live.
	for _, l := range fl.touched {
		fl.count[l] = 0
	}
	for _, j := range fl.live {
		a.fabric[j].Rate += fl.level
		a.livePos[j] = -1
	}
	fl.touched, fl.live = fl.touched[:0], fl.live[:0]
}
