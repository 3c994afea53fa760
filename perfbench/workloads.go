package main

import (
	"fmt"
	"math/rand"

	gurita "gurita"
)

// workload is one named input of the benchmark: a grid of trials, grouped
// into rows. A row is one workload instance (one fabric and one job set)
// run under each of its schedulers, so a row is built once per set-up.
type workload struct {
	name string
	rows [][]gurita.TrialSpec
}

// grid returns the workload's trials in row order.
func (w *workload) grid() []gurita.TrialSpec {
	var g []gurita.TrialSpec
	for _, r := range w.rows {
		g = append(g, r...)
	}
	return g
}

// workloadNames lists the workloads in the order BENCHMARK.json declares
// them.
var workloadNames = []string{"trace-k8", "bursty-k48"}

// newWorkload builds the named workload for a seed.
//
// Both workloads are fixed instances (the published quick- and paper-scale
// configurations): the work in one seed-drawn instance varies by 3-10x
// between seeds, so repeated runs could not agree within any useful bound.
// The seed orders their trials instead.
func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "trace-k8":
		// Figures 5/6: the fb-tao trace graft on the 8-pod FatTree, every
		// scheduler one after another.
		kinds := gurita.AllKinds()
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		row := make([]gurita.TrialSpec, len(kinds))
		for i, k := range kinds {
			row[i] = gurita.TrialSpec{
				Scheduler: k,
				Scenario:  gurita.CampaignTrace,
				Structure: gurita.StructureFBTao,
				Scale:     gurita.QuickScale(),
			}
		}
		return &workload{name: name, rows: [][]gurita.TrialSpec{row}}, nil
	case "bursty-k48":
		// A slice of Figure 7: the paper-scale bursty mix on the 48-pod
		// FatTree, Gurita on its WRR data plane.
		sc := gurita.PaperScale()
		sc.BurstyJobs = 10
		return &workload{name: name, rows: [][]gurita.TrialSpec{{{
			Scheduler: gurita.KindGurita,
			Scenario:  gurita.CampaignBursty,
			Structure: gurita.StructureFBTao,
			Scale:     sc,
		}}}}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
}

// wrrPlane reports whether a built-in scheduler runs on the WRR data plane,
// as Scenario.Run pairs them. The byte check against RunCampaign catches any
// drift from the program's own pairing.
func wrrPlane(k gurita.SchedulerKind) bool {
	return k == gurita.KindGurita || k == gurita.KindGuritaPlus
}

// podCount is the FatTree size a spec builds, for timing the fabric alone.
func podCount(t gurita.TrialSpec) int {
	if t.Scenario == gurita.CampaignBursty {
		return t.Scale.BurstyFatTreeK
	}
	return t.Scale.FatTreeK
}
