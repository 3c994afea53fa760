package main

import (
	"math"

	gurita "gurita"
	"gurita/internal/obs"
)

// trialTrace times one traced simulation from outside the engine. The
// scheduler decorator times every call into the policy; the Obs sink opens
// a solver span at each reallocation event and closes it at the engine's
// next callback into either of them. That solver span is an upper bound: it
// also covers the engine's completion scan and clock advance.
type trialTrace struct {
	log    *spanLog
	parent int64 // the trial's span id
	trial  string
	cov    *coverage

	assignNs, notifyNs, solveNs int64
	assignCalls                 int64
	offered, dirty              int64
	solveOpen                   int64 // start of the open solver span, or -1
	callSpans                   int   // per-call spans recorded
}

// maxCallSpans bounds the per-call spans (sched.assign, netmod.solve) a
// trial records; the rest are only counted, so a traced run's memory stays
// bounded while every trial keeps a sample of its calls.
const maxCallSpans = 10000

// callSpan records one per-call span, or counts it as dropped past
// maxCallSpans.
func (t *trialTrace) callSpan(name string, start, end int64) {
	if t.callSpans >= maxCallSpans {
		t.log.dropped.Add(1)
		return
	}
	t.callSpans++
	t.log.add(t.parent, t.trial, name, start, end)
}

func newTrialTrace(log *spanLog, parent int64, trial string, start int64) *trialTrace {
	return &trialTrace{log: log, parent: parent, trial: trial, cov: newCoverage(start, math.MaxInt64), solveOpen: -1}
}

// enter marks an engine callback: it closes any open solver span and
// returns the callback's start time.
func (t *trialTrace) enter() int64 {
	now := t.log.now()
	t.closeSolve(now)
	return now
}

func (t *trialTrace) closeSolve(now int64) {
	if t.solveOpen < 0 {
		return
	}
	t.solveNs += now - t.solveOpen
	t.cov.add(t.solveOpen, now)
	t.callSpan("netmod.solve", t.solveOpen, now)
	t.solveOpen = -1
}

func (t *trialTrace) leaveNotify(start int64) {
	end := t.log.now()
	t.notifyNs += end - start
	t.cov.add(start, end)
}

// end closes the trial at time end and returns its self time: the part of
// the run neither the scheduler nor the solver spans cover.
func (t *trialTrace) end(end int64) int64 {
	t.closeSolve(end)
	t.cov.to = end
	return t.cov.self()
}

// Event implements gurita.ObsSink.
func (t *trialTrace) Event(e gurita.ObsEvent) {
	if t.solveOpen >= 0 {
		t.closeSolve(t.log.now())
	}
	if e.Kind == obs.KindReallocation {
		t.solveOpen = t.log.now()
	}
}

// Decision implements gurita.ObsSink.
func (t *trialTrace) Decision(gurita.ObsDecision) {
	if t.solveOpen >= 0 {
		t.closeSolve(t.log.now())
	}
}

// timedScheduler decorates a Scheduler with call timing. It forwards Name,
// so results name the inner policy; wrap adds DecisionScore forwarding when
// the inner policy has it, so the decision audit log is unchanged too.
type timedScheduler struct {
	inner gurita.Scheduler
	tr    *trialTrace
}

type decisionScorer interface {
	DecisionScore(f *gurita.FlowState) (score float64, ok bool)
}

type scoringScheduler struct {
	*timedScheduler
	scorer decisionScorer
}

func (s scoringScheduler) DecisionScore(f *gurita.FlowState) (float64, bool) {
	return s.scorer.DecisionScore(f)
}

// wrap decorates inner with the trial's timers.
func wrap(inner gurita.Scheduler, tr *trialTrace) gurita.Scheduler {
	t := &timedScheduler{inner: inner, tr: tr}
	if ds, ok := inner.(decisionScorer); ok {
		return scoringScheduler{t, ds}
	}
	return t
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Init(env gurita.SchedulerEnv) {
	t := s.tr.enter()
	s.inner.Init(env)
	s.tr.leaveNotify(t)
}

func (s *timedScheduler) OnJobArrival(j *gurita.JobState) {
	t := s.tr.enter()
	s.inner.OnJobArrival(j)
	s.tr.leaveNotify(t)
}

func (s *timedScheduler) OnCoflowStart(c *gurita.CoflowState) {
	t := s.tr.enter()
	s.inner.OnCoflowStart(c)
	s.tr.leaveNotify(t)
}

func (s *timedScheduler) OnCoflowComplete(c *gurita.CoflowState) {
	t := s.tr.enter()
	s.inner.OnCoflowComplete(c)
	s.tr.leaveNotify(t)
}

func (s *timedScheduler) OnJobComplete(j *gurita.JobState) {
	t := s.tr.enter()
	s.inner.OnJobComplete(j)
	s.tr.leaveNotify(t)
}

func (s *timedScheduler) AssignQueues(now float64, flows, added, dirty []*gurita.FlowState) []*gurita.FlowState {
	t := s.tr.enter()
	out := s.inner.AssignQueues(now, flows, added, dirty)
	end := s.tr.log.now()
	s.tr.assignNs += end - t
	s.tr.assignCalls++
	s.tr.offered += int64(len(flows))
	s.tr.dirty += int64(len(out))
	s.tr.cov.add(t, end)
	s.tr.callSpan("sched.assign", t, end)
	return out
}
