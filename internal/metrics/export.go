package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"gurita/internal/coflow"
	"gurita/internal/sim"
)

// CampaignSchema versions every artifact derived from cached trial result
// documents: the campaign cache layout (internal/runner cache entries and the
// Schema column of failure manifests, via CampaignOptions' schema), the
// daemon's persisted campaign state, and the CI cache directories. It lives
// here because what it actually versions is the ResultDoc wire format plus
// the simulator behavior that produces it: bump it whenever either changes in
// a way that invalidates old entries.
//
// v2: result documents carry engine counters (Result.Counters), so v1
// entries decode without them and must not satisfy v2 lookups.
//
// v3: the rate allocator solves each connected component of flows on its
// own, which moves rates (and so every result) by float rounding, and the
// counters gained netmod_components_solved and netmod_flows_solved.
const CampaignSchema = "gurita-campaign-v3"

// WorkerManifestSchema versions the per-worker manifest shards multi-process
// campaigns write under <cache>/manifests/ (runner.WorkerManifest). It is a
// format version, deliberately independent of CampaignSchema: shards bind to
// their campaign through the grid hash, which is computed over trial cache
// keys and therefore already embeds the campaign schema. Bump it only when
// the shard layout itself changes incompatibly.
const WorkerManifestSchema = "gurita-worker-manifest-v1"

// ResultDoc is the stable on-disk schema for a simulation result; it
// decouples external tooling — and the campaign runner's result cache —
// from the sim package's internal layout. It round-trips: NewResultDoc
// captures a finished run, Result reconstructs an equivalent sim.Result
// (Category is derived from TotalBytes and is not read back).
type ResultDoc struct {
	Scheduler      string      `json:"scheduler"`
	AvgJCT         float64     `json:"avg_jct"`
	AvgCCT         float64     `json:"avg_cct"`
	EndTime        float64     `json:"end_time"`
	Events         int64       `json:"events"`
	TotalBytes     int64       `json:"total_bytes"`
	MaxActiveFlows int         `json:"max_active_flows"`
	Jobs           []JobDoc    `json:"jobs"`
	Coflows        []CoflowDoc `json:"coflows,omitempty"`
	// Counters are the engine's deterministic work counters and flattened
	// histograms (see obs.Registry.Merge), always recorded by the engine;
	// absent only in documents written before the field existed.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// JobDoc is one finished job row.
type JobDoc struct {
	ID         int64   `json:"id"`
	Arrival    float64 `json:"arrival"`
	Finished   float64 `json:"finished"`
	JCT        float64 `json:"jct"`
	TotalBytes int64   `json:"total_bytes"`
	Category   string  `json:"category"`
	NumStages  int     `json:"num_stages"`
	NumCoflows int     `json:"num_coflows"`
}

// CoflowDoc is one finished coflow row.
type CoflowDoc struct {
	ID       int64   `json:"id"`
	JobID    int64   `json:"job_id"`
	Stage    int     `json:"stage"`
	Started  float64 `json:"started"`
	Finished float64 `json:"finished"`
	CCT      float64 `json:"cct"`
	Bytes    int64   `json:"bytes"`
	Width    int     `json:"width"`
}

// NewResultDoc captures a run in the export schema. includeCoflows controls
// whether the (potentially large) per-coflow rows are emitted alongside the
// per-job rows; AvgCCT is recorded either way.
func NewResultDoc(r *sim.Result, includeCoflows bool) ResultDoc {
	doc := ResultDoc{
		Scheduler:      r.Scheduler,
		AvgJCT:         Summarize(JCTs(r)).Mean,
		AvgCCT:         r.AvgCCT(),
		EndTime:        r.EndTime,
		Events:         r.Events,
		TotalBytes:     r.TotalBytes,
		MaxActiveFlows: r.MaxActiveFlows,
	}
	for _, j := range r.Jobs {
		doc.Jobs = append(doc.Jobs, JobDoc{
			ID:         int64(j.JobID),
			Arrival:    j.Arrival,
			Finished:   j.Finished,
			JCT:        j.JCT,
			TotalBytes: j.TotalBytes,
			Category:   CategoryOf(j.TotalBytes).String(),
			NumStages:  j.NumStages,
			NumCoflows: j.NumCoflows,
		})
	}
	if includeCoflows {
		for _, c := range r.Coflows {
			doc.Coflows = append(doc.Coflows, CoflowDoc{
				ID:       int64(c.CoflowID),
				JobID:    int64(c.JobID),
				Stage:    c.Stage,
				Started:  c.Started,
				Finished: c.Finished,
				CCT:      c.CCT,
				Bytes:    c.Bytes,
				Width:    c.Width,
			})
		}
	}
	if len(r.Counters) > 0 {
		doc.Counters = make(map[string]int64, len(r.Counters))
		for k, v := range r.Counters {
			doc.Counters[k] = v
		}
	}
	return doc
}

// ValidationError is the typed error ReadResultJSON and Validate report for
// a structurally well-formed document carrying values the aggregation
// pipeline cannot digest (non-finite times, negative counts). Field names
// the offending location.
type ValidationError struct {
	Field  string
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("metrics: invalid result document: %s: %s", e.Field, e.Reason)
}

// Validate rejects documents whose numeric payloads would poison downstream
// aggregation: every time, JCT/CCT, and average must be finite (NaN and ±Inf
// are always bugs — the simulator cannot produce them — and one NaN silently
// corrupts every mean and percentile computed from the doc), completion
// times and averages non-negative, and byte/event counts non-negative.
// Zero-flow coflows (zero bytes, zero width, zero CCT) are legal: generators
// can emit structural placeholder stages.
func (d *ResultDoc) Validate() error {
	check := func(field string, v float64, allowNeg bool) *ValidationError {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &ValidationError{Field: field, Reason: fmt.Sprintf("non-finite value %v", v)}
		}
		if !allowNeg && v < 0 {
			return &ValidationError{Field: field, Reason: fmt.Sprintf("negative value %v", v)}
		}
		return nil
	}
	if err := check("avg_jct", d.AvgJCT, false); err != nil {
		return err
	}
	if err := check("avg_cct", d.AvgCCT, false); err != nil {
		return err
	}
	if err := check("end_time", d.EndTime, false); err != nil {
		return err
	}
	if d.Events < 0 || d.TotalBytes < 0 || d.MaxActiveFlows < 0 {
		return &ValidationError{Field: "events/total_bytes/max_active_flows", Reason: "negative count"}
	}
	for i, j := range d.Jobs {
		f := func(name string) string { return fmt.Sprintf("jobs[%d].%s", i, name) }
		if err := check(f("arrival"), j.Arrival, false); err != nil {
			return err
		}
		if err := check(f("finished"), j.Finished, false); err != nil {
			return err
		}
		if err := check(f("jct"), j.JCT, false); err != nil {
			return err
		}
		if j.TotalBytes < 0 {
			return &ValidationError{Field: f("total_bytes"), Reason: "negative count"}
		}
	}
	for i, c := range d.Coflows {
		f := func(name string) string { return fmt.Sprintf("coflows[%d].%s", i, name) }
		if err := check(f("started"), c.Started, false); err != nil {
			return err
		}
		if err := check(f("finished"), c.Finished, false); err != nil {
			return err
		}
		if err := check(f("cct"), c.CCT, false); err != nil {
			return err
		}
		if c.Bytes < 0 || c.Width < 0 {
			return &ValidationError{Field: f("bytes"), Reason: "negative count"}
		}
	}
	return nil
}

// Result reconstructs a sim.Result from the document. Per-job rows carry
// everything the aggregation pipeline consumes (JCTs, paired improvements,
// Table 1 categories); coflow rows are restored only if the document was
// written with them.
func (d *ResultDoc) Result() *sim.Result {
	r := &sim.Result{
		Scheduler:      d.Scheduler,
		EndTime:        d.EndTime,
		Events:         d.Events,
		TotalBytes:     d.TotalBytes,
		MaxActiveFlows: d.MaxActiveFlows,
	}
	for _, j := range d.Jobs {
		r.Jobs = append(r.Jobs, sim.JobResult{
			JobID:      coflow.JobID(j.ID),
			Arrival:    j.Arrival,
			Finished:   j.Finished,
			JCT:        j.JCT,
			TotalBytes: j.TotalBytes,
			NumStages:  j.NumStages,
			NumCoflows: j.NumCoflows,
		})
	}
	for _, c := range d.Coflows {
		r.Coflows = append(r.Coflows, sim.CoflowResult{
			CoflowID: coflow.CoflowID(c.ID),
			JobID:    coflow.JobID(c.JobID),
			Stage:    c.Stage,
			Started:  c.Started,
			Finished: c.Finished,
			CCT:      c.CCT,
			Bytes:    c.Bytes,
			Width:    c.Width,
		})
	}
	if len(d.Counters) > 0 {
		r.Counters = make(map[string]int64, len(d.Counters))
		for k, v := range d.Counters {
			r.Counters[k] = v
		}
	}
	return r
}

// WriteResultJSON serializes a run's results for external analysis tools.
// includeCoflows controls whether the (potentially large) per-coflow rows
// are emitted alongside the per-job rows.
func WriteResultJSON(w io.Writer, r *sim.Result, includeCoflows bool) error {
	doc := NewResultDoc(r, includeCoflows)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("metrics: encoding result: %w", err)
	}
	return nil
}

// ReadResultJSON parses a document written by WriteResultJSON back into a
// sim.Result (see ResultDoc.Result for what is restored). Documents carrying
// non-finite or negative payloads are rejected with a *ValidationError.
func ReadResultJSON(r io.Reader) (*sim.Result, error) {
	var doc ResultDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("metrics: decoding result: %w", err)
	}
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	return doc.Result(), nil
}
