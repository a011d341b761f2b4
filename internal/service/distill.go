package service

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
)

// DistillRequest is a POST /corpus/distill body: a seed corpus —
// generated (seed_count/seed, exactly like a job submission) and/or
// user-supplied — plus the distillation knobs. The endpoint scores the
// corpus with one profiling dry-run per seed and returns the minimal
// maximally-diverse subset, without creating a job.
type DistillRequest struct {
	// SeedCount generates that many corpus seeds from Seed; user seeds
	// in Seeds are appended after them. Default 8 when Seeds is empty.
	SeedCount int             `json:"seed_count,omitempty"`
	Seed      int64           `json:"seed,omitempty"` // RNG seed (default 1)
	Seeds     []core.SeedSpec `json:"seeds,omitempty"`
	// Spread is the minimum pairwise distance a kept seed must add
	// (<= 0 uses corpus.DefaultDistillSpread).
	Spread float64 `json:"spread,omitempty"`
	// MaxKeep caps the subset size (0 = no cap).
	MaxKeep int `json:"max_keep,omitempty"`
	// Backend pins the execution backend for the profiling dry-runs;
	// empty inherits the daemon's default.
	Backend string `json:"backend,omitempty"`
}

// Validate normalizes a distillation request in place: the corpus
// fields get a campaign spec's defaults and seed vetting.
func (r *DistillRequest) Validate() error {
	if r.MaxKeep < 0 {
		return fmt.Errorf("max_keep must be non-negative")
	}
	spec := r.spec()
	if err := spec.Validate(); err != nil {
		return err
	}
	r.SeedCount, r.Seed, r.Seeds = spec.SeedCount, spec.Seed, spec.Seeds
	return nil
}

// spec is the campaign spec holding the request's corpus and backend.
func (r *DistillRequest) spec() core.JobSpec {
	return core.JobSpec{SeedCount: r.SeedCount, Seed: r.Seed, Seeds: r.Seeds, Backend: r.Backend}
}

// Distill serves one distillation request on the daemon's execution
// backend. No score cache is threaded: requests are one-shot, and the
// shared parse cache already absorbs the repeated-submission cost.
func (s *Scheduler) Distill(ctx context.Context, req *DistillRequest) (*corpus.DistillReport, error) {
	spec := req.spec()
	executor, err := s.executorFor(spec)
	if err != nil {
		return nil, err
	}
	_, rep, err := core.DistillSeeds(ctx, spec.Pool(), executor, "", req.Spread, req.MaxKeep)
	if err != nil {
		return nil, err
	}
	s.m.distills.Inc()
	s.m.distillSubmitted.Add(rep.Submitted)
	s.m.distillKept.Add(rep.Kept)
	s.logf("corpus distill: %d seeds -> %d kept (spread %g)", rep.Submitted, rep.Kept, rep.Spread)
	return rep, nil
}
