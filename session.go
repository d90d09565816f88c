package coyote

import (
	"errors"

	"github.com/coyote-te/coyote/internal/delta"
)

// This file is the public face of the online TE controller
// (internal/delta): a long-lived Session whose configuration evolves with
// the network — demand-box updates warm-start the optimizer from the
// previous log-ratio/Adam state and carry over the adversary's critical
// matrices; link failures swap in precomputed failover configurations and
// refine; and lie synthesis emits minimal, verified LSA diffs so
// reconfiguration churn is a measured quantity. cmd/coyote-serve exposes
// the same machinery over HTTP.

// Session is a long-lived COYOTE controller over one topology. Unlike
// Engine.Compute — one cold batch optimization per call — a Session
// recomputes incrementally as the demand uncertainty set drifts and links
// fail or recover. It is safe for concurrent use; for a fixed Seed and a
// fixed mutation sequence, results are bit-identical for any
// Options.Workers value.
type Session struct {
	s *delta.Session
}

// RecomputeEvent describes one Session transition: what changed, whether
// the recompute was warm, the resulting worst-case performance, the
// adversarial effort spent, and (for lie emissions) the LSA churn.
type RecomputeEvent = delta.Event

// NewSession validates the topology and bounds, runs the initial cold
// computation, and returns a live session. Options are interpreted as for
// New/Compute; warm recomputes derive reduced iteration counts from them.
// LocalSearchWeights is not supported for sessions (weights must stay
// fixed so DAGs remain comparable across recomputes).
func NewSession(t *Topology, bounds *Bounds, opts ...Options) (*Session, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.LocalSearchWeights {
		return nil, errors.New("coyote: LocalSearchWeights is not supported for sessions (weights must stay fixed across recomputes)")
	}
	s, err := delta.NewSession(t.g, bounds, delta.Config{
		OptIters:           o.OptimizerIters,
		AdvIters:           o.AdversarialIters,
		Samples:            o.Samples,
		Eps:                o.Eps,
		Seed:               o.Seed,
		Workers:            o.Workers,
		PrecomputeFailover: o.PrecomputeFailover,
	})
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Config snapshots the session's current configuration in the same shape
// Compute returns.
func (s *Session) Config() *Config { return newConfig(s.s.Solved()) }

// UpdateBounds replaces the demand uncertainty set and recomputes with a
// warm start: the splitting optimizer resumes from its previous state, the
// adversary's accumulated critical matrices carry over, and OPTDAG
// normalizations already computed for these DAGs are reused.
func (s *Session) UpdateBounds(bounds *Bounds) (RecomputeEvent, error) {
	return s.s.UpdateBounds(bounds)
}

// Fail marks a link (an EdgeID of this session's topology; either
// direction of a bidirectional pair) as failed and recomputes on the
// surviving topology. Failures that would partition the network are
// rejected and leave the session unchanged.
func (s *Session) Fail(link EdgeID) (RecomputeEvent, error) {
	return s.s.Fail(link)
}

// Recover clears a failed link and recomputes; recovering the last failure
// warm-starts from the most recent intact-topology state.
func (s *Session) Recover(link EdgeID) (RecomputeEvent, error) {
	return s.s.Recover(link)
}

// FailedLinks lists the currently failed links.
func (s *Session) FailedLinks() []EdgeID { return s.s.FailedLinks() }

// Events returns the session's transition log — the controller's
// warm-vs-cold cost and churn statistics.
func (s *Session) Events() []RecomputeEvent { return s.s.Events() }

// LieUpdate is a verified lie configuration for the session's current
// state plus the minimal LSA delta against the previously emitted one,
// lies matched on their identity (destination, lied-to router, forwarding
// adjacency, replica).
type LieUpdate struct {
	LieSet
	// Added/Removed/Updated count the LSAs a Fibbing controller must
	// inject, withdraw, or re-advertise to move from the previously
	// emitted lie set to this one. The first emission is a full injection.
	Added, Removed, Updated int
}

// Churn is the total number of LSAs touched by this update — the
// session's reconfiguration cost metric.
func (u *LieUpdate) Churn() int { return u.Added + u.Removed + u.Updated }

// Lies synthesizes and verifies the lie set realizing the current
// configuration (as Config.Lies) and diffs it against the session's
// previously emitted lie set; the diff is verified by replay: applied on
// top of the old lie set it gives the new one exactly, so it reproduces
// the new forwarding.
func (s *Session) Lies(extraPerInterface int) (*LieUpdate, error) {
	res, err := s.s.Lies(extraPerInterface)
	if err != nil {
		return nil, err
	}
	return &LieUpdate{
		LieSet:  newLieSet(res.Quantized, res.VirtualLinks, res.Synthesis),
		Added:   len(res.Diff.Add),
		Removed: len(res.Diff.Remove),
		Updated: len(res.Diff.Update),
	}, nil
}
