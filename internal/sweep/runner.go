package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/coyote-te/coyote/internal/exp"
	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/par"
)

// Sweep progress metrics (obs.Default, DESIGN.md §10). Units are coarse —
// seconds each — so per-unit counter updates are free; the per-shard
// planned/done gauges give a scraper live campaign progress. The shard
// label is "shard/shards" ("0/1" for an unsharded run), a bounded
// cardinality: one series per process.
var (
	mUnits = obs.Default.NewCounterVec("coyote_sweep_units_total",
		"Sweep units finished, by result (computed, cached, failed).", "result")
	mUnitsPlanned = obs.Default.NewGaugeVec("coyote_sweep_units_planned",
		"Units this shard will execute in the current campaign.", "shard")
	mUnitsDone = obs.Default.NewGaugeVec("coyote_sweep_units_done",
		"Units this shard has completed in the current campaign.", "shard")
	mUnitSeconds = obs.Default.NewHistogramVec("coyote_sweep_unit_seconds",
		"Wall time per completed sweep unit in seconds (cache hits included).",
		obs.ExpBuckets(0.001, 4, 10), // 1ms .. ~4.7h
		"shard")
)

// sweepLog carries the sweep unit lifecycle: campaign start/end at info,
// per-unit completions at debug, failures at error.
var sweepLog = obs.Scope("sweep")

// Options configures one Run.
type Options struct {
	// Cache, when non-nil, is consulted before and updated after every
	// unit — the mechanism behind resume (interrupted campaigns skip
	// finished units) and warm re-runs (unchanged units are instant hits).
	Cache *Cache
	// Fingerprint overrides the code fingerprint in cache keys; empty
	// means Fingerprint().
	Fingerprint string
	// Shard/Shards split the campaign across processes: this run executes
	// exactly the units whose campaign index i satisfies i % Shards ==
	// Shard. The zero value (0/0) means the whole campaign.
	Shard, Shards int
	// Workers sizes the unit-level par pool (0 = one per CPU). Every
	// unit's table is worker-count-invariant, so this only changes wall
	// time, never bytes.
	Workers int
	// Verify recomputes every cache hit and fails unless the fresh table
	// is byte-identical to the cached one.
	Verify bool
	// Stream, when non-nil, receives each unit's Result as one compact
	// JSON line, flushed in campaign order as units finish (a unit's line
	// is held until every earlier unit of this shard has been written).
	Stream io.Writer
	// Progress, when non-nil, is called serially after each unit
	// completes, in completion order.
	Progress func(UnitStatus)
	// Ctx, when it carries an obs.Tracer, records one sweep.unit span per
	// unit with cache-probe/compute/cache-put/verify children and the full
	// adversarial-loop span tree beneath compute, except for portfolio*
	// units: strategy.Build takes no context, so their solves go
	// untraced. Tracing never reaches the cache key or the result bytes.
	Ctx context.Context
}

// Result is the deterministic record of one unit: exactly the bytes the
// JSONL stream, the merge protocol, and the golden corpus compare. Runtime
// facts (cache state, elapsed time, keys — which embed the code
// fingerprint) deliberately live elsewhere, in UnitStatus.
type Result struct {
	Unit  string     `json:"unit"`
	Table *exp.Table `json:"table"`
}

// MarshalLine renders the result as its canonical compact JSON line.
func (r Result) MarshalLine() ([]byte, error) {
	if r.Table == nil {
		return nil, fmt.Errorf("sweep: result %s has no table", r.Unit)
	}
	var buf bytes.Buffer
	buf.WriteString(`{"unit":`)
	name, err := json.Marshal(r.Unit)
	if err != nil {
		return nil, err
	}
	buf.Write(name)
	buf.WriteString(`,"table":`)
	if err := r.Table.WriteJSONLine(&buf); err != nil {
		return nil, err
	}
	// WriteJSONLine ends with '\n'; move it outside the object.
	b := buf.Bytes()
	b[len(b)-1] = '}'
	return append(b, '\n'), nil
}

// UnitStatus is the runtime record of one completed unit.
type UnitStatus struct {
	Unit    string        `json:"unit"`
	Key     string        `json:"key"`
	Cached  bool          `json:"cached"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Report summarizes one Run over a shard.
type Report struct {
	Campaign string
	// Results holds this shard's units in campaign order.
	Results  []Result
	Statuses []UnitStatus
	Hits     int
	Misses   int
	Elapsed  time.Duration
}

// Run executes the campaign's shard under opts. Units run across the
// internal/par pool; results come back in campaign order regardless of
// scheduling. The first failing unit (by campaign index) aborts the run
// with its error after every in-flight unit finishes — completed units are
// already in the cache, so a re-run resumes instead of recomputing.
func Run(c Campaign, opts Options) (*Report, error) {
	start := time.Now()
	if opts.Shard == 0 && opts.Shards == 0 {
		opts.Shards = 1
	}
	if opts.Shard < 0 || opts.Shard >= opts.Shards {
		return nil, fmt.Errorf("sweep: shard %d/%d out of range", opts.Shard, opts.Shards)
	}
	fp := opts.Fingerprint
	if fp == "" {
		fp = Fingerprint()
	}
	for i := 1; i < len(c.Units); i++ {
		if c.Units[i].ID <= c.Units[i-1].ID {
			return nil, fmt.Errorf("sweep: campaign units not sorted/unique at %q", c.Units[i].ID)
		}
	}

	var mine []int
	for i := range c.Units {
		if i%opts.Shards == opts.Shard {
			mine = append(mine, i)
		}
	}

	shardLabel := fmt.Sprintf("%d/%d", opts.Shard, opts.Shards)
	mUnitsPlanned.With(shardLabel).Set(float64(len(mine)))
	mUnitsDone.With(shardLabel).Set(0)

	runCtx := opts.Ctx
	if runCtx == nil {
		runCtx = context.Background()
	}

	results := make([]Result, len(mine))
	statuses := make([]UnitStatus, len(mine))
	st := &streamer{w: opts.Stream, progress: opts.Progress, results: results, statuses: statuses, done: make([]bool, len(mine)), shard: shardLabel}

	sweepLog.Info("campaign start", "campaign", c.Name, "shard", shardLabel,
		"units", len(mine), "workers", opts.Workers)

	err := par.ForErr(opts.Workers, len(mine), func(i int) error {
		if err := runCtx.Err(); err != nil {
			// Canceled (SIGINT/SIGTERM, or whatever else ends the caller's
			// context): stop scheduling new units; finished units are already
			// cached and streamed, so the campaign resumes from here.
			return fmt.Errorf("sweep: unit %s not started: %w", c.Units[mine[i]].ID, err)
		}
		u := c.Units[mine[i]]
		unitCtx, unitSpan := obs.StartSpan(runCtx, "sweep.unit")
		unitSpan.Attr("unit", u.ID)
		defer unitSpan.End()
		key, err := u.Key(c.Cfg, fp)
		if err != nil {
			mUnits.With("failed").Inc()
			return fmt.Errorf("sweep: unit %s: %w", u.ID, err)
		}
		unitStart := time.Now()
		var table *exp.Table
		cached := false
		if opts.Cache != nil {
			_, probeSpan := obs.StartSpan(unitCtx, "sweep.cache_probe")
			entry, hit, err := opts.Cache.Get(key)
			probeSpan.Attr("hit", hit).End()
			if err != nil {
				mUnits.With("failed").Inc()
				return err
			}
			if hit {
				if entry.Unit != u.ID {
					mUnits.With("failed").Inc()
					return fmt.Errorf("sweep: cache entry %s belongs to unit %s, wanted %s (key collision?)", key, entry.Unit, u.ID)
				}
				table, cached = entry.Table, true
				if opts.Verify {
					verifyCtx, verifySpan := obs.StartSpan(unitCtx, "sweep.verify")
					err := verifyHit(verifyCtx, u, c.Cfg, entry)
					verifySpan.End()
					if err != nil {
						mUnits.With("failed").Inc()
						return err
					}
				}
			}
		}
		if table == nil {
			computeCtx, computeSpan := obs.StartSpan(unitCtx, "sweep.compute")
			table, err = u.Run(computeCtx, c.Cfg)
			computeSpan.End()
			if err != nil {
				mUnits.With("failed").Inc()
				return fmt.Errorf("sweep: unit %s: %w", u.ID, err)
			}
			if opts.Cache != nil {
				_, putSpan := obs.StartSpan(unitCtx, "sweep.cache_put")
				err := opts.Cache.Put(&Entry{
					Key:         key,
					Unit:        u.ID,
					Table:       table,
					CreatedUnix: time.Now().Unix(),
					ElapsedMS:   time.Since(unitStart).Milliseconds(),
				})
				putSpan.End()
				if err != nil {
					mUnits.With("failed").Inc()
					return err
				}
			}
		}
		unitSpan.Attr("cached", cached)
		return st.complete(i, Result{Unit: u.ID, Table: table}, UnitStatus{
			Unit:    u.ID,
			Key:     key,
			Cached:  cached,
			Elapsed: time.Since(unitStart),
		})
	})
	if err != nil {
		sweepLog.Error("campaign failed", "campaign", c.Name, "shard", shardLabel,
			"elapsed", time.Since(start), "err", err)
		return nil, err
	}

	rep := &Report{
		Campaign: c.Name,
		Results:  results,
		Statuses: statuses,
		Elapsed:  time.Since(start),
	}
	for _, s := range statuses {
		if s.Cached {
			rep.Hits++
		} else {
			rep.Misses++
		}
	}
	sweepLog.Info("campaign done", "campaign", c.Name, "shard", shardLabel,
		"units", len(rep.Results), "hits", rep.Hits, "misses", rep.Misses,
		"elapsed", rep.Elapsed)
	return rep, nil
}

// verifyHit recomputes a cache hit and demands bit-identical bytes — the
// proof that cached and fresh results are interchangeable.
func verifyHit(ctx context.Context, u Unit, cfg exp.Config, entry *Entry) error {
	fresh, err := u.Run(ctx, cfg)
	if err != nil {
		return fmt.Errorf("sweep: verify %s: %w", u.ID, err)
	}
	want, err := Result{Unit: u.ID, Table: entry.Table}.MarshalLine()
	if err != nil {
		return err
	}
	got, err := Result{Unit: u.ID, Table: fresh}.MarshalLine()
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("sweep: verify %s: cached result differs from fresh recomputation\ncached: %sfresh:  %s", u.ID, want, got)
	}
	return nil
}

// streamer serializes completion handling: it stores each unit's result in
// its slot and flushes the JSONL stream strictly in campaign order, holding
// back finished units until their predecessors are written.
type streamer struct {
	w        io.Writer
	progress func(UnitStatus)
	shard    string // "shard/shards" metric label of this run

	mu       sync.Mutex
	results  []Result
	statuses []UnitStatus
	done     []bool
	next     int // first index not yet flushed
}

func (s *streamer) complete(i int, r Result, us UnitStatus) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results[i] = r
	s.statuses[i] = us
	s.done[i] = true
	if us.Cached {
		mUnits.With("cached").Inc()
	} else {
		mUnits.With("computed").Inc()
	}
	mUnitsDone.With(s.shard).Add(1)
	mUnitSeconds.With(s.shard).Observe(us.Elapsed.Seconds())
	sweepLog.Debug("unit done", "unit", us.Unit, "shard", s.shard,
		"cached", us.Cached, "elapsed", us.Elapsed)
	if s.progress != nil {
		s.progress(us)
	}
	for s.next < len(s.done) && s.done[s.next] {
		if s.w != nil {
			line, err := s.results[s.next].MarshalLine()
			if err != nil {
				return err
			}
			if _, err := s.w.Write(line); err != nil {
				return err
			}
		}
		s.next++
	}
	return nil
}
