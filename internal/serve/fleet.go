package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/sweep"
)

// The controller half of the fleet plane (DESIGN.md §11): coyote-serve
// accepts worker heartbeats and streamed unit results, folds the results
// through sweep.Aggregator (incremental MergeResults), and exposes:
//
//	POST /fleet/heartbeat   worker progress report (sweep.Heartbeat)
//	POST /fleet/results     completed units (sweep.ResultBatch); a
//	                        duplicate unit rejects the batch with 409
//	GET  /fleet             fleet status: per-shard progress, campaign
//	                        ETA, straggler flags, merged-unit count
//	GET  /fleet/results     the incrementally merged campaign as
//	                        canonical JSONL — at campaign end these are
//	                        exactly the merge-at-end bytes
//	GET  /fleet/events      SSE stream of heartbeat/merge updates
//
// A heartbeat naming a different campaign than the one in flight resets
// the aggregate: one controller tracks one campaign at a time, matching
// the sweep CLI's one-campaign-per-run shape.

var (
	mFleetHeartbeats = obs.Default.NewCounterVec("coyote_fleet_heartbeats_total",
		"Fleet heartbeats accepted by the controller, by shard.", "shard")
	mFleetShards = obs.Default.NewGauge("coyote_fleet_shards",
		"Distinct shards that have reported in the current campaign.")
	mFleetMerged = obs.Default.NewCounter("coyote_fleet_merged_results_total",
		"Unit results incrementally merged by the controller.")
	mFleetShardPlanned = obs.Default.NewGaugeVec("coyote_fleet_shard_planned",
		"Units planned on each reporting shard of the current campaign.", "shard")
	mFleetShardDone = obs.Default.NewGaugeVec("coyote_fleet_shard_done",
		"Units completed on each reporting shard of the current campaign.", "shard")
	mFleetDropped = obs.Default.NewCounter("coyote_fleet_dropped_events_total",
		"Fleet SSE events dropped because a subscriber was slow.")
)

var fleetLog = obs.Scope("fleet")

// stragglerStaleness flags a shard whose heartbeats stopped arriving.
const stragglerStaleness = 15 * time.Second

// fleetShard is the controller's view of one worker.
type fleetShard struct {
	hb   sweep.Heartbeat
	seen time.Time
}

// fleetEvent is one SSE message of GET /fleet/events.
type fleetEvent struct {
	kind string // "heartbeat" or "merge"
	data any
}

type fleetState struct {
	mu       sync.Mutex
	campaign string
	shards   map[int]*fleetShard
	agg      *sweep.Aggregator
	subs     map[int]chan fleetEvent
	nextSub  int
	now      func() time.Time // injectable for the straggler tests
}

func newFleetState() *fleetState {
	return &fleetState{
		shards: make(map[int]*fleetShard),
		agg:    sweep.NewAggregator(),
		subs:   make(map[int]chan fleetEvent),
		now:    time.Now,
	}
}

// reset starts tracking a new campaign.
func (f *fleetState) reset(campaign string) {
	for shard := range f.shards {
		label := fmt.Sprint(shard)
		mFleetShardPlanned.With(label).Set(0)
		mFleetShardDone.With(label).Set(0)
	}
	f.campaign = campaign
	f.shards = make(map[int]*fleetShard)
	f.agg = sweep.NewAggregator()
	mFleetShards.Set(0)
	fleetLog.Info("campaign tracking started", "campaign", campaign)
}

func (f *fleetState) publish(ev fleetEvent) {
	for _, ch := range f.subs {
		select {
		case ch <- ev:
		default:
			mFleetDropped.Inc()
		}
	}
}

func (s *Server) handleFleetHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb sweep.Heartbeat
	if err := decodeBody(w, r, &hb); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad heartbeat: %w", err))
		return
	}
	if hb.Campaign == "" || hb.Shard < 0 || hb.Shards < 1 || hb.Shard >= hb.Shards {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad heartbeat identity: campaign=%q shard=%d/%d", hb.Campaign, hb.Shard, hb.Shards))
		return
	}
	f := s.fleet
	f.mu.Lock()
	if hb.Campaign != f.campaign {
		f.reset(hb.Campaign)
	}
	f.shards[hb.Shard] = &fleetShard{hb: hb, seen: f.now()}
	label := fmt.Sprint(hb.Shard)
	mFleetHeartbeats.With(label).Inc()
	mFleetShards.Set(float64(len(f.shards)))
	mFleetShardPlanned.With(label).Set(float64(hb.Planned))
	mFleetShardDone.With(label).Set(float64(hb.Done))
	f.publish(fleetEvent{kind: "heartbeat", data: shardStatus(f.shards[hb.Shard], f.now())})
	f.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleFleetResults(w http.ResponseWriter, r *http.Request) {
	var batch sweep.ResultBatch
	if err := decodeBody(w, r, &batch); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad result batch: %w", err))
		return
	}
	if batch.Campaign == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("result batch without a campaign"))
		return
	}
	f := s.fleet
	f.mu.Lock()
	if batch.Campaign != f.campaign {
		f.reset(batch.Campaign)
	}
	if err := f.agg.Add(batch.Results...); err != nil {
		f.mu.Unlock()
		fleetLog.Warn("result batch rejected", "campaign", batch.Campaign,
			"shard", batch.Shard, "err", err)
		writeErr(w, http.StatusConflict, err)
		return
	}
	mFleetMerged.Add(uint64(len(batch.Results)))
	merged := f.agg.Len()
	f.publish(fleetEvent{kind: "merge", data: map[string]any{
		"campaign": batch.Campaign, "shard": batch.Shard,
		"units": len(batch.Results), "merged": merged,
	}})
	f.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "merged": merged})
}

// shardStatusJSON is one shard's row of the GET /fleet report.
type shardStatusJSON struct {
	Shard     int     `json:"shard"`
	Shards    int     `json:"shards"`
	Planned   int     `json:"planned"`
	Done      int     `json:"done"`
	Cached    int     `json:"cached"`
	Failed    int     `json:"failed"`
	Current   string  `json:"current,omitempty"`
	Elapsed   float64 `json:"elapsed_seconds"`
	ETA       float64 `json:"eta_seconds"`
	Staleness float64 `json:"staleness_seconds"`
	Final     bool    `json:"final"`
	Straggler bool    `json:"straggler"`
	UnitP50   float64 `json:"unit_p50_seconds,omitempty"`
}

// shardStatus computes one shard's row, ETA included: remaining units over
// the observed completion rate, falling back to remaining × the shard's
// median unit time before a rate exists. Straggler detection against the
// fleet median happens later, in fleetReport, where all rows are known.
func shardStatus(fs *fleetShard, now time.Time) shardStatusJSON {
	hb := fs.hb
	st := shardStatusJSON{
		Shard: hb.Shard, Shards: hb.Shards,
		Planned: hb.Planned, Done: hb.Done, Cached: hb.Cached, Failed: hb.Failed,
		Current: hb.Current, Elapsed: hb.Elapsed,
		Staleness: now.Sub(fs.seen).Seconds(),
		Final:     hb.Final, UnitP50: hb.UnitP50,
	}
	remaining := float64(hb.Planned - hb.Done)
	switch {
	case remaining <= 0 || hb.Final:
		st.ETA = 0
	case hb.Done > 0 && hb.Elapsed > 0:
		st.ETA = remaining / (float64(hb.Done) / hb.Elapsed)
	case hb.UnitP50 > 0:
		st.ETA = remaining * hb.UnitP50
	default:
		st.ETA = -1 // unknown
	}
	return st
}

// fleetReportJSON is the GET /fleet body.
type fleetReportJSON struct {
	Campaign    string            `json:"campaign"`
	Shards      int               `json:"shards"`
	Planned     int               `json:"planned"`
	Done        int               `json:"done"`
	Cached      int               `json:"cached"`
	Failed      int               `json:"failed"`
	Merged      int               `json:"merged"`
	ETA         float64           `json:"eta_seconds"`
	Complete    bool              `json:"complete"`
	ShardStatus []shardStatusJSON `json:"shard_status"`
}

func (f *fleetState) report() fleetReportJSON {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	rep := fleetReportJSON{Campaign: f.campaign, Shards: len(f.shards), Merged: f.agg.Len()}
	for _, fs := range f.shards {
		rep.ShardStatus = append(rep.ShardStatus, shardStatus(fs, now))
	}
	sort.Slice(rep.ShardStatus, func(i, j int) bool {
		return rep.ShardStatus[i].Shard < rep.ShardStatus[j].Shard
	})

	// Straggler detection: a live shard is a straggler when its heartbeats
	// went stale, or its ETA is more than twice the fleet median of the
	// known ETAs.
	var etas []float64
	for _, st := range rep.ShardStatus {
		if !st.Final && st.ETA > 0 {
			etas = append(etas, st.ETA)
		}
	}
	sort.Float64s(etas)
	var medianETA float64
	if len(etas) > 0 {
		medianETA = etas[len(etas)/2]
	}
	rep.Complete = len(rep.ShardStatus) > 0
	for i := range rep.ShardStatus {
		st := &rep.ShardStatus[i]
		rep.Planned += st.Planned
		rep.Done += st.Done
		rep.Cached += st.Cached
		rep.Failed += st.Failed
		if st.ETA > rep.ETA {
			rep.ETA = st.ETA // campaign finishes when its slowest shard does
		}
		if !st.Final {
			rep.Complete = false
			if st.Staleness > stragglerStaleness.Seconds() ||
				(medianETA > 0 && st.ETA > 2*medianETA) {
				st.Straggler = true
			}
		}
	}
	return rep
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.fleet.report())
}

// handleFleetDownload serves the incrementally merged campaign as the
// canonical JSONL artifact — the stream CI byte-compares against the
// merge-at-end golden.
func (s *Server) handleFleetDownload(w http.ResponseWriter, r *http.Request) {
	f := s.fleet
	f.mu.Lock()
	agg := f.agg
	f.mu.Unlock()
	w.Header().Set("Content-Type", "application/jsonl")
	if err := agg.WriteJSONL(w); err != nil {
		fleetLog.Error("merged download failed", "err", err)
	}
}

// handleFleetEvents streams heartbeat and merge updates as Server-Sent
// Events until the client disconnects.
func (s *Server) handleFleetEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	f := s.fleet
	ch := make(chan fleetEvent, 16)
	f.mu.Lock()
	id := f.nextSub
	f.nextSub++
	f.subs[id] = ch
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.subs, id)
		f.mu.Unlock()
	}()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			data, err := json.Marshal(ev.data)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.kind, data)
			fl.Flush()
		}
	}
}
