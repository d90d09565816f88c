package serve

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/coyote-te/coyote/internal/sweep"
)

// sweepState is the controller face of the corpus-scale sweep harness
// (DESIGN.md §8): the campaign it can run, the shared options (cache,
// fingerprint, workers), and the cumulative hit/miss counters across every
// run this server performed.
type sweepState struct {
	campaign sweep.Campaign
	opts     sweep.Options
	keys     []string // per-unit cache keys, precomputed (invariant for fixed cfg+fingerprint)

	runMu sync.Mutex // serializes runs; one campaign at a time

	statsMu sync.Mutex // guards the counters so status never waits on a run
	runs    int
	hits    int
	misses  int
}

// EnableSweep registers the /sweep endpoint, wiring the server to a sweep
// campaign and its result cache:
//
//	GET  /sweep   campaign status — unit count, how many are already
//	              cached under the current fingerprint, run counters
//	POST /sweep   run the campaign through the cache and return the
//	              report; {"units":["exp/running",...]} restricts the run
//	              to the named units, ?results=0 omits the result tables
//
// Runs are synchronous and serialized: the sweep inherits the repo's
// determinism contract, so concurrent runs would only duplicate work the
// cache will deduplicate anyway. Status reads stay responsive while a run
// is in flight. Call before serving traffic.
func (s *Server) EnableSweep(c sweep.Campaign, opts sweep.Options) {
	st := &sweepState{campaign: c, opts: opts}
	st.keys = make([]string, len(c.Units))
	fp := st.fingerprint()
	for i, u := range c.Units {
		key, err := u.Key(c.Cfg, fp)
		if err != nil {
			// A unit whose key cannot be derived cannot be cached or run
			// reproducibly; surface it at setup, not per request.
			panic(fmt.Sprintf("serve: sweep unit %s: %v", u.ID, err))
		}
		st.keys[i] = key
	}
	s.mux.HandleFunc("GET /sweep", st.handleStatus)
	s.mux.HandleFunc("POST /sweep", st.handleRun)
}

func (st *sweepState) fingerprint() string {
	if st.opts.Fingerprint != "" {
		return st.opts.Fingerprint
	}
	return sweep.Fingerprint()
}

func (st *sweepState) handleStatus(w http.ResponseWriter, r *http.Request) {
	cached := 0
	if st.opts.Cache != nil {
		for _, key := range st.keys {
			if st.opts.Cache.Has(key) {
				cached++
			}
		}
	}
	units := make([]string, len(st.campaign.Units))
	for i, u := range st.campaign.Units {
		units[i] = u.ID
	}
	st.statsMu.Lock()
	runs, hits, misses := st.runs, st.hits, st.misses
	st.statsMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"campaign":    st.campaign.Name,
		"units":       units,
		"unit_count":  len(units),
		"cached":      cached,
		"fingerprint": st.fingerprint(),
		"runs":        runs,
		"hits":        hits,
		"misses":      misses,
	})
}

// sweepRunRequest is the optional body of POST /sweep.
type sweepRunRequest struct {
	// Units restricts the run to the named unit IDs (default: all).
	Units []string `json:"units,omitempty"`
	// Verify recomputes cache hits and fails unless bit-identical.
	Verify bool `json:"verify,omitempty"`
}

func (st *sweepState) handleRun(w http.ResponseWriter, r *http.Request) {
	var req sweepRunRequest
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
	}
	c := st.campaign
	if len(req.Units) > 0 {
		want := make(map[string]bool, len(req.Units))
		for _, id := range req.Units {
			want[id] = true
		}
		var units []sweep.Unit
		for _, u := range c.Units {
			if want[u.ID] {
				units = append(units, u)
				delete(want, u.ID)
			}
		}
		if len(want) > 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown units in request: %d of %d not in campaign %s", len(want), len(req.Units), c.Name))
			return
		}
		c = sweep.Campaign{Name: c.Name, Cfg: c.Cfg, Units: units}
	}

	st.runMu.Lock()
	defer st.runMu.Unlock()
	opts := st.opts
	opts.Verify = opts.Verify || req.Verify
	start := time.Now()
	rep, err := sweep.Run(c, opts)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	st.statsMu.Lock()
	st.runs++
	st.hits += rep.Hits
	st.misses += rep.Misses
	st.statsMu.Unlock()

	resp := map[string]any{
		"campaign":   rep.Campaign,
		"unit_count": len(rep.Results),
		"hits":       rep.Hits,
		"misses":     rep.Misses,
		"elapsed_ms": time.Since(start).Milliseconds(),
	}
	if r.URL.Query().Get("results") != "0" {
		resp["results"] = rep.Results
	}
	writeJSON(w, http.StatusOK, resp)
}
