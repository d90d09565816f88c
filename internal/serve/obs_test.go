package serve

import (
	"net/http"
	"strings"
	"testing"

	"github.com/coyote-te/coyote/internal/obs"
)

// TestMetricsEndpoint scrapes GET /metrics through the instrumented
// handler and validates it with the strict exposition parser — the same
// check CI runs against a live coyote-serve via promcheck. Creating the
// session above guarantees the lp, session, and par families have
// recorded samples; the scrape itself feeds the http family.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)

	// One instrumented request before the scrape so the http family exists
	// with a concrete route label.
	var st map[string]any
	getJSON(t, ts.URL+"/state", &st)
	if _, ok := st["dropped_events"]; !ok {
		t.Fatal("/state is missing dropped_events")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}

	families, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := make(map[string]obs.ParsedFamily, len(families))
	for _, f := range families {
		byName[f.Name] = f
		if strings.HasPrefix(f.Name, "coyote_fleet_") {
			t.Errorf("family %s: the fleet control room is gone and exports nothing", f.Name)
		}
	}
	for _, want := range []string{
		"coyote_lp_solves_total",
		"coyote_lp_iterations_total",
		"coyote_lp_stability_refactorizations_total",
		"coyote_session_events_total",
		"coyote_session_recompute_seconds",
		"coyote_par_loops_total",
		"coyote_http_requests_total",
		"coyote_http_request_seconds",
	} {
		f, ok := byName[want]
		if !ok {
			t.Errorf("family %s missing from /metrics", want)
			continue
		}
		if len(f.Samples) == 0 {
			t.Errorf("family %s has no samples", want)
		}
	}

	// The instrumented request above must be attributed to its route
	// pattern, not the raw URL (bounded label cardinality).
	found := false
	for _, s := range byName["coyote_http_requests_total"].Samples {
		if s.Labels["path"] == "GET /state" && s.Labels["code"] == "200" {
			found = true
		}
	}
	if !found {
		t.Errorf("no coyote_http_requests_total sample for path=\"GET /state\" code=\"200\": %+v",
			byName["coyote_http_requests_total"].Samples)
	}
}
