package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/coyote-te/coyote/internal/delta"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/topo"
)

func newTestServer(t *testing.T) (*httptest.Server, *delta.Session) {
	t.Helper()
	g, err := topo.Load("NSF")
	if err != nil {
		t.Fatal(err)
	}
	ses, err := delta.NewSession(g, demand.MarginBox(demand.Gravity(g, 1), 2), delta.Config{
		OptIters: 120,
		AdvIters: 2,
		Samples:  2,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(ses).Handler())
	t.Cleanup(ts.Close)
	return ts, ses
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestStateRoutingStats(t *testing.T) {
	ts, ses := newTestServer(t)

	var state struct {
		Nodes    int     `json:"nodes"`
		Perf     float64 `json:"perf"`
		ECMPPerf float64 `json:"ecmp_perf"`
		Links    []struct {
			Failed bool `json:"failed"`
		} `json:"links"`
	}
	getJSON(t, ts.URL+"/state", &state)
	if state.Nodes != ses.Base().NumNodes() {
		t.Fatalf("state nodes %d, want %d", state.Nodes, ses.Base().NumNodes())
	}
	if state.Perf != ses.Solved().Perf.Ratio {
		t.Fatalf("state perf %v, want %v", state.Perf, ses.Solved().Perf.Ratio)
	}
	if len(state.Links) != len(ses.Base().Links()) {
		t.Fatalf("state has %d links, want %d", len(state.Links), len(ses.Base().Links()))
	}

	var routing struct {
		Destinations map[string][]struct {
			From  string  `json:"from"`
			Ratio float64 `json:"ratio"`
		} `json:"destinations"`
	}
	getJSON(t, ts.URL+"/routing", &routing)
	if len(routing.Destinations) != ses.Base().NumNodes() {
		t.Fatalf("routing has %d destinations, want %d", len(routing.Destinations), ses.Base().NumNodes())
	}

	var stats struct {
		Events []delta.Event `json:"events"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if len(stats.Events) == 0 || stats.Events[0].Kind != delta.EventInit {
		t.Fatalf("stats events: %+v", stats.Events)
	}
}

func TestUpdateFailRecoverLies(t *testing.T) {
	ts, ses := newTestServer(t)

	// Demand growth via scale.
	resp, ev := postJSON(t, ts.URL+"/update", map[string]any{"scale": 1.2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d (%v)", resp.StatusCode, ev)
	}
	if ev["kind"] != "update" || ev["warm"] != true {
		t.Fatalf("update event: %v", ev)
	}

	// Fail a real link by name.
	base := ses.Base()
	link := base.Edge(base.Links()[0])
	from, to := base.Name(link.From), base.Name(link.To)
	resp, ev = postJSON(t, ts.URL+"/fail", map[string]string{"from": from, "to": to})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fail: status %d (%v)", resp.StatusCode, ev)
	}
	if ev["kind"] != "fail" {
		t.Fatalf("fail event: %v", ev)
	}
	// Double-fail conflicts.
	resp, _ = postJSON(t, ts.URL+"/fail", map[string]string{"from": from, "to": to})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double fail: status %d, want 409", resp.StatusCode)
	}

	// Lies on the degraded topology.
	var lies struct {
		FakeNodes int `json:"fake_nodes"`
		Churn     struct {
			Total int `json:"total"`
		} `json:"churn"`
		Messages []map[string]any `json:"messages"`
	}
	getJSON(t, ts.URL+"/lies?extra=3", &lies)
	if lies.FakeNodes != len(lies.Messages) {
		t.Fatalf("lies: %d fake nodes but %d messages", lies.FakeNodes, len(lies.Messages))
	}
	if lies.Churn.Total != lies.FakeNodes {
		t.Fatalf("first lies call churn %d, want full injection %d", lies.Churn.Total, lies.FakeNodes)
	}

	// Recover.
	resp, ev = postJSON(t, ts.URL+"/recover", map[string]string{"from": from, "to": to})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recover: status %d (%v)", resp.StatusCode, ev)
	}
	if ev["kind"] != "recover" {
		t.Fatalf("recover event: %v", ev)
	}
}

// TestStateReadsOneConfiguration polls GET /state while failures and
// recoveries commit new configurations: every (perf, ecmp_perf) pair it
// reads must be the pair of one recorded event, never one configuration's
// PERF next to another's ECMP PERF, and the failed-link count must match the
// live topology (every test link is bidirectional, so each failed link
// removes two edges). Run it under -race.
func TestStateReadsOneConfiguration(t *testing.T) {
	ts, ses := newTestServer(t)
	type pair struct{ perf, ecmp float64 }
	type reading struct {
		pair
		liveEdges, failed int
	}
	done := make(chan struct{})
	polled := make(chan []reading)
	go func() {
		var seen []reading
		defer func() { polled <- seen }()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/state")
			if err != nil {
				t.Errorf("GET /state: %v", err)
				return
			}
			var state struct {
				Perf      float64 `json:"perf"`
				ECMPPerf  float64 `json:"ecmp_perf"`
				LiveEdges int     `json:"live_edges"`
				Failed    int     `json:"failed"`
			}
			err = json.NewDecoder(resp.Body).Decode(&state)
			resp.Body.Close()
			if err != nil {
				t.Errorf("decode /state: %v", err)
				return
			}
			seen = append(seen, reading{pair{state.Perf, state.ECMPPerf}, state.LiveEdges, state.Failed})
		}
	}()

	base := ses.Base()
	for _, id := range base.Links()[:3] {
		e := base.Edge(id)
		body := map[string]string{"from": base.Name(e.From), "to": base.Name(e.To)}
		for _, path := range []string{"/fail", "/recover"} {
			if resp, ev := postJSON(t, ts.URL+path, body); resp.StatusCode != http.StatusOK {
				close(done)
				<-polled
				t.Fatalf("POST %s: status %d (%v)", path, resp.StatusCode, ev)
			}
		}
	}
	close(done)
	seen := <-polled

	committed := make(map[pair]bool)
	for _, e := range ses.Events() {
		committed[pair{e.Perf, e.ECMPPerf}] = true
	}
	if len(seen) == 0 {
		t.Fatal("no /state reads")
	}
	for _, r := range seen {
		if !committed[r.pair] {
			t.Fatalf("/state paired perf %v with ecmp_perf %v; no configuration has that pair", r.perf, r.ecmp)
		}
		if r.liveEdges+2*r.failed != base.NumEdges() {
			t.Fatalf("/state reports %d live edges with %d failed links; base has %d edges", r.liveEdges, r.failed, base.NumEdges())
		}
	}
}

func TestUpdateWithEntries(t *testing.T) {
	ts, ses := newTestServer(t)
	g := ses.Base()
	a, b := g.Name(0), g.Name(1)
	resp, ev := postJSON(t, ts.URL+"/update", map[string]any{
		"margin": 2,
		"entries": []map[string]any{
			{"from": a, "to": b, "rate": 1.0},
			{"from": b, "to": a, "rate": 0.5},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update entries: status %d (%v)", resp.StatusCode, ev)
	}
	box := ses.Bounds()
	if got := box.Max.At(0, 1); got != 2.0 {
		t.Fatalf("box max (0,1) = %v, want 2", got)
	}
}

func TestUpdateRejectsBadBodies(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, body := range []any{
		map[string]any{},
		map[string]any{"scale": -1},
		map[string]any{"entries": []map[string]any{{"from": "nope", "to": "alsono", "rate": 1}}},
		map[string]any{"scale": 1.2, "entries": []map[string]any{{"from": "a", "to": "b", "rate": 1}}},
		map[string]any{"margin": 0.5, "entries": []map[string]any{{"from": "a", "to": "b", "rate": 1}}},
	} {
		resp, _ := postJSON(t, ts.URL+"/update", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %v: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/fail", map[string]string{"from": "nope", "to": "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad fail: status %d, want 400", resp.StatusCode)
	}
}

// TestZeroRateUpdateDoesNotWedgeTheLog: one POST /update whose entries sum
// to nothing used to build an all-zero box and install Perf = -Inf, which
// encoding/json refuses — the event log (/stats), /state and every later
// /events frame stopped being JSON.
func TestZeroRateUpdateDoesNotWedgeTheLog(t *testing.T) {
	ts, ses := newTestServer(t)
	lines := openSSE(t, ts.URL)
	g := ses.Base()
	resp, body := postJSON(t, ts.URL+"/update", map[string]any{
		"entries": []map[string]any{{"from": g.Name(0), "to": g.Name(1), "rate": 0}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero-rate update: status %d (%v), want 400", resp.StatusCode, body)
	}
	var stats struct{ Events []delta.Event }
	getJSON(t, ts.URL+"/stats", &stats)
	if len(stats.Events) != 1 || stats.Events[0].Kind != delta.EventInit {
		t.Fatalf("event log after rejected update: %+v", stats.Events)
	}
	var state struct{ Perf float64 }
	getJSON(t, ts.URL+"/state", &state)
	if !(state.Perf >= 1-1e-9) {
		t.Fatalf("state perf after rejected update: %v", state.Perf)
	}
	// The stream saw nothing of the rejected update and still delivers the
	// next real one as JSON.
	if resp, body := postJSON(t, ts.URL+"/update", map[string]any{"scale": 1.1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid update after rejected one: status %d (%v)", resp.StatusCode, body)
	}
	if event, ev := nextSSE(t, lines); event != "update" || !(ev.Perf >= 1-1e-9) {
		t.Fatalf("SSE frame after rejected update: %q %+v", event, ev)
	}
}

// TestOversizedUpdateIsRejected: request bodies are capped (maxBodyBytes),
// so a well-formed update padded past the cap is refused before it reaches
// the session — /state and the event log stay as they were.
func TestOversizedUpdateIsRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	var before, after map[string]any
	getJSON(t, ts.URL+"/state", &before)
	resp, body := postJSON(t, ts.URL+"/update", map[string]any{
		"scale": 1.1,
		"pad":   strings.Repeat("a", maxBodyBytes),
	})
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("oversized update: status %d (%v), want a 4xx", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/state", &after)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("/state changed across a rejected update:\n before %v\n after  %v", before, after)
	}
	var stats struct{ Events []delta.Event }
	getJSON(t, ts.URL+"/stats", &stats)
	if len(stats.Events) != 1 || stats.Events[0].Kind != delta.EventInit {
		t.Fatalf("event log after rejected update: %+v", stats.Events)
	}
}

// TestLiesExtraIsBounded: lie synthesis grows linearly with ?extra=N under
// the session lock, so N above maxExtra is refused before any work — the
// event log keeps its length — while a normal N still answers.
func TestLiesExtraIsBounded(t *testing.T) {
	ts, ses := newTestServer(t)
	for _, tc := range []struct {
		extra  string
		status int
		events int // event-log growth
	}{
		{"65", http.StatusBadRequest, 0},
		{"99999999999", http.StatusBadRequest, 0},
		{"-1", http.StatusBadRequest, 0},
		{"3", http.StatusOK, 1},
	} {
		before := len(ses.Events())
		resp, err := http.Get(ts.URL + "/lies?extra=" + tc.extra)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		var stats struct{ Events []delta.Event }
		getJSON(t, ts.URL+"/stats", &stats)
		if resp.StatusCode != tc.status || len(stats.Events) != before+tc.events {
			t.Errorf("extra=%s: status %d, events %d → %d; want %d, +%d",
				tc.extra, resp.StatusCode, before, len(stats.Events), tc.status, tc.events)
		}
	}
}

// openSSE subscribes to GET /events and returns the stream's lines.
func openSSE(t *testing.T, url string) <-chan string {
	t.Helper()
	resp, err := http.Get(url + "/events")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	return lines
}

// nextSSE reads one frame off an SSE line stream and decodes its payload.
func nextSSE(t *testing.T, lines <-chan string) (string, delta.Event) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	var event, data string
	for event == "" || data == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before event arrived")
			}
			if strings.HasPrefix(line, "event: ") {
				event = strings.TrimPrefix(line, "event: ")
			}
			if strings.HasPrefix(line, "data: ") {
				data = strings.TrimPrefix(line, "data: ")
			}
		case <-deadline:
			t.Fatal("timed out waiting for SSE event")
		}
	}
	var ev delta.Event
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatalf("SSE data %q: %v", data, err)
	}
	return event, ev
}

func TestSSEStream(t *testing.T) {
	ts, ses := newTestServer(t)
	lines := openSSE(t, ts.URL)

	// Trigger an event after the subscription is live. UpdateBounds is
	// synchronous, so the event is already queued when it returns; the
	// deadline only covers stream delivery.
	if _, err := ses.UpdateBounds(demand.MarginBox(demand.Gravity(ses.Base(), 1.1), 2)); err != nil {
		t.Fatal(err)
	}
	event, ev := nextSSE(t, lines)
	if event != "update" {
		t.Fatalf("SSE event %q, want update", event)
	}
	if ev.Kind != delta.EventUpdate {
		t.Fatalf("SSE payload kind %q", ev.Kind)
	}
}

func TestMethodRouting(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/state", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /state: status %d, want 405", resp.StatusCode)
	}
}

// TestRouteSet pins the route table: every documented route is mounted, and
// nothing answers where the fleet control room and its dashboard used to.
func TestRouteSet(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, tc := range []struct {
		method, path string
		mounted      bool
	}{
		{"GET", "/state", true},
		{"GET", "/routing", true},
		{"GET", "/lies", true},
		{"GET", "/stats", true},
		{"GET", "/events", true},
		{"GET", "/metrics", true},
		{"GET", "/logtail", true},
		{"POST", "/update", true},
		{"POST", "/fail", true},
		{"POST", "/recover", true},
		{"GET", "/fleet", false},
		{"GET", "/fleet/results", false},
		{"GET", "/fleet/events", false},
		{"GET", "/dashboard", false},
		{"GET", "/metrics.json", false},
		{"POST", "/fleet/heartbeat", false},
		{"POST", "/fleet/results", false},
		{"GET", "/sweep", false},
		{"POST", "/sweep", false},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() // /events streams until the client goes away
		if got := resp.StatusCode != http.StatusNotFound; got != tc.mounted {
			t.Errorf("%s %s: status %d, mounted=%v, want %v", tc.method, tc.path, resp.StatusCode, got, tc.mounted)
		}
	}
}
