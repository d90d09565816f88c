package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func decodeLine(t *testing.T, line []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatalf("record is not valid JSON: %v\n%s", err, line)
	}
	return m
}

// testCore returns an isolated core at the given level whose sink is buf.
func testCore(level slog.Level, buf *bytes.Buffer) *logCore {
	c := &logCore{}
	c.level.Set(level)
	if buf != nil {
		c.setSink(buf)
	}
	return c
}

// tail GETs /logtail?query from h and returns the decoded records.
func tail(t *testing.T, h http.Handler, query string) []map[string]any {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/logtail"+query, nil))
	if rr.Code != 200 {
		t.Fatalf("/logtail%s: status %d", query, rr.Code)
	}
	var body struct {
		Records []map[string]any `json:"records"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("/logtail%s: bad JSON: %v\n%s", query, err, rr.Body.String())
	}
	return body.Records
}

func TestLoggerJSONShape(t *testing.T) {
	var buf bytes.Buffer
	l := testCore(slog.LevelDebug, &buf).scope("sweep")
	l.Info("unit done", "unit", "exp1/NSF", "cached", true, "elapsed", 1500*time.Millisecond,
		"n", 42, "ratio", 1.25, "err", error(nil))

	m := decodeLine(t, bytes.TrimSpace(buf.Bytes()))
	if m["level"] != "INFO" || m["scope"] != "sweep" || m["msg"] != "unit done" {
		t.Fatalf("wrong envelope: %v", m)
	}
	if m["unit"] != "exp1/NSF" || m["cached"] != true || m["elapsed"] != float64(1.5e9) {
		t.Errorf("wrong kv rendering (durations are nanoseconds): %v", m)
	}
	if m["n"] != float64(42) || m["ratio"] != 1.25 || m["err"] != nil {
		t.Errorf("wrong numeric/nil rendering: %v", m)
	}
	if ts, ok := m["time"].(string); !ok {
		t.Errorf("missing time")
	} else if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
		t.Errorf("time %q not RFC3339Nano: %v", ts, err)
	}
}

func TestLoggerValueKinds(t *testing.T) {
	var buf bytes.Buffer
	testCore(slog.LevelDebug, &buf).scope("kinds").Info("kinds",
		"err", errors.New(`boom "quoted"`),
		"u", uint64(7),
		"i64", int64(-9),
		"f32", float32(0.5),
		"inf", math.Inf(1),
		"other", []int{1, 2},
	)
	m := decodeLine(t, bytes.TrimSpace(buf.Bytes()))
	if m["err"] != `boom "quoted"` {
		t.Errorf("error rendering: %v", m)
	}
	if m["u"] != float64(7) || m["i64"] != float64(-9) || m["f32"] != 0.5 {
		t.Errorf("numeric rendering: %v", m)
	}
	if s, _ := m["inf"].(string); !strings.HasPrefix(s, "!ERROR:") {
		t.Errorf("a non-finite float should become an !ERROR: string: %v", m["inf"])
	}
	if fmt.Sprint(m["other"]) != "[1 2]" {
		t.Errorf("slice rendering: %v", m["other"])
	}
}

func TestLoggerDanglingKey(t *testing.T) {
	var buf bytes.Buffer
	args := []any{"key-without-value"} // a slice, so vet does not catch it first
	testCore(slog.LevelDebug, &buf).scope("odd").Warn("odd", args...)
	m := decodeLine(t, bytes.TrimSpace(buf.Bytes()))
	if m["!BADKEY"] != "key-without-value" {
		t.Errorf("dangling key not surfaced: %v", m)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	c := testCore(slog.LevelWarn, &buf)
	l := c.scope("filter")
	l.Debug("nope")
	l.Info("nope")
	l.Warn("yes")
	l.Error("also")
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("want 2 records past the filter, got %d: %s", len(lines), buf.String())
	}
	if got := tail(t, c, ""); len(got) != 2 || got[0]["msg"] != "yes" {
		t.Errorf("ring holds filtered records: %v", got)
	}
	if !l.Enabled(context.Background(), slog.LevelError) || l.Enabled(context.Background(), slog.LevelInfo) {
		t.Errorf("Enabled disagrees with the filter")
	}
}

func TestLoggerRingTail(t *testing.T) {
	c := testCore(slog.LevelDebug, nil) // ring only
	l := c.scope("ring")
	for i := range logRingSize + 1 {
		l.Info(fmt.Sprintf("msg-%d", i), "i", i)
	}
	all := tail(t, c, "")
	if len(all) != logRingSize {
		t.Fatalf("ring holds %d, want %d", len(all), logRingSize)
	}
	if all[0]["msg"] != "msg-1" || all[len(all)-1]["msg"] != fmt.Sprintf("msg-%d", logRingSize) {
		t.Errorf("the 257th record should evict the oldest: first=%v last=%v", all[0]["msg"], all[len(all)-1]["msg"])
	}
}

// TestLogConcurrent: scopes sharing a core log from several goroutines while
// /logtail is read and the sink is swapped; every kept record stays whole.
func TestLogConcurrent(t *testing.T) {
	c := testCore(slog.LevelDebug, nil)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := c.scope(fmt.Sprintf("g%d", g))
			for i := range 200 {
				l.Info("concurrent", "i", i)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 50 {
			var buf bytes.Buffer
			c.setSink(&buf)
			rr := httptest.NewRecorder()
			c.ServeHTTP(rr, httptest.NewRequest("GET", "/logtail?n=10", nil))
			c.setSink(nil)
			if !json.Valid(rr.Body.Bytes()) {
				t.Errorf("tail is not JSON: %s", rr.Body.String())
			}
		}
	}()
	wg.Wait()
	for _, r := range tail(t, c, "") {
		if r["msg"] != "concurrent" || r["scope"] == nil || r["i"] == nil {
			t.Fatalf("torn record: %v", r)
		}
	}
}

func TestLogTailHandler(t *testing.T) {
	c := testCore(slog.LevelDebug, nil)
	l := c.scope("tail")
	for i := range 5 {
		l.Info(fmt.Sprintf("msg-%d", i), "i", i)
	}
	for q, want := range map[string]int{"?n=0": 5, "?n=3": 3, "?n=1000": 5} {
		got := tail(t, c, q)
		if len(got) != want || got[len(got)-1]["msg"] != "msg-4" {
			t.Errorf("%s: %d records ending %v, want %d ending msg-4", q, len(got), got[len(got)-1]["msg"], want)
		}
	}
	if r := tail(t, c, "?n=1")[0]; r["scope"] != "tail" || r["i"] != float64(4) {
		t.Errorf("record lacks scope or key/values: %v", r)
	}

	Scope("test-tail").Info("visible in tail", "k", 1)
	found := false
	for _, r := range tail(t, LogTailHandler(), "?n=5") {
		found = found || r["msg"] == "visible in tail" && r["scope"] == "test-tail" && r["k"] == float64(1)
	}
	if !found {
		t.Errorf("record missing from the process-wide tail")
	}

	for _, q := range []string{"abc", "-1", "1.5"} {
		rr := httptest.NewRecorder()
		LogTailHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/logtail?n="+q, nil))
		var e struct {
			Error string `json:"error"`
		}
		if rr.Code != 400 || json.Unmarshal(rr.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Errorf("n=%s: status %d body %q, want 400 with a JSON error", q, rr.Code, rr.Body.String())
		}
	}
}

// TestLogRecordsCounter: the counter's level labels stay lower-case, so the
// coyote_log_records_total series are the ones they were before slog.
func TestLogRecordsCounter(t *testing.T) {
	l := testCore(slog.LevelDebug, nil).scope("counter-scope")
	for _, level := range []string{"debug", "info", "warn", "error"} {
		c := mLogRecords.With("counter-scope", level)
		before := c.Value()
		var lv slog.Level
		if err := lv.UnmarshalText([]byte(level)); err != nil {
			t.Fatal(err)
		}
		l.Log(context.Background(), lv, "counted")
		if after := c.Value(); after != before+1 {
			t.Errorf("coyote_log_records_total{level=%q} %v -> %v, want +1", level, before, after)
		}
	}
}

// TestSetupLog: the CLIs create their Scope loggers at package init, before
// -log is parsed, so an early logger must write to the sink set later.
func TestSetupLog(t *testing.T) {
	early := Scope("early")
	path := filepath.Join(t.TempDir(), "log.jsonl")
	stop, err := SetupLog(path, "debug")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { SetupLog("", "info") })
	early.Debug("after setup", "k", "v")
	stop()
	early.Error("after stop")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) != 1 {
		t.Fatalf("sink holds %d records, want 1:\n%s", len(lines), data)
	}
	if m := decodeLine(t, lines[0]); m["scope"] != "early" || m["msg"] != "after setup" || m["k"] != "v" {
		t.Errorf("wrong record in sink: %v", m)
	}

	for _, level := range []string{"debug", "info", "warn", "error", "WARN"} {
		if _, err := SetupLog("", level); err != nil {
			t.Errorf("-log-level %s: %v", level, err)
		}
	}
	for _, level := range []string{"warning", "loud", ""} {
		if _, err := SetupLog("", level); err == nil {
			t.Errorf("-log-level %q accepted", level)
		}
	}
	if _, err := SetupLog(filepath.Join(t.TempDir(), "no", "such", "dir"), "info"); err == nil {
		t.Errorf("unwritable -log accepted")
	}
}

// TestHTTPFailuresAreLogged: every 4xx and 5xx leaves a record carrying the
// method, route pattern and status code.
func TestHTTPFailuresAreLogged(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /teapot/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	mux.HandleFunc("POST /boom", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	h := InstrumentHTTP(mux)
	for _, req := range []*http.Request{
		httptest.NewRequest("GET", "/teapot/7", nil),
		httptest.NewRequest("POST", "/boom", nil),
	} {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	want := map[string]float64{"GET /teapot/{id}": 418, "POST /boom": 500}
	for _, r := range tail(t, LogTailHandler(), "?n=2") {
		path, _ := r["path"].(string)
		method, _, _ := strings.Cut(path, " ")
		if r["scope"] != "http" || r["method"] != method || r["code"] != want[path] {
			t.Errorf("request failure record: %v", r)
		}
		delete(want, path)
	}
	if len(want) != 0 {
		t.Errorf("no record for %v", want)
	}
}
