package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
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

func TestLoggerJSONShape(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug).Scope("sweep")
	l.Info("unit done", "unit", "exp1/NSF", "cached", true, "elapsed", 1500*time.Millisecond,
		"n", 42, "ratio", 1.25, "err", error(nil))

	line := bytes.TrimSpace(buf.Bytes())
	m := decodeLine(t, line)
	if m["level"] != "info" || m["scope"] != "sweep" || m["msg"] != "unit done" {
		t.Fatalf("wrong envelope: %v", m)
	}
	if m["unit"] != "exp1/NSF" || m["cached"] != true || m["elapsed"] != "1.5s" {
		t.Errorf("wrong kv rendering: %v", m)
	}
	if m["n"] != float64(42) || m["ratio"] != 1.25 || m["err"] != nil {
		t.Errorf("wrong numeric/nil rendering: %v", m)
	}
	if ts, ok := m["ts"].(string); !ok {
		t.Errorf("missing ts")
	} else if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
		t.Errorf("ts %q not RFC3339Nano: %v", ts, err)
	}
}

func TestLoggerValueKinds(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	l.Info("kinds",
		"err", errors.New(`boom "quoted"`),
		"stringer", LevelWarn, // fmt.Stringer
		"u", uint64(7),
		"i64", int64(-9),
		"f32", float32(0.5),
		"inf", math.Inf(1),
		"other", []int{1, 2},
	)
	m := decodeLine(t, bytes.TrimSpace(buf.Bytes()))
	if m["err"] != `boom "quoted"` || m["stringer"] != "warn" {
		t.Errorf("error/stringer rendering: %v", m)
	}
	if m["u"] != float64(7) || m["i64"] != float64(-9) || m["f32"] != 0.5 {
		t.Errorf("numeric rendering: %v", m)
	}
	if m["inf"] != "+Inf" {
		t.Errorf("inf should be quoted: %v", m["inf"])
	}
	if m["other"] != "[1 2]" {
		t.Errorf("fallback rendering: %v", m["other"])
	}
}

func TestLoggerDanglingKey(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, LevelDebug).Warn("odd", "key-without-value")
	m := decodeLine(t, bytes.TrimSpace(buf.Bytes()))
	if m["!dangling"] != "key-without-value" {
		t.Errorf("dangling key not surfaced: %v", m)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn)
	l.Debug("nope")
	l.Info("nope")
	l.Warn("yes")
	l.Error("also")
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("want 2 records past the filter, got %d: %s", len(lines), buf.String())
	}
	if !l.Enabled(LevelError) || l.Enabled(LevelInfo) {
		t.Errorf("Enabled disagrees with the filter")
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Info("ignored", "k", "v") // must not panic
	l.Scope("sub").Error("ignored")
	if l.Enabled(LevelError) {
		t.Errorf("nil logger claims enabled")
	}
	if got := l.Tail(10); got != nil {
		t.Errorf("nil logger tail = %v", got)
	}
}

func TestLoggerRingTail(t *testing.T) {
	l := NewLogger(nil, LevelDebug) // ring-only
	for i := 0; i < logRingSize+10; i++ {
		l.Info(fmt.Sprintf("msg-%d", i))
	}
	all := l.Tail(0)
	if len(all) != logRingSize {
		t.Fatalf("ring holds %d, want %d", len(all), logRingSize)
	}
	if all[0].Msg != "msg-10" || all[len(all)-1].Msg != fmt.Sprintf("msg-%d", logRingSize+9) {
		t.Errorf("ring window wrong: first=%s last=%s", all[0].Msg, all[len(all)-1].Msg)
	}
	last3 := l.Tail(3)
	if len(last3) != 3 || last3[2].Msg != all[len(all)-1].Msg {
		t.Errorf("Tail(3) wrong: %v", last3)
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Errorf("ParseLevel accepted junk")
	}
}

func TestLogTailHandler(t *testing.T) {
	Scope("test-tail").Info("visible in tail", "k", 1)
	rr := httptest.NewRecorder()
	LogTailHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/logtail?n=5", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var body struct {
		Records []map[string]any `json:"records"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	found := false
	for _, r := range body.Records {
		if r["msg"] == "visible in tail" && r["scope"] == "test-tail" {
			found = true
		}
	}
	if !found {
		t.Errorf("record missing from tail: %s", rr.Body.String())
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

func TestLogRecordsCounter(t *testing.T) {
	c := mLogRecords.With("counter-scope", "warn")
	before := c.Value()
	Scope("counter-scope").Warn("counted")
	after := c.Value()
	if after != before+1 {
		t.Errorf("coyote_log_records_total %v -> %v, want +1", before, after)
	}
}
