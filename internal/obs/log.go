package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The structured event log (DESIGN.md §10): a leveled, key-value JSONL
// logger with per-subsystem scopes. It obeys the same two contracts as the
// metrics registry — instrumentation never touches the numeric path, and
// emitting a record is cheap (one level check when filtered out, one short
// critical section when kept). Every record also lands in a fixed-size
// ring, so the last few hundred events are always available to
// GET /logtail even when no sink is configured.

// Level orders log records by severity.
type Level int32

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name used in the JSONL records.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
}

// ParseLevel resolves a level name ("debug", "info", "warn", "error").
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (debug, info, warn, error)", s)
}

// Record is one structured log entry. KV holds alternating key/value
// pairs; keys must be strings.
type Record struct {
	Time  time.Time
	Level Level
	Scope string
	Msg   string
	KV    []any
}

// MarshalJSON renders the record as the flat JSONL object the sink writes:
// {"ts":...,"level":...,"scope":...,"msg":...,<kv pairs>}.
func (r Record) MarshalJSON() ([]byte, error) {
	return r.appendJSON(make([]byte, 0, 128)), nil
}

func (r Record) appendJSON(b []byte) []byte {
	b = append(b, `{"ts":`...)
	b = strconv.AppendQuote(b, r.Time.UTC().Format(time.RFC3339Nano))
	b = append(b, `,"level":`...)
	b = strconv.AppendQuote(b, r.Level.String())
	if r.Scope != "" {
		b = append(b, `,"scope":`...)
		b = strconv.AppendQuote(b, r.Scope)
	}
	b = append(b, `,"msg":`...)
	b = strconv.AppendQuote(b, r.Msg)
	for i := 0; i+1 < len(r.KV); i += 2 {
		key, ok := r.KV[i].(string)
		if !ok {
			key = fmt.Sprintf("%v", r.KV[i])
		}
		b = append(b, ',')
		b = strconv.AppendQuote(b, key)
		b = append(b, ':')
		b = appendLogValue(b, r.KV[i+1])
	}
	if len(r.KV)%2 != 0 {
		// A dangling key is a programming error; surface it rather than
		// silently dropping the value-less key.
		b = append(b, `,"!dangling":`...)
		b = strconv.AppendQuote(b, fmt.Sprintf("%v", r.KV[len(r.KV)-1]))
	}
	return append(b, '}')
}

func appendLogValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return strconv.AppendQuote(b, x)
	case bool:
		return strconv.AppendBool(b, x)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case float64:
		return appendJSONFloat(b, x)
	case float32:
		return appendJSONFloat(b, float64(x))
	case time.Duration:
		return strconv.AppendQuote(b, x.String())
	case error:
		return strconv.AppendQuote(b, x.Error())
	case fmt.Stringer:
		return strconv.AppendQuote(b, x.String())
	case nil:
		return append(b, "null"...)
	default:
		return strconv.AppendQuote(b, fmt.Sprintf("%v", x))
	}
}

// appendJSONFloat renders a float; JSON has no Inf/NaN, so those become
// strings (the record stays parseable).
func appendJSONFloat(b []byte, v float64) []byte {
	if v != v || v > maxJSONFloat || v < -maxJSONFloat {
		return strconv.AppendQuote(b, strconv.FormatFloat(v, 'g', -1, 64))
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

const maxJSONFloat = 1.797693134862315708145274237317043567981e308

// logRingSize bounds the in-memory tail kept for LogTail / GET /logtail.
const logRingSize = 256

// logCore is the shared state behind a set of scoped Loggers: the sink,
// the level filter, and the ring of recent records.
type logCore struct {
	level atomic.Int32

	mu   sync.Mutex
	w    io.Writer // nil: ring only
	ring [logRingSize]Record
	head int // next write slot
	n    int // records currently held
}

func (c *logCore) emit(r Record) {
	c.mu.Lock()
	c.ring[c.head] = r
	c.head = (c.head + 1) % logRingSize
	if c.n < logRingSize {
		c.n++
	}
	if c.w != nil {
		buf := r.appendJSON(make([]byte, 0, 192))
		buf = append(buf, '\n')
		c.w.Write(buf)
	}
	c.mu.Unlock()
}

func (c *logCore) tail(n int) []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 || n > c.n {
		n = c.n
	}
	out := make([]Record, n)
	start := c.head - n
	if start < 0 {
		start += logRingSize
	}
	for i := 0; i < n; i++ {
		out[i] = c.ring[(start+i)%logRingSize]
	}
	return out
}

// defaultLog is the process-wide core every Scope logger shares — the one
// the CLIs point at a file with -log and the one GET /logtail serves.
var defaultLog = newLogCore()

func newLogCore() *logCore {
	c := &logCore{}
	c.level.Store(int32(LevelInfo))
	return c
}

var mLogRecords = Default.NewCounterVec("coyote_log_records_total",
	"Structured log records emitted (past the level filter), by scope and level.",
	"scope", "level")

// Logger is a leveled, scoped handle onto a log core. The zero of *Logger
// (nil) is safe: every method no-ops, so instrumented code never needs a
// nil check.
type Logger struct {
	core  *logCore
	scope string
}

// Scope returns a logger bound to the process-wide sink under the given
// subsystem name ("sweep", "session", "lp", "http", ...). Create
// once at package level; records carry the scope in every line.
func Scope(name string) *Logger { return &Logger{core: defaultLog, scope: name} }

// NewLogger returns a logger with its own isolated core (tests); w may be
// nil for ring-only capture.
func NewLogger(w io.Writer, level Level) *Logger {
	c := newLogCore()
	c.w = w
	c.level.Store(int32(level))
	return &Logger{core: c}
}

// Scope derives a sub-scoped logger sharing this logger's core.
func (l *Logger) Scope(name string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{core: l.core, scope: name}
}

// SetLogOutput points the process-wide log sink at w (nil disables the
// sink; the ring keeps recording either way).
func SetLogOutput(w io.Writer) {
	defaultLog.mu.Lock()
	defaultLog.w = w
	defaultLog.mu.Unlock()
}

// SetLogLevel sets the process-wide level filter.
func SetLogLevel(l Level) { defaultLog.level.Store(int32(l)) }

// LogTail returns up to n of the most recent records (oldest first) from
// the process-wide ring; n ≤ 0 means all retained records.
func LogTail(n int) []Record { return defaultLog.tail(n) }

// Tail returns up to n recent records from this logger's own core.
func (l *Logger) Tail(n int) []Record {
	if l == nil {
		return nil
	}
	return l.core.tail(n)
}

// Enabled reports whether records at the given level pass the filter —
// for guarding expensive attribute computation, not required otherwise.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= Level(l.core.level.Load())
}

// Log emits one record. kv is alternating key/value pairs.
func (l *Logger) Log(level Level, msg string, kv ...any) {
	if !l.Enabled(level) {
		return
	}
	mLogRecords.With(l.scope, level.String()).Inc()
	l.core.emit(Record{Time: time.Now(), Level: level, Scope: l.scope, Msg: msg, KV: kv})
}

// Debug emits a debug-level record.
func (l *Logger) Debug(msg string, kv ...any) { l.Log(LevelDebug, msg, kv...) }

// Info emits an info-level record.
func (l *Logger) Info(msg string, kv ...any) { l.Log(LevelInfo, msg, kv...) }

// Warn emits a warn-level record.
func (l *Logger) Warn(msg string, kv ...any) { l.Log(LevelWarn, msg, kv...) }

// Error emits an error-level record.
func (l *Logger) Error(msg string, kv ...any) { l.Log(LevelError, msg, kv...) }

// LogTailHandler serves the process-wide ring as {"records":[...]};
// ?n=N keeps the N most recent.
func LogTailHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if v := r.URL.Query().Get("n"); v != "" {
			var err error
			if n, err = strconv.Atoi(v); err != nil || n < 0 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusBadRequest)
				io.WriteString(w, `{"error":"n must be a non-negative integer"}`+"\n")
				return
			}
		}
		records := LogTail(n)
		w.Header().Set("Content-Type", "application/json")
		buf := make([]byte, 0, 256*len(records)+32)
		buf = append(buf, `{"records":[`...)
		for i, rec := range records {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = rec.appendJSON(buf)
		}
		buf = append(buf, "]}\n"...)
		w.Write(buf)
	})
}
