package obs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"sync"
)

const logRingSize = 256 // records kept for GET /logtail

// logCore is what the structured event log (DESIGN.md §10) adds to
// log/slog: every Scope logger is a JSONHandler writing into it, one Write
// per record, and it keeps the ring behind GET /logtail and the -log sink.
type logCore struct {
	level slog.LevelVar // zero value: info
	mu    sync.Mutex
	sink  io.Writer // nil: ring only
	ring  [logRingSize][]byte
	head  int // next slot to write
	n     int // records held
}

func (c *logCore) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ring[c.head] = append(c.ring[c.head][:0], p...)
	c.head = (c.head + 1) % logRingSize
	c.n = min(c.n+1, logRingSize)
	if c.sink != nil {
		c.sink.Write(p)
	}
	return len(p), nil
}

func (c *logCore) setSink(w io.Writer) { c.mu.Lock(); c.sink = w; c.mu.Unlock() }

// scope returns a logger whose records carry scope=name and land in c.
func (c *logCore) scope(name string) *slog.Logger {
	h := slog.NewJSONHandler(c, &slog.HandlerOptions{Level: &c.level})
	return slog.New(countingHandler{h.WithAttrs([]slog.Attr{slog.String("scope", name)}), name})
}

var defaultLog = &logCore{} // the core every Scope logger shares

// Scope returns the logger of one subsystem ("sweep", "session", "lp",
// "http"). Create it once at package level: it writes to whatever sink
// SetupLog sets later.
func Scope(name string) *slog.Logger { return defaultLog.scope(name) }

// SetupLog applies the CLIs' -log and -log-level flags. level is a slog
// level name (debug, info, warn, error); dest "" keeps the ring only, "-"
// adds stderr, anything else a file created afresh. The returned func
// detaches the sink and closes the file.
func SetupLog(dest, level string) (func(), error) {
	if err := defaultLog.level.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level: %w", err)
	}
	switch dest {
	case "":
		return func() {}, nil
	case "-":
		defaultLog.setSink(os.Stderr)
		return func() { defaultLog.setSink(nil) }, nil
	}
	f, err := os.Create(dest)
	if err != nil {
		return nil, err
	}
	defaultLog.setSink(f)
	return func() { defaultLog.setSink(nil); f.Close() }, nil
}

var mLogRecords = Default.NewCounterVec("coyote_log_records_total",
	"Structured log records emitted (past the level filter), by scope and level.",
	"scope", "level")

// levelLabels are the counter's lower-case level labels, by (slog level+4)/4.
var levelLabels = [...]string{"debug", "info", "warn", "error"}

// countingHandler counts every record it handles in coyote_log_records_total.
type countingHandler struct {
	slog.Handler
	scope string
}

func (h countingHandler) Handle(ctx context.Context, r slog.Record) error {
	mLogRecords.With(h.scope, levelLabels[min(max(r.Level+4, 0)/4, 3)]).Inc()
	return h.Handler.Handle(ctx, r)
}

func (h countingHandler) WithAttrs(as []slog.Attr) slog.Handler {
	return countingHandler{h.Handler.WithAttrs(as), h.scope}
}

func (h countingHandler) WithGroup(name string) slog.Handler {
	return countingHandler{h.Handler.WithGroup(name), h.scope}
}

// LogTailHandler serves the process-wide ring as {"records":[...]}, oldest
// first; ?n=N keeps the N most recent (0 or absent: all it holds).
func LogTailHandler() http.Handler { return defaultLog }

func (c *logCore) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	n, err := 0, error(nil)
	if v := r.URL.Query().Get("n"); v != "" {
		if n, err = strconv.Atoi(v); err != nil || n < 0 {
			w.WriteHeader(http.StatusBadRequest)
			io.WriteString(w, `{"error":"n must be a non-negative integer"}`+"\n")
			return
		}
	}
	buf := []byte(`{"records":[`)
	c.mu.Lock()
	if n == 0 || n > c.n {
		n = c.n
	}
	for i := range n {
		rec := c.ring[(c.head-n+i+logRingSize)%logRingSize]
		buf = append(append(buf, rec[:len(rec)-1]...), ',') // newline → comma
	}
	c.mu.Unlock()
	w.Write(append(bytes.TrimSuffix(buf, []byte(",")), "]}\n"...))
}
