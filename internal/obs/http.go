package obs

import (
	"expvar"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// The HTTP family: request counts by route pattern and status code, and a
// latency histogram by pattern. Registered on Default so any handler in
// the process shares one family.
var (
	httpRequests = Default.NewCounterVec("coyote_http_requests_total",
		"HTTP requests served, by route pattern and status code.",
		"path", "code")
	httpLatency = Default.NewHistogramVec("coyote_http_request_seconds",
		"HTTP request latency in seconds, by route pattern.",
		ExpBuckets(0.001, 4, 9), // 1ms .. ~4.4m
		"path")
)

// httpLog records request failures; success traffic stays out of the log
// (the metrics carry the volume story).
var httpLog = Scope("http")

// statusWriter captures the response code. The SSE endpoint requires the
// wrapper to keep http.Flusher visible, hence the two variants.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

type flushStatusWriter struct {
	*statusWriter
	fl http.Flusher
}

func (w *flushStatusWriter) Flush() { w.fl.Flush() }

// InstrumentHTTP wraps a handler with the Default-registry HTTP metrics.
// The path label is the matched ServeMux pattern (r.Pattern), not the raw
// URL, so label cardinality stays bounded; unmatched requests label as
// "unmatched".
func InstrumentHTTP(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		var ww http.ResponseWriter = sw
		if fl, ok := w.(http.Flusher); ok {
			ww = &flushStatusWriter{statusWriter: sw, fl: fl}
		}
		next.ServeHTTP(ww, r)
		path := r.Pattern
		if path == "" {
			path = "unmatched"
		}
		httpRequests.With(path, strconv.Itoa(sw.code)).Inc()
		httpLatency.With(path).ObserveSince(start)
		if sw.code >= 400 {
			level := slog.LevelWarn
			if sw.code >= 500 {
				level = slog.LevelError
			}
			httpLog.Log(r.Context(), level, "request failed",
				"method", r.Method, "path", path, "url", r.URL.Path, "code", sw.code,
				"elapsed", time.Since(start))
		}
	})
}

// DebugMux returns the debug plane served behind -debug-addr: the pprof
// profile endpoints, expvar, the registry's /metrics and the /logtail
// event tail. Mounting it on a separate listener keeps profiling off the
// public API surface.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/logtail", LogTailHandler())
	return mux
}
