// Command coyote-sweep is the corpus-scale sweep driver (DESIGN.md §8): it
// runs whole evaluation campaigns — every registered experiment × corpus /
// Topology Zoo / SNDlib topology × generated-scenario suite — through the
// content-addressed result cache, shards them across processes, and diffs
// result sets against each other or the golden regression corpus.
//
// Usage:
//
//	coyote-sweep run    -campaign golden -cache .sweep-cache -out run.jsonl -v
//	coyote-sweep run    -campaign quick -shard 0/4 -out shard0.jsonl   # one of four shard processes
//	coyote-sweep resume -campaign quick -cache .sweep-cache -out run.jsonl
//	coyote-sweep status -campaign quick -cache .sweep-cache
//	coyote-sweep merge  -out merged.jsonl shard0.jsonl shard1.jsonl shard2.jsonl shard3.jsonl
//	coyote-sweep diff   a.jsonl b.jsonl
//	coyote-sweep diff   -golden testdata/golden run.jsonl
//
// run and resume are the same engine — the cache is what makes re-runs
// incremental — but resume refuses to start from an empty cache, so a typo
// in -cache fails loudly instead of silently recomputing a whole campaign.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/sweep"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "run":
		err = runCmd(args, false)
	case "resume":
		err = runCmd(args, true)
	case "status":
		err = statusCmd(args)
	case "merge":
		err = mergeCmd(args)
	case "diff":
		err = diffCmd(args)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "coyote-sweep: unknown subcommand %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coyote-sweep:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `coyote-sweep — corpus-scale sweep harness

subcommands:
  run     run a campaign (through the cache when -cache is set)
  resume  like run, but requires a non-empty cache (resume an interrupted campaign)
  status  report which campaign units are already cached
  merge   merge shard JSONL outputs into canonical campaign order
  diff    compare two JSONL result sets, or one against -golden <dir>

common flags (run/resume/status):
  -campaign golden|quick|full   campaign to enumerate (default quick)
  -topo-dir DIR                 add real topology files to the full campaign
  -cache DIR                    content-addressed result cache
  -fingerprint S                override the code fingerprint in cache keys
run/resume also take:
  -out FILE                     stream results as JSONL (default stdout)
  -shard i/n                    run only units with index ≡ i (mod n) (default 0/1: all)
  -workers N                    unit-level worker pool (0 = one per CPU)
  -verify                       recompute cache hits, fail unless bit-identical
  -v                            per-unit progress on stderr
  -metrics                      dump Prometheus metrics to stderr after the run
  -debug-addr ADDR              serve /debug/pprof, /debug/vars, /metrics, /logtail while running
  -trace FILE                   per-unit span trace (.jsonl, or Chrome/Perfetto JSON)
  -log FILE                     structured event log (JSONL; "-" = stderr)
  -log-level LEVEL              debug|info|warn|error (default info)
diff takes:
  -tol X                        numeric tolerance (default 0 = exact)
  -golden DIR                   compare FILE against the golden corpus dir`)
}

// campaignFlags are the flags shared by run/resume/status.
type campaignFlags struct {
	campaign, topoDir, cacheDir, fingerprint string
}

func (cf *campaignFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&cf.campaign, "campaign", "quick", "campaign name: golden, quick, or full")
	fs.StringVar(&cf.topoDir, "topo-dir", "", "directory of real topology files (full campaign)")
	fs.StringVar(&cf.cacheDir, "cache", "", "content-addressed result cache directory")
	fs.StringVar(&cf.fingerprint, "fingerprint", "", "override the code fingerprint in cache keys")
}

// fp is the code fingerprint cache keys are derived under.
func (cf *campaignFlags) fp() string {
	if cf.fingerprint != "" {
		return cf.fingerprint
	}
	return sweep.Fingerprint()
}

func (cf *campaignFlags) load() (sweep.Campaign, *sweep.Cache, error) {
	c, err := sweep.Named(cf.campaign, cf.topoDir)
	if err != nil {
		return sweep.Campaign{}, nil, err
	}
	var cache *sweep.Cache
	if cf.cacheDir != "" {
		cache, err = sweep.Open(cf.cacheDir)
		if err != nil {
			return sweep.Campaign{}, nil, err
		}
	}
	return c, cache, nil
}

func runCmd(args []string, resume bool) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var cf campaignFlags
	cf.register(fs)
	var (
		out       = fs.String("out", "", "write the JSONL result stream here (default stdout)")
		shard     = fs.String("shard", "0/1", "i/n — run only this shard of the campaign")
		workers   = fs.Int("workers", 0, "unit-level worker pool size (0 = one per CPU)")
		verify    = fs.Bool("verify", false, "recompute every cache hit and require bit-identical results")
		verbose   = fs.Bool("v", false, "per-unit progress on stderr")
		metrics   = fs.Bool("metrics", false, "dump the metrics registry (Prometheus text) to stderr after the run")
		debugAddr = fs.String("debug-addr", "", "serve /debug/pprof, /debug/vars, /metrics, /logtail on this address for the run's duration")
		traceOut  = fs.String("trace", "", "write a per-unit/per-stage trace here (.jsonl = span records, else Chrome trace-event JSON)")
		logOut    = fs.String("log", "", `structured event log destination (JSONL file, or "-" for stderr)`)
		logLevel  = fs.String("log-level", "info", "minimum level for the event log: debug, info, warn, error")
	)
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("run: unexpected arguments %v", fs.Args())
	}
	shardI, shardN, err := parseShard(*shard)
	if err != nil {
		return err
	}

	c, cache, err := cf.load()
	if err != nil {
		return err
	}
	if resume {
		if cache == nil {
			return fmt.Errorf("resume: -cache is required")
		}
		// Count entries this campaign will actually hit — Len() would also
		// count other campaigns' and other builds' entries, letting a typo'd
		// -cache or a recompile silently recompute everything under a
		// "resuming" banner.
		fp := cf.fp()
		cached, _, err := cachedUnits(c, cache, fp)
		if err != nil {
			return err
		}
		if cached == 0 {
			return fmt.Errorf("resume: cache %s holds no %s-campaign entries for fingerprint %s — use run to start a campaign (or -fingerprint to pin a cache epoch across builds)", cache.Dir(), c.Name, fp)
		}
		fmt.Fprintf(os.Stderr, "resuming %s campaign: %d/%d units cached\n", c.Name, cached, len(c.Units))
	}

	closeLog, err := obs.SetupLog(*logOut, *logLevel)
	if err != nil {
		return err
	}
	defer closeLog()

	opts := sweep.Options{
		Cache:       cache,
		Fingerprint: cf.fingerprint,
		Shard:       shardI,
		Shards:      shardN,
		Workers:     *workers,
		Verify:      *verify,
	}
	// SIGINT/SIGTERM cancel the run context: in-flight units finish (their
	// results land in the cache and the JSONL stream), no new units start,
	// and the trace file is still written — the campaign stays resumable
	// and the trace loadable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.Ctx = ctx
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		opts.Ctx = obs.WithTracer(ctx, tracer)
	}
	if *debugAddr != "" {
		debugSrv := &http.Server{
			Addr:    *debugAddr,
			Handler: obs.DebugMux(obs.Default),
			// As on coyote-serve's listeners: a half-open connection must
			// not hold the debug plane for a whole campaign.
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			fmt.Fprintf(os.Stderr, "debug plane on %s (/debug/pprof /debug/vars /metrics)\n", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "coyote-sweep: debug listener:", err)
			}
		}()
		defer debugSrv.Close()
	}
	w := os.Stdout
	if *out != "" {
		if w, err = os.Create(*out); err != nil {
			return err
		}
		defer w.Close() // error paths; the success path checks Close below
	}
	opts.Stream = w
	if *verbose {
		// This shard runs the units with index ≡ Shard (mod Shards).
		total := len(c.Units) / shardN
		if shardI < len(c.Units)%shardN {
			total++
		}
		done := 0
		opts.Progress = func(us sweep.UnitStatus) {
			done++
			state := "miss"
			if us.Cached {
				state = "hit"
			}
			fmt.Fprintf(os.Stderr, "[%3d/%3d] %-5s %-32s %v\n", done, total, state, us.Unit, us.Elapsed.Round(time.Millisecond))
		}
	}

	rep, err := sweep.Run(c, opts)
	if err == nil && *out != "" {
		// A write error can surface only at close (ENOSPC, NFS); a result
		// stream that did not land is a failed campaign.
		err = w.Close()
	}
	if tracer != nil {
		if werr := tracer.WriteFile(*traceOut); werr != nil {
			fmt.Fprintln(os.Stderr, "coyote-sweep:", werr)
		} else {
			fmt.Fprintf(os.Stderr, "wrote %d trace spans to %s\n", tracer.Len(), *traceOut)
		}
	}
	if *metrics {
		obs.Default.WriteProm(os.Stderr)
	}
	if err != nil {
		if ctx.Err() != nil {
			cacheHint := ""
			if cache != nil {
				cacheHint = " -cache " + cache.Dir()
			}
			fmt.Fprintf(os.Stderr, "interrupted: finished units are streamed and cached; resume with: coyote-sweep resume -campaign %s%s\n", c.Name, cacheHint)
		}
		return err
	}
	fmt.Fprintf(os.Stderr, "%s campaign: %d units (%d cache hits, %d computed) in %v\n",
		rep.Campaign, len(rep.Results), rep.Hits, rep.Misses, rep.Elapsed.Round(time.Millisecond))
	return nil
}

// parseShard parses -shard's "i/n": n ≥ 1, 0 ≤ i < n, nothing else.
func parseShard(s string) (i, n int, err error) {
	is, ns, ok := strings.Cut(s, "/")
	if ok {
		if i, err = strconv.Atoi(is); err == nil {
			n, err = strconv.Atoi(ns)
		}
	}
	if !ok || err != nil || n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("bad -shard %q: want i/n with n ≥ 1 and 0 ≤ i < n", s)
	}
	return i, n, nil
}

func statusCmd(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	var cf campaignFlags
	cf.register(fs)
	fs.Parse(args)
	c, cache, err := cf.load()
	if err != nil {
		return err
	}
	if cache == nil {
		return fmt.Errorf("status: -cache is required")
	}
	fp := cf.fp()
	cached, byKind, err := cachedUnits(c, cache, fp)
	if err != nil {
		return err
	}
	fmt.Printf("campaign %s: %d/%d units cached (fingerprint %s)\n", c.Name, cached, len(c.Units), fp)
	for _, kind := range []string{"exp", "corpus", "scen", "file"} {
		if st, ok := byKind[kind]; ok {
			fmt.Printf("  %-7s %d/%d\n", kind, st[0], st[1])
		}
	}
	if cached < len(c.Units) {
		fmt.Printf("resume with: coyote-sweep resume -campaign %s -cache %s\n", c.Name, cache.Dir())
	}
	return nil
}

// cachedUnits counts the campaign's units the cache already holds under
// code fingerprint fp, in total and per unit kind ({cached, total}).
func cachedUnits(c sweep.Campaign, cache *sweep.Cache, fp string) (int, map[string][2]int, error) {
	byKind := map[string][2]int{}
	cached := 0
	for _, u := range c.Units {
		key, err := u.Key(c.Cfg, fp)
		if err != nil {
			return 0, nil, err
		}
		st := byKind[u.Kind]
		st[1]++
		if cache.Has(key) {
			st[0]++
			cached++
		}
		byKind[u.Kind] = st
	}
	return cached, byKind, nil
}

func mergeCmd(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("out", "", "write merged JSONL here (default stdout)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("merge: at least one shard JSONL file required")
	}
	var shards [][]sweep.Result
	for _, path := range fs.Args() {
		res, err := readJSONLFile(path)
		if err != nil {
			return err
		}
		shards = append(shards, res)
	}
	merged, err := sweep.MergeResults(shards...)
	if err != nil {
		return err
	}
	if *out == "" {
		return sweep.WriteJSONL(os.Stdout, merged)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := sweep.WriteJSONL(f, merged); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func diffCmd(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	tol := fs.Float64("tol", 0, "numeric tolerance per cell (0 = exact)")
	golden := fs.String("golden", "", "compare against this golden corpus directory")
	fs.Parse(args)

	var a, b []sweep.Result
	var aName, bName string
	var err error
	switch {
	case *golden != "" && fs.NArg() == 1:
		aName, bName = *golden, fs.Arg(0)
		a, err = sweep.ReadGolden(*golden)
		if err != nil {
			return err
		}
		b, err = readJSONLFile(fs.Arg(0))
	case *golden == "" && fs.NArg() == 2:
		aName, bName = fs.Arg(0), fs.Arg(1)
		a, err = readJSONLFile(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err = readJSONLFile(fs.Arg(1))
	default:
		return fmt.Errorf("diff: want two JSONL files, or -golden DIR and one JSONL file")
	}
	if err != nil {
		return err
	}

	drifts := sweep.Diff(a, b, *tol)
	if len(drifts) == 0 {
		fmt.Printf("no drift: %s and %s agree on %d units (tol %g)\n", aName, bName, len(a), *tol)
		return nil
	}
	for _, d := range drifts {
		fmt.Println(d)
	}
	return fmt.Errorf("%d drift(s) between %s and %s", len(drifts), aName, bName)
}

func readJSONLFile(path string) ([]sweep.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := sweep.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}
