package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/coyote-te/coyote/internal/exp"
)

// tinyConfig is deliberately cheaper than exp.Quick so the harness's own
// machinery can be exercised many times per test run.
func tinyConfig() exp.Config {
	return exp.Config{
		Margins:  []float64{1, 2},
		Samples:  2,
		OptIters: 40,
		AdvIters: 1,
		Eps:      0.25,
		Seed:     1,
	}
}

// tinyCampaign covers every unit kind with the cheapest member of each.
func tinyCampaign(t *testing.T) Campaign {
	t.Helper()
	units := Experiments("negative-np", "negative-path", "running")
	corpus, err := Corpus([]string{"Gambia"}, []string{"gravity"})
	if err != nil {
		t.Fatal(err)
	}
	units = append(units, corpus...)
	suite, err := Scenarios(1, "ring-12-flash")
	if err != nil {
		t.Fatal(err)
	}
	units = append(units, suite...)
	c, err := finalize("tiny", tinyConfig(), units)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCampaignsEnumerateDeterministically(t *testing.T) {
	for _, name := range []string{"golden", "quick"} {
		a, err := Named(name, "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := Named(name, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Units) == 0 {
			t.Fatalf("%s: empty campaign", name)
		}
		if len(a.Units) != len(b.Units) {
			t.Fatalf("%s: %d units vs %d units", name, len(a.Units), len(b.Units))
		}
		for i := range a.Units {
			if a.Units[i].ID != b.Units[i].ID {
				t.Fatalf("%s: unit %d ID %q vs %q", name, i, a.Units[i].ID, b.Units[i].ID)
			}
			if !bytes.Equal(a.Units[i].Topo, b.Units[i].Topo) {
				t.Fatalf("%s: unit %s topology bytes differ between enumerations", name, a.Units[i].ID)
			}
			if i > 0 && a.Units[i].ID <= a.Units[i-1].ID {
				t.Fatalf("%s: units not sorted/unique at %q", name, a.Units[i].ID)
			}
		}
	}
	if _, err := Named("bogus", ""); err == nil {
		t.Fatal("unknown campaign name accepted")
	}
}

// TestKeyDiscriminates pins the cache-key semantics: every coordinate of
// (topology bytes, unit identity, config, fingerprint) must change the
// key, and equal inputs must reproduce it.
func TestKeyDiscriminates(t *testing.T) {
	base := Unit{ID: "corpus/X/gravity", Kind: "corpus", Topo: []byte("node a\nnode b\nlink a b 1 1\n"), Model: "gravity"}
	cfg := tinyConfig()
	k0, err := base.Key(cfg, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if k1, _ := base.Key(cfg, "fp"); k1 != k0 {
		t.Fatal("key not reproducible for identical inputs")
	}
	mutations := map[string]func() (string, error){
		"topology bytes": func() (string, error) {
			u := base
			u.Topo = []byte("node a\nnode b\nlink a b 2 1\n")
			return u.Key(cfg, "fp")
		},
		"unit ID": func() (string, error) {
			u := base
			u.ID = "corpus/Y/gravity"
			return u.Key(cfg, "fp")
		},
		"model": func() (string, error) {
			u := base
			u.Model = "hotspot"
			return u.Key(cfg, "fp")
		},
		"config": func() (string, error) {
			c := cfg
			c.OptIters++
			return base.Key(c, "fp")
		},
		"seed": func() (string, error) {
			c := cfg
			c.Seed++
			return base.Key(c, "fp")
		},
		"fingerprint": func() (string, error) {
			return base.Key(cfg, "fp2")
		},
	}
	for name, mutate := range mutations {
		k, err := mutate()
		if err != nil {
			t.Fatal(err)
		}
		if k == k0 {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
	// Framing: moving a byte across a field boundary must not collide.
	a := Unit{ID: "ab", Kind: "exp", Exp: "c"}
	b := Unit{ID: "a", Kind: "exp", Exp: "bc"}
	ka, _ := a.Key(cfg, "fp")
	kb, _ := b.Key(cfg, "fp")
	if ka == kb {
		t.Error("field framing collision: ab/c and a/bc share a key")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Entry{
		Key:         strings.Repeat("ab", 32),
		Unit:        "exp/running",
		Table:       &exp.Table{Title: "t", Columns: []string{"a"}, Rows: [][]string{{"1"}}},
		CreatedUnix: 123,
		ElapsedMS:   7,
	}
	if _, hit, err := cache.Get(e.Key); err != nil || hit {
		t.Fatalf("Get on empty cache: hit=%v err=%v", hit, err)
	}
	if cache.Has(e.Key) {
		t.Fatal("Has on empty cache")
	}
	if err := cache.Put(e); err != nil {
		t.Fatal(err)
	}
	if !cache.Has(e.Key) {
		t.Fatal("Has after Put = false")
	}
	got, hit, err := cache.Get(e.Key)
	if err != nil || !hit {
		t.Fatalf("Get after Put: hit=%v err=%v", hit, err)
	}
	if got.Unit != e.Unit || got.Table.Title != "t" || got.CreatedUnix != 123 {
		t.Fatalf("round trip mangled entry: %+v", got)
	}
	if n, err := cache.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v", n, err)
	}
	// A corrupt entry must be an error, never a silent miss.
	path := filepath.Join(cache.Dir(), e.Key[:2], e.Key+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Get(e.Key); err == nil {
		t.Fatal("corrupt cache entry read back without error")
	}
	// Valid JSON with a null table is equally corrupt: serving it as a hit
	// would silently recompute while reporting a cache hit.
	null := `{"key":"` + e.Key + `","unit":"exp/running","table":null}`
	if err := os.WriteFile(path, []byte(null), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Get(e.Key); err == nil {
		t.Fatal("null-table cache entry read back without error")
	}
}

// TestRunCachedBitIdenticalAndFaster is the harness's core acceptance
// check in miniature: a warm re-run must be all cache hits, byte-identical
// to the fresh run, and at least 10× faster.
func TestRunCachedBitIdenticalAndFaster(t *testing.T) {
	c := tinyCampaign(t)
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var fresh bytes.Buffer
	repFresh, err := Run(c, Options{Cache: cache, Stream: &fresh})
	if err != nil {
		t.Fatal(err)
	}
	if repFresh.Hits != 0 || repFresh.Misses != len(c.Units) {
		t.Fatalf("fresh run: %d hits, %d misses", repFresh.Hits, repFresh.Misses)
	}
	var warm bytes.Buffer
	repWarm, err := Run(c, Options{Cache: cache, Stream: &warm})
	if err != nil {
		t.Fatal(err)
	}
	if repWarm.Hits != len(c.Units) || repWarm.Misses != 0 {
		t.Fatalf("warm run: %d hits, %d misses", repWarm.Hits, repWarm.Misses)
	}
	if !bytes.Equal(fresh.Bytes(), warm.Bytes()) {
		t.Fatal("cached re-run is not byte-identical to the fresh run")
	}
	if repWarm.Elapsed*10 > repFresh.Elapsed {
		t.Errorf("cached run not ≥10× faster: fresh %v, cached %v", repFresh.Elapsed, repWarm.Elapsed)
	}
	// Verify mode recomputes hits and must agree.
	if _, err := Run(c, Options{Cache: cache, Verify: true}); err != nil {
		t.Fatalf("verify over valid cache: %v", err)
	}
}

// TestResumeSkipsFinishedUnits simulates an interrupted campaign: half the
// units are already cached (a prior shard run), and the follow-up full run
// must recompute exactly the other half.
func TestResumeSkipsFinishedUnits(t *testing.T) {
	c := tinyCampaign(t)
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep0, err := Run(c, Options{Cache: cache, Shard: 0, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(map[string]bool)
	for _, s := range rep0.Statuses {
		done[s.Unit] = true
	}
	rep, err := Run(c, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hits != len(rep0.Statuses) || rep.Misses != len(c.Units)-len(rep0.Statuses) {
		t.Fatalf("resume: %d hits %d misses, want %d hits %d misses",
			rep.Hits, rep.Misses, len(rep0.Statuses), len(c.Units)-len(rep0.Statuses))
	}
	for _, s := range rep.Statuses {
		if s.Cached != done[s.Unit] {
			t.Errorf("unit %s: cached=%v, want %v", s.Unit, s.Cached, done[s.Unit])
		}
	}
}

// TestVerifyCatchesTamperedCache pins the bit-identical guarantee from the
// other side: corrupt a cached number and Verify must refuse it.
func TestVerifyCatchesTamperedCache(t *testing.T) {
	units := Experiments("running")
	c, err := finalize("tamper", tinyConfig(), units)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(c, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	key := rep.Statuses[0].Key
	entry, hit, err := cache.Get(key)
	if err != nil || !hit {
		t.Fatalf("cached entry missing: %v", err)
	}
	entry.Table.Rows[0][0] = "drifted"
	if err := cache.Put(entry); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(c, Options{Cache: cache, Verify: true}); err == nil {
		t.Fatal("Verify accepted a tampered cache entry")
	}
	// Without Verify the tampered entry is served as-is (that is the
	// documented trade: Verify is the audit mode).
	if _, err := Run(c, Options{Cache: cache}); err != nil {
		t.Fatalf("non-verify run: %v", err)
	}
}

func TestStreamFlushesInCampaignOrder(t *testing.T) {
	c := tinyCampaign(t)
	var serial bytes.Buffer
	repSerial, err := Run(c, Options{Workers: 1, Stream: &serial})
	if err != nil {
		t.Fatal(err)
	}
	var parallel bytes.Buffer
	if _, err := Run(c, Options{Workers: 4, Stream: &parallel}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatal("streamed JSONL differs between 1 and 4 workers")
	}
	// The stream is the canonical WriteJSONL encoding of the results.
	var whole bytes.Buffer
	if err := WriteJSONL(&whole, repSerial.Results); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), whole.Bytes()) {
		t.Fatal("streamed JSONL differs from WriteJSONL of the report")
	}
	// And it round-trips.
	back, err := ReadJSONL(bytes.NewReader(serial.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(repSerial.Results) {
		t.Fatalf("round trip lost results: %d vs %d", len(back), len(repSerial.Results))
	}
	for i := range back {
		if back[i].Unit != repSerial.Results[i].Unit {
			t.Fatalf("round trip reordered results at %d", i)
		}
	}
}

func TestRunRejectsBadShardSpec(t *testing.T) {
	c := tinyCampaign(t)
	if _, err := Run(c, Options{Shard: 2, Shards: 2}); err == nil {
		t.Fatal("shard 2/2 accepted")
	}
	if _, err := Run(c, Options{Shard: -1, Shards: 2}); err == nil {
		t.Fatal("shard -1/2 accepted")
	}
	if _, err := Run(c, Options{Shard: 3, Shards: 1}); err == nil {
		t.Fatal("shard 3/1 accepted")
	}
	if _, err := Run(c, Options{Shard: 1}); err == nil {
		t.Fatal("shard 1/0 accepted")
	}
}

func TestDiff(t *testing.T) {
	tab := func(cells ...string) *exp.Table {
		return &exp.Table{Title: "t", Columns: []string{"a", "b"}, Rows: [][]string{cells}}
	}
	a := []Result{{Unit: "u1", Table: tab("1.00", "x")}, {Unit: "u2", Table: tab("2.00", "y")}}

	if d := Diff(a, a, 0); len(d) != 0 {
		t.Fatalf("self-diff drifts: %v", d)
	}
	b := []Result{{Unit: "u1", Table: tab("1.01", "x")}, {Unit: "u2", Table: tab("2.00", "y")}}
	if d := Diff(a, b, 0); len(d) != 1 || d[0].Unit != "u1" || !strings.Contains(d[0].Field, "row 0 col 0") {
		t.Fatalf("exact diff = %v", d)
	}
	if d := Diff(a, b, 0.05); len(d) != 0 {
		t.Fatalf("tolerant diff = %v", d)
	}
	// Non-numeric cells never pass on tolerance.
	bStr := []Result{{Unit: "u1", Table: tab("1.00", "z")}, {Unit: "u2", Table: tab("2.00", "y")}}
	if d := Diff(a, bStr, 100); len(d) != 1 {
		t.Fatalf("string drift under tolerance = %v", d)
	}
	// Missing and extra units.
	if d := Diff(a, a[:1], 0); len(d) != 1 || d[0].Field != "missing" {
		t.Fatalf("missing-unit diff = %v", d)
	}
	if d := Diff(a[:1], a, 0); len(d) != 1 || d[0].Field != "extra" {
		t.Fatalf("extra-unit diff = %v", d)
	}
	// Shape changes.
	ragged := []Result{{Unit: "u1", Table: &exp.Table{Title: "t", Columns: []string{"a", "b"}, Rows: [][]string{{"1.00"}}}}, a[1]}
	if d := Diff(a, ragged, 0); len(d) != 1 || !strings.Contains(d[0].Field, "row 0") {
		t.Fatalf("ragged diff = %v", d)
	}
}

func TestGoldenReadWrite(t *testing.T) {
	dir := t.TempDir()
	res := []Result{
		{Unit: "corpus/NSF/gravity", Table: &exp.Table{Title: "n", Columns: []string{"c"}, Rows: [][]string{{"1"}}}},
		{Unit: "exp/running", Table: &exp.Table{Title: "r", Columns: []string{"c"}, Rows: [][]string{{"2"}}}},
	}
	if err := WriteGolden(dir, res); err != nil {
		t.Fatal(err)
	}
	names, _ := os.ReadDir(dir)
	if len(names) != 2 {
		t.Fatalf("golden dir has %d files", len(names))
	}
	for _, f := range names {
		if strings.Contains(f.Name(), "/") {
			t.Fatalf("unsafe golden file name %q", f.Name())
		}
		var r Result
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("golden file %s not valid JSON: %v", f.Name(), err)
		}
	}
	back, err := ReadGolden(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(res, back, 0); len(d) != 0 {
		t.Fatalf("golden round trip drifted: %v", d)
	}
	// Rewriting with fewer units removes stale files.
	if err := WriteGolden(dir, res[:1]); err != nil {
		t.Fatal(err)
	}
	back, err = ReadGolden(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Unit != res[0].Unit {
		t.Fatalf("stale golden files not removed: %v", back)
	}
}

func TestMergeRejectsDuplicates(t *testing.T) {
	r := Result{Unit: "u", Table: &exp.Table{}}
	if _, err := MergeResults([]Result{r}, []Result{r}); err == nil {
		t.Fatal("duplicate unit merged silently")
	}
}

// TestReadJSONLRejectsDuplicates: two shard files concatenated instead of
// merged, with a stale and a fresh copy of one unit. Read leniently, Diff
// would see only the fresh copy and report no drift against it.
func TestReadJSONLRejectsDuplicates(t *testing.T) {
	tab := func(cell string) *exp.Table {
		return &exp.Table{Title: "t", Columns: []string{"a"}, Rows: [][]string{{cell}}}
	}
	var stream bytes.Buffer
	if err := WriteJSONL(&stream, []Result{
		{Unit: "u1", Table: tab("1.00")}, // stale
		{Unit: "u2", Table: tab("2.00")},
		{Unit: "u1", Table: tab("1.50")}, // fresh
	}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadJSONL(&stream)
	if err == nil || !strings.Contains(err.Error(), `line 3: unit "u1" already on line 1`) {
		t.Fatalf("ReadJSONL of a repeated unit: err = %v", err)
	}
}

func TestFingerprintStable(t *testing.T) {
	a, b := Fingerprint(), Fingerprint()
	if a == "" || a != b {
		t.Fatalf("Fingerprint unstable: %q vs %q", a, b)
	}
}

// TestElapsedRecorded keeps the bookkeeping honest enough for the
// resume-time table: statuses carry wall time and cache entries carry
// their compute cost.
func TestElapsedRecorded(t *testing.T) {
	units := Experiments("running")
	c, err := finalize("t", tinyConfig(), units)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(c, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Statuses[0].Elapsed <= 0 {
		t.Error("fresh unit has no elapsed time")
	}
	if rep.Elapsed <= 0 || rep.Elapsed < rep.Statuses[0].Elapsed {
		t.Errorf("report elapsed %v inconsistent with unit elapsed %v", rep.Elapsed, rep.Statuses[0].Elapsed)
	}
	entry, hit, err := cache.Get(rep.Statuses[0].Key)
	if err != nil || !hit {
		t.Fatal("entry missing after run")
	}
	if entry.CreatedUnix == 0 {
		t.Error("cache entry has no creation time")
	}
	_ = time.Unix(entry.CreatedUnix, 0)
}
