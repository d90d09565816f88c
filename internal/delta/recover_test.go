package delta

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/graph"
	"github.com/coyote-te/coyote/internal/topo"
)

// recoverSession is the NSF session the recover-path pins run on: library
// default effort, one worker, seed 1.
func recoverSession(t *testing.T) (*Session, graph.EdgeID) {
	t.Helper()
	s, _ := newNSFSession(t, Config{Seed: 1, Workers: 1})
	return s, s.Base().Links()[3]
}

// TestRecoverAllocs caps the bytes one Recover to the intact topology
// allocates. Recovery resumes the intact configuration's own optimizer, so it
// allocates no optimizer arenas: about 1.4 MB, where building a second
// optimizer costs about 0.9 MB more.
func TestRecoverAllocs(t *testing.T) {
	s, link := recoverSession(t)
	if _, err := s.Fail(link); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.Recover(link); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const ceiling = 1.8 * (1 << 20)
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > ceiling {
		t.Fatalf("Recover allocated %.2f MB, ceiling %.2f MB", float64(got)/(1<<20), ceiling/(1<<20))
	}
}

// TestRecoverBitPins pins the PERF of three fail/recover cycles of one link
// bit for bit: each recovery resumes the intact topology's optimizer exactly
// where the last intact commit left it.
func TestRecoverBitPins(t *testing.T) {
	s, link := recoverSession(t)
	want := []float64{0x1.a589e143344f2p+00, 0x1.a0d37af9fd4f8p+00, 0x1.a10b4710efa13p+00}
	for i, w := range want {
		if _, err := s.Fail(link); err != nil {
			t.Fatal(err)
		}
		ev, err := s.Recover(link)
		if err != nil {
			t.Fatal(err)
		}
		if !ev.Warm || math.Float64bits(ev.Perf) != math.Float64bits(w) {
			t.Errorf("cycle %d: recovered PERF %x (warm %v), want %x (warm)", i+1, ev.Perf, ev.Warm, w)
		}
	}
}

// phiBits is the bit image of an optimizer's materialized ratios.
func phiBits(s *Session) []uint64 {
	var out []uint64
	for _, row := range s.normal.Warm.Routing().Phi {
		for _, p := range row {
			out = append(out, math.Float64bits(p))
		}
	}
	return out
}

// TestFailureLeavesIntactOptimizerAlone is the invariant recovery rests on:
// between the last intact commit and the recovery, no event hands the intact
// configuration's optimizer to a solve — a planned swap seeds a fresh one
// from the precomputed routing, an unplanned failure solves cold, and an
// update or lie synthesis under failure works on the survivor's — so
// recovery resumes it exactly as that commit left it.
func TestFailureLeavesIntactOptimizerAlone(t *testing.T) {
	for _, planned := range []bool{true, false} {
		t.Run(fmt.Sprintf("planned=%v", planned), func(t *testing.T) {
			cfg := testCfg()
			cfg.PrecomputeFailover = planned
			s, base := newNSFSession(t, cfg)
			held := s.normal.Warm
			want := phiBits(s)
			check := func(when string) {
				t.Helper()
				if s.normal.Warm != held {
					t.Fatalf("%s: the intact configuration's optimizer was replaced", when)
				}
				for i, b := range phiBits(s) {
					if b != want[i] {
						t.Fatalf("%s: intact optimizer moved (φ bit image differs at %d)", when, i)
					}
				}
			}
			link := s.Base().Links()[0]
			ev, err := s.Fail(link)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Warm != planned {
				t.Fatalf("fail event warm = %v, want %v", ev.Warm, planned)
			}
			check("fail")
			if _, err := s.UpdateBounds(demand.MarginBox(base.Clone().Scale(1.3), 2.5)); err != nil {
				t.Fatal(err)
			}
			check("update under failure")
			if _, err := s.Lies(2); err != nil {
				t.Fatal(err)
			}
			check("lies under failure")
			if _, err := s.Recover(link); err != nil {
				t.Fatal(err)
			}
			if s.cur.Warm != held {
				t.Fatal("recovery did not resume the intact configuration's optimizer")
			}
		})
	}
}

// FuzzSessionOps drives a short Abilene session through up to six decoded
// operations — UpdateBounds with a margin in [1.2, 3], Fail or Recover of
// one link, Lies(2) — and checks, after every operation:
//   - a rejected operation leaves the event log and the failed set alone;
//   - every committed recompute has a finite PERF in [1, ECMPPerf];
//   - the live DAGs equal the cold construction over the live topology,
//     whether built, swapped in from the plan or resumed;
//   - a first failure is warm exactly when the session has a precomputed
//     failover plan (the planned swap), which the top bit of the first
//     byte chooses;
//
// and at the end that replaying the operations on a fresh session returns
// the same errors and bit-identical events.
func FuzzSessionOps(f *testing.F) {
	g, err := topo.Load("Abilene")
	if err != nil {
		f.Fatal(err)
	}
	gravity := demand.Gravity(g, 1)
	links := g.Links()
	cfg := Config{OptIters: 20, AdvIters: 1, Samples: 2, Seed: 1, Workers: 1}
	newSession := func(t *testing.T, planned bool) *Session {
		c := cfg
		c.PrecomputeFailover = planned
		s, err := NewSession(g, demand.MarginBox(gravity, 2), c)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Each operation is two bytes: the kind, then its argument.
	type op struct{ kind, arg byte }
	decode := func(data []byte) []op {
		var ops []op
		for i := 0; i+1 < len(data) && len(ops) < 6; i += 2 {
			ops = append(ops, op{data[i] % 4, data[i+1]})
		}
		return ops
	}
	apply := func(s *Session, o op) error {
		link := links[int(o.arg)%len(links)]
		var err error
		switch o.kind {
		case 0:
			_, err = s.UpdateBounds(demand.MarginBox(gravity, 1.2+1.8*float64(o.arg)/255))
		case 1:
			_, err = s.Fail(link)
		case 2:
			_, err = s.Recover(link)
		default:
			_, err = s.Lies(2)
		}
		return err
	}
	f.Add([]byte{1, 0, 3, 0, 2, 0, 3, 0})
	f.Add([]byte{0, 40, 1, 3, 1, 3, 1, 5, 2, 3, 0, 255})
	f.Add([]byte{1, 2, 1, 7, 3, 0, 2, 2, 0, 128, 2, 7})
	f.Add([]byte{1, 1, 1, 2, 2, 1, 1, 1})           // the second failure isolates Abilene-02
	f.Add([]byte{0x81, 3, 3, 0, 0, 90, 1, 5, 2, 3}) // planned swap, lies, update under failure
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decode(data)
		planned := len(data) > 0 && data[0]&0x80 != 0
		s := newSession(t, planned)
		errs := make([]string, len(ops))
		for i, o := range ops {
			events, failed := s.Events(), s.FailedLinks()
			if err := apply(s, o); err != nil {
				errs[i] = err.Error()
				if len(s.Events()) != len(events) || fmt.Sprint(s.FailedLinks()) != fmt.Sprint(failed) {
					t.Fatalf("op %d (%v) was rejected (%v) but changed the session", i, o, err)
				}
				continue
			}
			e := s.Events()[len(events)]
			if e.Kind == EventFail && len(s.FailedLinks()) == 1 && e.Warm != planned {
				t.Fatalf("op %d (%v): a first failure is warm %v, want %v (the planned swap)", i, o, e.Warm, planned)
			}
			if e.Kind != EventLies {
				if math.IsNaN(e.Perf) || math.IsInf(e.Perf, 0) || e.Perf < 1-1e-9 || e.Perf > e.ECMPPerf {
					t.Fatalf("op %d (%v): PERF %v outside [1, ECMPPerf %v]", i, o, e.Perf, e.ECMPPerf)
				}
				assertColdDAGs(t, s, fmt.Sprintf("op %d (%v)", i, o))
			}
		}

		replay := newSession(t, planned)
		for i, o := range ops {
			got := ""
			if err := apply(replay, o); err != nil {
				got = err.Error()
			}
			if got != errs[i] {
				t.Fatalf("op %d (%v): replay error %q, first run %q", i, o, got, errs[i])
			}
		}
		a, b := s.Events(), replay.Events()
		if len(a) != len(b) {
			t.Fatalf("replay recorded %d events, first run %d", len(b), len(a))
		}
		for i := range a {
			a[i].Elapsed, b[i].Elapsed = 0, 0
			if a[i] != b[i] || math.Float64bits(a[i].Perf) != math.Float64bits(b[i].Perf) ||
				math.Float64bits(a[i].ECMPPerf) != math.Float64bits(b[i].ECMPPerf) {
				t.Fatalf("event %d: replay %+v, first run %+v", i, b[i], a[i])
			}
		}
	})
}
