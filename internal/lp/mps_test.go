package lp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mpsFeatureModel exercises every construct the writer can emit: both
// senses, an objective offset (returned next to the model), free/fixed/
// boxed/MI variables, equality, ranged, one-sided, and free rows, negative
// bounds, and duplicate terms.
func mpsFeatureModel() (*Model, float64) {
	m := NewModel(Maximize)
	a := m.AddVar(0, Inf, 3)        // default bounds
	b := m.AddVar(-2.5, 7, -1.25)   // boxed, negative lower
	c := m.AddVar(4, 4, 2)          // fixed
	d := m.AddVar(-Inf, Inf, 0.125) // free
	e := m.AddVar(-Inf, 3, 1)       // MI + UP
	f := m.AddVar(1.5, Inf, -2)     // LO only
	m.AddLE([]Term{{a, 1}, {b, 2}, {c, -1}}, 10)
	m.AddGE([]Term{{b, 1}, {d, 0.5}}, -4)
	m.AddEQ([]Term{{a, 1}, {e, -1}, {f, 2}}, 3)
	m.AddRow([]Term{{a, 0.25}, {d, 1}, {e, 1}}, -2, 6) // ranged
	m.AddRow([]Term{{b, 1}, {f, 1}}, -Inf, Inf)        // free row
	m.AddLE([]Term{{a, 1}, {a, 1}, {c, 0.5}}, 20)      // duplicate terms
	return m, -7.5
}

// TestMPSRoundTrip pins the Write→Read→Write byte-stability contract and
// that the re-read model solves to the same optimum as the original.
func TestMPSRoundTrip(t *testing.T) {
	m, off := mpsFeatureModel()
	var b1 bytes.Buffer
	if err := WriteMPS(&b1, m, off); err != nil {
		t.Fatal(err)
	}
	m2, off2, err := ReadMPS(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatalf("read back: %v\n%s", err, b1.String())
	}
	if off2 != off {
		t.Fatalf("objective offset %g read back as %g", off, off2)
	}
	var b2 bytes.Buffer
	if err := WriteMPS(&b2, m2, off2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("round trip not byte-stable:\n--- first ---\n%s--- second ---\n%s", b1.String(), b2.String())
	}
	s1, err := m.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Status != s2.Status {
		t.Fatalf("status drift through MPS: %v vs %v", s1.Status, s2.Status)
	}
	if s1.Status == Optimal {
		if math.Abs(s1.Objective-s2.Objective) > 1e-9*(1+math.Abs(s1.Objective)) {
			t.Fatalf("objective drift through MPS: %.15g vs %.15g", s1.Objective, s2.Objective)
		}
	}
}

// TestMPSReadErrors feeds structurally broken files and requires a clean
// error (never a panic, never silent acceptance).
func TestMPSReadErrors(t *testing.T) {
	cases := map[string]string{
		"unknown-section": "NAME X\nGARBAGE\n",
		"bad-row-type":    "ROWS\n Q  R0\n",
		"dup-row":         "ROWS\n N  COST\n L  R0\n L  R0\n",
		"ragged-columns":  "ROWS\n N  COST\n L  R0\nCOLUMNS\n    X  R0\n",
		"unknown-row":     "ROWS\n N  COST\nCOLUMNS\n    X  NOPE  1\n",
		"bad-number":      "ROWS\n N  COST\n L  R0\nCOLUMNS\n    X  R0  abc\n",
		"ranges-on-obj":   "ROWS\n N  COST\n L  R0\nCOLUMNS\n    X  R0  1\nRANGES\n    RNG  COST  1\n",
		"bound-no-col":    "ROWS\n N  COST\nBOUNDS\n    UP  BND  X  1\n",
		"bound-no-value":  "ROWS\n N  COST\n L  R0\nCOLUMNS\n    X  R0  1\nBOUNDS\n    UP  BND  X\n",
		"int-marker":      "ROWS\n N  COST\n L  R0\nCOLUMNS\n    M1  'MARKER'  'INTORG'\n",
		"int-bound":       "ROWS\n N  COST\n L  R0\nCOLUMNS\n    X  R0  1\nBOUNDS\n    BV  BND  X\n",
		"no-rows":         "NAME X\nENDATA\n",
		"data-no-section": "    X  R0  1\n",
	}
	for name, src := range cases {
		if _, _, err := ReadMPS(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted malformed input", name)
		}
	}
}

// TestMPSRejectsNonFinite: NaN and infinite values are refused in every
// numeric section, with the line they sit on, where a finite value parses.
func TestMPSRejectsNonFinite(t *testing.T) {
	const head = "ROWS\n N  COST\n L  R0\nCOLUMNS\n    X  COST  1\n"
	sections := []struct {
		name, src string
		line      int
	}{
		{"COLUMNS", head + "    X  R0  %s\n", 6},
		{"RHS", head + "    X  R0  1\nRHS\n    RHS  R0  %s\n", 8},
		{"RANGES", head + "    X  R0  1\nRANGES\n    RNG  R0  %s\n", 8},
		{"BOUNDS", head + "    X  R0  1\nBOUNDS\n    UP  BND  X  %s\n", 8},
	}
	for _, sec := range sections {
		if _, _, err := ReadMPS(strings.NewReader(fmt.Sprintf(sec.src, "2"))); err != nil {
			t.Fatalf("%s: finite value refused: %v", sec.name, err)
		}
		for _, v := range []string{"NaN", "Inf", "+Inf", "-Inf"} {
			_, _, err := ReadMPS(strings.NewReader(fmt.Sprintf(sec.src, v)))
			want := fmt.Sprintf("mps line %d:", sec.line)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %s: err %v, want one naming %q", sec.name, v, err, want)
			}
		}
	}
}

// TestMPSCorpus solves every checked-in stress instance to its known
// optimum on the sparse engine and the dense oracle, certifies the sparse
// optimum with Check, and repeats the sparse solve after a Write→Read round
// trip of each instance.
func TestMPSCorpus(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "mps")
	raw, err := os.ReadFile(filepath.Join(dir, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]float64
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) < 5 {
		t.Fatalf("stress corpus has only %d instances", len(golden))
	}
	for name, want := range golden {
		t.Run(name, func(t *testing.T) {
			f, err := os.Open(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			m, off, err := ReadMPS(f)
			if err != nil {
				t.Fatal(err)
			}
			tol := 1e-6 * (1 + math.Abs(want))
			check := func(label string, obj float64, status Status) {
				t.Helper()
				if status != Optimal {
					t.Fatalf("%s: status %v", label, status)
				}
				obj += off
				if math.Abs(obj-want) > tol {
					t.Fatalf("%s: objective %.12g, want %.12g", label, obj, want)
				}
			}
			sol, err := m.Solve(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			check("sparse", sol.Objective, sol.Status)
			if err := m.Check(sol.X, m.RowDuals()); err != nil {
				t.Fatal(err)
			}
			osol, err := m.SolveDense()
			if err != nil {
				t.Fatal(err)
			}
			check("dense", osol.Objective, osol.Status)

			// Round trip through the canonical writer.
			var buf bytes.Buffer
			if err := WriteMPS(&buf, m, off); err != nil {
				t.Fatal(err)
			}
			m2, _, err := ReadMPS(&buf)
			if err != nil {
				t.Fatalf("re-read canonical form: %v", err)
			}
			rsol, err := m2.Solve(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			check("roundtrip", rsol.Objective, rsol.Status)
		})
	}
}

// TestMPSCorpusExternal cross-validates the corpus against glpsol when it
// is installed; skipped otherwise. Each corpus file is handed to glpsol as
// free MPS.
func TestMPSCorpusExternal(t *testing.T) {
	glpsol, err := exec.LookPath("glpsol")
	if err != nil {
		t.Skip("glpsol not installed; skipping external cross-validation")
	}
	dir := filepath.Join("..", "..", "testdata", "mps")
	raw, err := os.ReadFile(filepath.Join(dir, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]float64
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	objRe := regexp.MustCompile(`Objective:\s+\S+\s+=\s+(\S+)`)
	for name, want := range golden {
		out, err := exec.Command(glpsol, "--freemps", filepath.Join(dir, name), "-o", "/dev/stdout").Output()
		if err != nil {
			t.Fatalf("%s: glpsol: %v", name, err)
		}
		mobj := objRe.FindSubmatch(out)
		if mobj == nil {
			t.Fatalf("%s: no objective in glpsol output", name)
		}
		got, err := strconv.ParseFloat(string(mobj[1]), 64)
		if err != nil {
			t.Fatalf("%s: parse %q: %v", name, mobj[1], err)
		}
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("%s: glpsol objective %.12g, golden %.12g", name, got, want)
		}
	}
}

// FuzzReadMPS hardens the parser: arbitrary input must never panic, and any
// input that parses must satisfy the canonical-writer fixpoint —
// Write(Read(input)) parses again and re-writes byte-identically.
func FuzzReadMPS(f *testing.F) {
	seeds := []string{
		"ROWS\n N  COST\n L  R0\nCOLUMNS\n    X0  COST  1\n    X0  R0  1\nRHS\n    RHS  R0  4\nENDATA\n",
		"NAME T\nOBJSENSE\n    MAX\nROWS\n N  COST\n G  R0\n E  R1\nCOLUMNS\n    X  COST  -2\n    X  R0  1\n    X  R1  3\nRHS\n    RHS  R1  1.5\nRANGES\n    RNG  R0  2\nBOUNDS\n    MI  BND  X\n    UP  BND  X  9\nENDATA\n",
		"ROWS\n N  COST\nCOLUMNS\n    X  COST  1\nBOUNDS\n    FR  BND  X\n",
		"* comment\n\nROWS\n N  COST\n N  FREE\n L  R0\nCOLUMNS\n    X  FREE  1\n    X  R0  2\nRHS\n    RHS  COST  -3\n",
		"ROWS\n L  R0\n", // no objective N row
		"ROWS\n N  COST\n L  R0\nCOLUMNS\n    X  R0  1  R0  2\n", // dup entry accumulates
		"ROWS\n N  COST\n L  R0\nCOLUMNS\n    X  R0  1e309\n",    // overflow float
		"BOUNDS\n    UP  BND  X  1\n",
		"ENDATA\n",
	}
	// Every corpus instance seeds the fuzzer too.
	if files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "mps", "*.mps")); err == nil {
		for _, fn := range files {
			if b, err := os.ReadFile(fn); err == nil {
				seeds = append(seeds, string(b))
			}
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, off, err := ReadMPS(strings.NewReader(src))
		if err != nil {
			return
		}
		var b1 bytes.Buffer
		if err := WriteMPS(&b1, m, off); err != nil {
			t.Fatalf("write of parsed model failed: %v", err)
		}
		m2, off2, err := ReadMPS(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, b1.String())
		}
		var b2 bytes.Buffer
		if err := WriteMPS(&b2, m2, off2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("canonical form not a fixpoint:\n--- first ---\n%s--- second ---\n%s", b1.String(), b2.String())
		}
	})
}
