// MPS reading and writing for Model.
//
// The dialect is free-format MPS: section headers start in column one, data
// lines are whitespace-separated fields, '*' begins a comment. Supported
// sections are NAME, OBJSENSE (MAX/MAXIMIZE or MIN/MINIMIZE), ROWS
// (N/L/G/E; the first N row is the objective, later N rows are kept as free
// rows), COLUMNS, RHS (an entry on the objective row becomes the negated
// objective offset, the usual convention), RANGES, BOUNDS
// (UP/LO/FX/FR/MI/PL — a negative UP value does not implicitly drop the
// lower bound; integer types are rejected), and ENDATA. Integer marker
// lines are rejected: the solver is a pure LP engine. Every numeric field
// must be finite; infinite bounds are written as MI, PL or FR.
//
// WriteMPS emits a canonical form — variables named X<i>, constraint rows
// R<i>, objective COST, shortest round-trip float formatting, column-major
// COLUMNS in index order — so Write→Read→Write is byte-stable, which is
// what the fuzz corpus and the round-trip tests pin down.
package lp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadMPS parses an MPS file into a Model. Names are resolved to dense
// indices (variables in first-appearance order in COLUMNS, rows in ROWS
// declaration order, objective excluded) and then discarded.
func ReadMPS(r io.Reader) (*Model, error) {
	p := &mpsParser{
		rowIdx: map[string]int{},
		colIdx: map[string]int{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || line[0] == '*' {
			continue
		}
		if trimmed := strings.TrimSpace(line); trimmed == "" {
			continue
		}
		isHeader := line[0] != ' ' && line[0] != '\t'
		fields := strings.Fields(line)
		if isHeader {
			if err := p.header(fields); err != nil {
				return nil, fmt.Errorf("mps line %d: %w", lineNo, err)
			}
			if p.done {
				break
			}
			continue
		}
		if err := p.data(fields); err != nil {
			return nil, fmt.Errorf("mps line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !p.sawRows {
		return nil, fmt.Errorf("mps: no ROWS section")
	}
	return p.build()
}

type mpsRow struct {
	name string
	typ  byte // 'N', 'L', 'G', 'E'
	rhs  float64
	rng  float64
	hasR bool // a RANGES entry was seen
	free bool // non-objective N row
}

type mpsCol struct {
	name   string
	obj    float64
	lo, up float64
	terms  []Term // (rowIndex, coeff) — Term.Var reused as index into p.rows
}

type mpsParser struct {
	section string
	sense   Sense
	objName string
	objSeen bool
	sawRows bool
	done    bool
	objOff  float64
	rows    []mpsRow
	cols    []mpsCol
	rowIdx  map[string]int // name → index into rows; objective → −1
	colIdx  map[string]int
}

func (p *mpsParser) header(fields []string) error {
	switch strings.ToUpper(fields[0]) {
	case "NAME":
		p.section = "NAME"
	case "OBJSENSE":
		p.section = "OBJSENSE"
		if len(fields) > 1 {
			return p.setSense(fields[1])
		}
	case "ROWS":
		p.section = "ROWS"
		p.sawRows = true
	case "COLUMNS":
		p.section = "COLUMNS"
	case "RHS":
		p.section = "RHS"
	case "RANGES":
		p.section = "RANGES"
	case "BOUNDS":
		p.section = "BOUNDS"
	case "ENDATA":
		p.done = true
	default:
		return fmt.Errorf("unknown section %q", fields[0])
	}
	return nil
}

func (p *mpsParser) setSense(s string) error {
	switch strings.ToUpper(s) {
	case "MAX", "MAXIMIZE":
		p.sense = Maximize
	case "MIN", "MINIMIZE":
		p.sense = Minimize
	default:
		return fmt.Errorf("bad OBJSENSE %q", s)
	}
	return nil
}

func (p *mpsParser) data(fields []string) error {
	switch p.section {
	case "NAME":
		return fmt.Errorf("data line outside any section")
	case "OBJSENSE":
		return p.setSense(fields[0])
	case "ROWS":
		return p.rowLine(fields)
	case "COLUMNS":
		return p.columnLine(fields)
	case "RHS":
		return p.rhsLine(fields)
	case "RANGES":
		return p.rangesLine(fields)
	case "BOUNDS":
		return p.boundLine(fields)
	}
	return fmt.Errorf("data line outside any section")
}

func (p *mpsParser) rowLine(fields []string) error {
	if len(fields) != 2 {
		return fmt.Errorf("ROWS line needs type and name, got %d fields", len(fields))
	}
	typ := strings.ToUpper(fields[0])
	name := fields[1]
	if _, dup := p.rowIdx[name]; dup {
		return fmt.Errorf("duplicate row %q", name)
	}
	switch typ {
	case "N":
		if !p.objSeen {
			p.objSeen = true
			p.objName = name
			p.rowIdx[name] = -1
			return nil
		}
		p.rowIdx[name] = len(p.rows)
		p.rows = append(p.rows, mpsRow{name: name, typ: 'N', free: true})
	case "L", "G", "E":
		p.rowIdx[name] = len(p.rows)
		p.rows = append(p.rows, mpsRow{name: name, typ: typ[0]})
	default:
		return fmt.Errorf("bad row type %q", fields[0])
	}
	return nil
}

func (p *mpsParser) columnLine(fields []string) error {
	for _, f := range fields {
		if strings.EqualFold(strings.Trim(f, "'\""), "MARKER") {
			return fmt.Errorf("integer markers are not supported")
		}
	}
	if len(fields) < 3 || len(fields)%2 == 0 {
		return fmt.Errorf("COLUMNS line needs col + (row, value) pairs, got %d fields", len(fields))
	}
	name := fields[0]
	ci, ok := p.colIdx[name]
	if !ok {
		ci = len(p.cols)
		p.colIdx[name] = ci
		p.cols = append(p.cols, mpsCol{name: name, lo: 0, up: Inf})
	}
	col := &p.cols[ci]
	for k := 1; k+1 < len(fields); k += 2 {
		v, err := parseValue(fields[k+1])
		if err != nil {
			return err
		}
		ri, ok := p.rowIdx[fields[k]]
		if !ok {
			return fmt.Errorf("unknown row %q", fields[k])
		}
		if ri < 0 {
			col.obj += v
			continue
		}
		col.terms = append(col.terms, Term{Var: ri, Coeff: v}) // Var reused as row index
	}
	return nil
}

func (p *mpsParser) rhsLine(fields []string) error {
	// First field is the RHS vector name; entries follow as (row, value).
	if len(fields) < 3 || len(fields)%2 == 0 {
		return fmt.Errorf("RHS line needs name + (row, value) pairs, got %d fields", len(fields))
	}
	for k := 1; k+1 < len(fields); k += 2 {
		v, err := parseValue(fields[k+1])
		if err != nil {
			return err
		}
		ri, ok := p.rowIdx[fields[k]]
		if !ok {
			return fmt.Errorf("unknown row %q", fields[k])
		}
		if ri < 0 {
			p.objOff = -v // objective-row RHS is the negated constant term
			continue
		}
		p.rows[ri].rhs = v
	}
	return nil
}

func (p *mpsParser) rangesLine(fields []string) error {
	if len(fields) < 3 || len(fields)%2 == 0 {
		return fmt.Errorf("RANGES line needs name + (row, value) pairs, got %d fields", len(fields))
	}
	for k := 1; k+1 < len(fields); k += 2 {
		v, err := parseValue(fields[k+1])
		if err != nil {
			return err
		}
		ri, ok := p.rowIdx[fields[k]]
		if !ok || ri < 0 {
			return fmt.Errorf("RANGES references row %q", fields[k])
		}
		p.rows[ri].rng = v
		p.rows[ri].hasR = true
	}
	return nil
}

func (p *mpsParser) boundLine(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("BOUNDS line needs type, set name, column")
	}
	typ := strings.ToUpper(fields[0])
	ci, ok := p.colIdx[fields[2]]
	if !ok {
		return fmt.Errorf("unknown column %q", fields[2])
	}
	col := &p.cols[ci]
	needVal := typ == "UP" || typ == "LO" || typ == "FX"
	var v float64
	if needVal {
		if len(fields) < 4 {
			return fmt.Errorf("bound %s needs a value", typ)
		}
		var err error
		if v, err = parseValue(fields[3]); err != nil {
			return err
		}
	}
	switch typ {
	case "UP":
		col.up = v
	case "LO":
		col.lo = v
	case "FX":
		col.lo, col.up = v, v
	case "FR":
		col.lo, col.up = -Inf, Inf
	case "MI":
		col.lo = -Inf
	case "PL":
		col.up = Inf
	case "BV", "UI", "LI":
		return fmt.Errorf("integer bound type %s is not supported", typ)
	default:
		return fmt.Errorf("bad bound type %q", fields[0])
	}
	return nil
}

// parseValue reads one numeric field. Non-finite values (NaN, Inf and
// overflows like 1e309) are rejected: infinite bounds are written as MI, PL
// or FR.
func parseValue(f string) (float64, error) {
	v, err := strconv.ParseFloat(f, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("not a finite number")
	}
	if err != nil {
		return 0, fmt.Errorf("bad value %q: %v", f, err)
	}
	return v, nil
}

// build assembles the Model: columns in first-appearance order, rows in
// declaration order, RANGES resolved against the row types.
func (p *mpsParser) build() (*Model, error) {
	m := NewModel(p.sense)
	for _, c := range p.cols {
		// Crossed bounds are kept as-is: the solver reports Infeasible,
		// which is the correct reading of such a file.
		m.AddVar(c.lo, c.up, c.obj)
	}
	m.SetObjectiveOffset(p.objOff)
	// Row terms, gathered column-major then grouped per row.
	terms := make([][]Term, len(p.rows))
	for ci, c := range p.cols {
		for _, t := range c.terms {
			terms[t.Var] = append(terms[t.Var], Term{Var: ci, Coeff: t.Coeff})
		}
	}
	for ri, r := range p.rows {
		lo, up := -Inf, Inf
		switch r.typ {
		case 'N':
			// free row: keep unconstrained
		case 'L':
			up = r.rhs
			if r.hasR {
				lo = r.rhs - math.Abs(r.rng)
			}
		case 'G':
			lo = r.rhs
			if r.hasR {
				up = r.rhs + math.Abs(r.rng)
			}
		case 'E':
			lo, up = r.rhs, r.rhs
			if r.hasR {
				if r.rng >= 0 {
					up = r.rhs + r.rng
				} else {
					lo = r.rhs + r.rng
				}
			}
		}
		m.AddRow(terms[ri], lo, up)
	}
	return m, nil
}

// WriteMPS writes the model in canonical free-format MPS (see the package
// comment of this file for the exact dialect). The output is deterministic
// and Write→Read→Write is byte-stable.
func WriteMPS(w io.Writer, m *Model) error {
	bw := bufio.NewWriter(w)
	fmtF := func(v float64) string {
		switch {
		case v >= spxInf:
			return "1e308" // never emitted by row/bound selection below
		case v <= -spxInf:
			return "-1e308"
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	fmt.Fprintln(bw, "NAME COYOTE")
	if m.sense == Maximize {
		fmt.Fprintln(bw, "OBJSENSE")
		fmt.Fprintln(bw, "    MAX")
	}
	fmt.Fprintln(bw, "ROWS")
	fmt.Fprintln(bw, " N  COST")
	rowType := make([]byte, len(m.rows))
	for i, r := range m.rows {
		switch {
		case r.lo <= -spxInf && r.up >= spxInf:
			rowType[i] = 'N'
		case r.lo == r.up:
			rowType[i] = 'E'
		case r.lo > -spxInf && r.up >= spxInf:
			rowType[i] = 'G'
		default:
			// Plain ≤ and ranged rows are both written as L (+ RANGES).
			rowType[i] = 'L'
		}
		fmt.Fprintf(bw, " %c  R%d\n", rowType[i], i)
	}
	// Column-major coefficient lists with duplicates merged, in row order.
	n := len(m.obj)
	colTerms := make([][]Term, n) // Term.Var reused as row index
	for i, r := range m.rows {
		acc := map[int]float64{}
		var order []int
		for _, t := range r.terms {
			if _, seen := acc[t.Var]; !seen {
				order = append(order, t.Var)
			}
			acc[t.Var] += t.Coeff
		}
		for _, v := range order {
			if c := acc[v]; c != 0 {
				colTerms[v] = append(colTerms[v], Term{Var: i, Coeff: c})
			}
		}
	}
	fmt.Fprintln(bw, "COLUMNS")
	for j := 0; j < n; j++ {
		if m.obj[j] != 0 {
			fmt.Fprintf(bw, "    X%d  COST  %s\n", j, fmtF(m.obj[j]))
		} else if len(colTerms[j]) == 0 {
			// A column with no objective and no rows must still appear in
			// COLUMNS or it would vanish on re-read, shifting every later
			// variable index.
			fmt.Fprintf(bw, "    X%d  COST  0\n", j)
		}
		for _, t := range colTerms[j] {
			fmt.Fprintf(bw, "    X%d  R%d  %s\n", j, t.Var, fmtF(t.Coeff))
		}
	}
	fmt.Fprintln(bw, "RHS")
	if m.objOffset != 0 {
		fmt.Fprintf(bw, "    RHS  COST  %s\n", fmtF(-m.objOffset))
	}
	for i, r := range m.rows {
		switch rowType[i] {
		case 'E', 'G':
			if r.lo != 0 {
				fmt.Fprintf(bw, "    RHS  R%d  %s\n", i, fmtF(r.lo))
			}
		case 'L':
			if r.up != 0 {
				fmt.Fprintf(bw, "    RHS  R%d  %s\n", i, fmtF(r.up))
			}
		}
	}
	ranged := false
	for i, r := range m.rows {
		if rowType[i] == 'L' && r.lo > -spxInf {
			if !ranged {
				fmt.Fprintln(bw, "RANGES")
				ranged = true
			}
			fmt.Fprintf(bw, "    RNG  R%d  %s\n", i, fmtF(r.up-r.lo))
		}
	}
	// Bounds: the MPS default is [0, +inf); only deviations are written.
	hdr := false
	bound := func(format string, args ...interface{}) {
		if !hdr {
			fmt.Fprintln(bw, "BOUNDS")
			hdr = true
		}
		fmt.Fprintf(bw, format, args...)
	}
	for j := 0; j < n; j++ {
		lo, up := m.vlo[j], m.vup[j]
		switch {
		case lo == up:
			bound("    FX  BND  X%d  %s\n", j, fmtF(lo))
		case lo <= -spxInf && up >= spxInf:
			bound("    FR  BND  X%d\n", j)
		default:
			if lo <= -spxInf {
				bound("    MI  BND  X%d\n", j)
			} else if lo != 0 {
				bound("    LO  BND  X%d  %s\n", j, fmtF(lo))
			}
			if up < spxInf {
				bound("    UP  BND  X%d  %s\n", j, fmtF(up))
			}
		}
	}
	fmt.Fprintln(bw, "ENDATA")
	return bw.Flush()
}
