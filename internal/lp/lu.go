package lp

import (
	"math"
	"slices"
)

// luFactors is a sparse LU factorization of a basis matrix B with partial
// pivoting, P·B·Q = L·U, computed column by column with the Gilbert–Peierls
// left-looking algorithm (each column is a sparse triangular solve against
// the L built so far, with the nonzero pattern discovered by depth-first
// reachability), and kept current across basis changes by Forrest–Tomlin
// updates of U.
//
// Storage conventions:
//   - L is unit lower triangular and never changes between
//     factorizations. Column k holds the below-diagonal multipliers,
//     indexed by ORIGINAL row number (their pivot indices are assigned
//     later than k); its row view (row i is lRowCol/lRowVal[lRowPtr[i]:
//     lRowPtr[i+1]], columns by pivot index) serves btran.
//   - U lives in PIVOT-index space with the diagonal split into uDiag, and
//     is stored twice: column-wise (column k is uRowIdx/uVal[uStart[k]:
//     uEnd[k]]) for ftran, and row-wise (row i is rCol/rVal[rStart[i]:
//     rEnd[i]], with room up to rCap[i]) for btran and the update. U is
//     upper triangular in the order uOrder (uPos is its inverse): entry
//     (i, k) exists only when uPos[i] < uPos[k]. A fresh factorization
//     has uOrder = identity.
//   - Each update leaves one row eta behind: row etaPiv[t] minus the
//     combination etaVal·(rows etaIdx) of the rows it was eliminated with,
//     entries etaPtr[t]:etaPtr[t+1]. Together, B·Q = Pᵀ·L·R₁⁻¹⋯R_t⁻¹·U.
//   - prow[k] is the original row chosen as the k-th pivot; pinv is its
//     inverse (original row → pivot index).
//
// Columns are factorized in a fill-reducing order (ascending nonzero
// count, so the logical ±e_i singletons eliminate first with zero fill);
// cperm maps factorization column k back to the basis position it came
// from, cpos the other way. An update replaces the column in place, so both
// stay fixed until the next factorization.
type luFactors struct {
	m       int
	lColPtr []int32
	lRowIdx []int32 // original row numbers
	lVal    []float64
	lRowPtr []int32 // row i of L: lRowCol/lRowVal[lRowPtr[i]:lRowPtr[i+1]]
	lRowCol []int32 // pivot indices < i
	lRowVal []float64

	uStart, uEnd []int32 // column k of U: uRowIdx/uVal[uStart[k]:uEnd[k]]
	uRowIdx      []int32 // pivot indices
	uVal         []float64
	uDiag        []float64

	rStart, rEnd, rCap []int32 // row i of U: rCol/rVal[rStart[i]:rEnd[i]]
	rCol               []int32 // pivot indices
	rVal               []float64

	uOrder, uPos []int32 // triangular order of U's pivot indices and its inverse

	etaPiv []int32 // row eta t eliminated row etaPiv[t] ...
	etaPtr []int32 // ... with multipliers etaVal[etaPtr[t]:etaPtr[t+1]]
	etaIdx []int32 // ... of the rows etaIdx (pivot indices)
	etaVal []float64

	uNNZ  int // off-diagonal entries of U now
	size0 int // m plus the nonzeros of L and U when factorized: a solve's work

	prow  []int32
	pinv  []int32
	cperm []int32 // factorization column → basis position
	cpos  []int32 // basis position → factorization column

	// Scratch (the engine is single-threaded per solve), shared by both
	// buffers of a luScratch: ftranLU's pivot-space vector, btranLU's
	// accumulator and update's elimination accumulator. The last two are
	// zero between calls.
	fwork, bwork, ework []float64
}

// Forrest–Tomlin update limits. A factorization takes at most ftMaxUpdates
// updates, and none once a solve's work — m plus the nonzeros of L, U and
// the row etas — is more than ftMaxGrowth times what it was when factorized;
// an update whose new diagonal disagrees with α_r times the old one by more
// than ftStabTol (relative) is refused. The two limits were chosen on
// deterministic counts (EXPERIMENTS.md, "Forrest–Tomlin updates").
const (
	ftMaxUpdates = 56
	ftMaxGrowth  = 2
	ftStabTol    = 1e-8
)

// luScratch holds the work arrays shared by factorization and solves, and
// the two luFactors buffers factorizations alternate between, so a Model
// allocates them once per shape (DESIGN.md §7).
type luScratch struct {
	work  []float64 // dense accumulator, original-row space
	mark  []int32   // DFS visit marks (stamped)
	stamp int32
	stack []int32 // DFS stack: original row numbers
	estck []int32 // DFS edge-position stack
	topo  []int32 // raw column-pattern scratch
	order []int32 // reach set scratch (postorder)

	// Gathered-basis scratch for the fill-reducing column ordering.
	gColPtr []int32
	gRowIdx []int32
	gVal    []float64
	corder  []int32 // len m: basis positions in factorization order
	counts  []int32 // counting-sort buckets of the column ordering

	// bufs are the live factorization and its spare: luFactorize writes into
	// the one that is not live and makes it live only on success, so a
	// singular basis leaves the factors it was meant to replace intact.
	bufs [2]luFactors
	live int
}

// bumpStamp advances the visit stamp, resetting the mark array on the
// (astronomically rare) int32 wraparound.
func (sc *luScratch) bumpStamp() {
	if sc.stamp == math.MaxInt32 {
		for i := range sc.mark {
			sc.mark[i] = 0
		}
		sc.stamp = 0
	}
	sc.stamp++
}

func newLUScratch(m int) *luScratch {
	sc := &luScratch{
		work:   make([]float64, m),
		mark:   make([]int32, m),
		corder: make([]int32, m),
	}
	fwork, bwork, ework := make([]float64, m), make([]float64, m), make([]float64, m)
	for i := range sc.bufs {
		sc.bufs[i] = luFactors{
			m:       m,
			lColPtr: make([]int32, 1, m+1),
			lRowPtr: make([]int32, m+1),
			uStart:  make([]int32, m),
			uEnd:    make([]int32, m),
			uDiag:   make([]float64, m),
			rStart:  make([]int32, m),
			rEnd:    make([]int32, m),
			rCap:    make([]int32, m),
			uOrder:  make([]int32, m),
			uPos:    make([]int32, m),
			etaPtr:  make([]int32, 1, 1+ftMaxUpdates),
			prow:    make([]int32, m),
			pinv:    make([]int32, m),
			cperm:   make([]int32, m),
			cpos:    make([]int32, m),
			fwork:   fwork,
			bwork:   bwork,
			ework:   ework,
		}
	}
	return sc
}

// luFactorize computes P·(B·Q) = L·U for the m×m basis whose k-th column is
// structural column basic[k] of a, or the logical −e_i for basic[k] = a.n+i,
// with Q a fill-reducing column order (ascending nonzero count; ties by
// basis position, so the order — and with it every numeric result
// downstream — is deterministic). The factors land in sc's spare buffer,
// which becomes the live one on success; on a numerically singular basis it
// returns false and the live factors are untouched.
func luFactorize(a *csc, basic []int32, sc *luScratch) (*luFactors, bool) {
	m := len(basic)
	f := &sc.bufs[1-sc.live]
	f.lColPtr = f.lColPtr[:1]
	f.lRowIdx = f.lRowIdx[:0]
	f.lVal = f.lVal[:0]
	f.uRowIdx = f.uRowIdx[:0]
	f.uVal = f.uVal[:0]
	for i := range f.pinv {
		f.pinv[i] = -1
	}
	// Gather the basis columns once and bucket-sort positions by nonzero
	// count (counts are ≤ m, so counting sort keeps this O(m + nnz)).
	colPtr := sc.gColPtr[:0]
	rowIdx := sc.gRowIdx[:0]
	val := sc.gVal[:0]
	colPtr = append(colPtr, 0)
	for _, j := range basic {
		if int(j) < a.n {
			lo, hi := a.colPtr[j], a.colPtr[j+1]
			rowIdx = append(rowIdx, a.rowIdx[lo:hi]...)
			val = append(val, a.val[lo:hi]...)
		} else {
			rowIdx = append(rowIdx, j-int32(a.n))
			val = append(val, -1)
		}
		colPtr = append(colPtr, int32(len(rowIdx)))
	}
	sc.gColPtr, sc.gRowIdx, sc.gVal = colPtr, rowIdx, val
	maxNNZ := 0
	for k := 0; k < m; k++ {
		if nz := int(colPtr[k+1] - colPtr[k]); nz > maxNNZ {
			maxNNZ = nz
		}
	}
	if cap(sc.counts) < maxNNZ+2 {
		sc.counts = make([]int32, maxNNZ+2)
	}
	counts := sc.counts[:maxNNZ+2]
	for i := range counts {
		counts[i] = 0
	}
	for k := 0; k < m; k++ {
		counts[colPtr[k+1]-colPtr[k]+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	order := sc.corder
	for k := 0; k < m; k++ {
		nz := colPtr[k+1] - colPtr[k]
		order[counts[nz]] = int32(k)
		counts[nz]++
	}

	for fk := 0; fk < m; fk++ {
		bp := order[fk] // basis position of this factorization column
		f.cperm[fk] = bp
		// Scatter the column into the work array and collect its pattern.
		sc.bumpStamp()
		pattern := sc.topo[:0]
		for p := colPtr[bp]; p < colPtr[bp+1]; p++ {
			row, v := rowIdx[p], val[p]
			if sc.mark[row] != sc.stamp {
				sc.mark[row] = sc.stamp
				pattern = append(pattern, row)
				sc.work[row] = v
			} else {
				sc.work[row] += v
			}
		}
		sc.topo = pattern[:0]
		// DFS from the raw pattern through L's columns to find the full
		// nonzero pattern of L⁻¹(Pb) in reverse topological order.
		sc.bumpStamp()
		reach := luReach(f, pattern, sc)
		// Numeric left-looking solve in topological order.
		for i := len(reach) - 1; i >= 0; i-- {
			r := reach[i]
			pj := f.pinv[r]
			if pj < 0 {
				continue // not yet pivotal: no L column to apply
			}
			t := sc.work[r]
			if t == 0 {
				continue
			}
			for p := f.lColPtr[pj]; p < f.lColPtr[pj+1]; p++ {
				sc.work[f.lRowIdx[p]] -= f.lVal[p] * t
			}
		}
		// Partial pivoting: the largest magnitude among non-pivotal rows.
		var pivRow int32 = -1
		pivAbs := 0.0
		for _, r := range reach {
			if f.pinv[r] >= 0 {
				continue
			}
			if a := math.Abs(sc.work[r]); a > pivAbs {
				pivAbs = a
				pivRow = r
			}
		}
		if pivRow < 0 || pivAbs < luPivTol {
			// Singular (or numerically so); clear the work entries touched.
			for _, r := range reach {
				sc.work[r] = 0
			}
			return nil, false
		}
		pv := sc.work[pivRow]
		f.prow[fk] = pivRow
		f.pinv[pivRow] = int32(fk)
		f.uDiag[fk] = pv
		// Split the solved column into U (pivotal rows) and L (the rest).
		f.uStart[fk] = int32(len(f.uVal))
		for _, r := range reach {
			v := sc.work[r]
			sc.work[r] = 0
			if r == pivRow || v == 0 {
				continue
			}
			if pj := f.pinv[r]; pj >= 0 && pj < int32(fk) {
				f.uRowIdx = append(f.uRowIdx, pj)
				f.uVal = append(f.uVal, v)
			} else if pj < 0 {
				f.lRowIdx = append(f.lRowIdx, r)
				f.lVal = append(f.lVal, v/pv)
			}
		}
		f.lColPtr = append(f.lColPtr, int32(len(f.lRowIdx)))
		f.uEnd[fk] = int32(len(f.uVal))
	}
	f.buildLRows()
	for k := 0; k < m; k++ {
		f.cpos[f.cperm[k]] = int32(k)
		f.uOrder[k] = int32(k)
		f.uPos[k] = int32(k)
	}
	f.buildRows()
	f.etaPiv = f.etaPiv[:0]
	f.etaPtr = f.etaPtr[:1]
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
	f.uNNZ = len(f.uVal)
	f.size0 = m + len(f.lVal) + len(f.uVal)
	sc.live = 1 - sc.live
	return f, true
}

// buildLRows derives L's row view, in pivot-index space, from its columns.
func (f *luFactors) buildLRows() {
	ptr := f.lRowPtr
	for i := range ptr {
		ptr[i] = 0
	}
	for _, r := range f.lRowIdx {
		ptr[f.pinv[r]+1]++
	}
	for i := 1; i < len(ptr); i++ {
		ptr[i] += ptr[i-1]
	}
	n := len(f.lRowIdx)
	f.lRowCol = slices.Grow(f.lRowCol[:0], n)[:n]
	f.lRowVal = slices.Grow(f.lRowVal[:0], n)[:n]
	for k := 0; k < f.m; k++ {
		for p := f.lColPtr[k]; p < f.lColPtr[k+1]; p++ {
			i := f.pinv[f.lRowIdx[p]]
			f.lRowCol[ptr[i]] = int32(k)
			f.lRowVal[ptr[i]] = f.lVal[p]
			ptr[i]++
		}
	}
	// The fill advanced each row's pointer to the next row's start.
	copy(ptr[1:], ptr[:f.m])
	ptr[0] = 0
}

// rowSlack is the room each row of U's row view gets beyond its entries at
// factorization time, so the first updates that lengthen a row need not move
// it.
const rowSlack = 4

// buildRows derives U's row view from its columns.
func (f *luFactors) buildRows() {
	for i := range f.rEnd {
		f.rEnd[i] = 0
	}
	for _, i := range f.uRowIdx {
		f.rEnd[i]++
	}
	next := int32(0)
	for i := range f.rStart {
		f.rStart[i] = next
		next += f.rEnd[i] + rowSlack
		f.rCap[i] = next
		f.rEnd[i] = f.rStart[i]
	}
	f.rCol = slices.Grow(f.rCol[:0], int(next))[:next]
	f.rVal = slices.Grow(f.rVal[:0], int(next))[:next]
	for k := 0; k < f.m; k++ {
		for p := f.uStart[k]; p < f.uEnd[k]; p++ {
			i := f.uRowIdx[p]
			f.rCol[f.rEnd[i]] = int32(k)
			f.rVal[f.rEnd[i]] = f.uVal[p]
			f.rEnd[i]++
		}
	}
}

// luReach returns the reach of the given pattern rows through L's columns
// (following each pivotal row's L column), as original row numbers in
// reverse topological order (dependencies last). Uses sc.stack/estck for an
// iterative DFS and sc.mark stamped with the CURRENT sc.stamp.
func luReach(f *luFactors, pattern []int32, sc *luScratch) []int32 {
	order := sc.order[:0]
	for _, root := range pattern {
		if sc.mark[root] == sc.stamp {
			continue
		}
		// Iterative DFS.
		sc.stack = append(sc.stack[:0], root)
		sc.estck = append(sc.estck[:0], 0)
		sc.mark[root] = sc.stamp
		for len(sc.stack) > 0 {
			r := sc.stack[len(sc.stack)-1]
			pj := f.pinv[r]
			done := true
			if pj >= 0 {
				p := sc.estck[len(sc.estck)-1]
				for f.lColPtr[pj]+p < f.lColPtr[pj+1] {
					child := f.lRowIdx[f.lColPtr[pj]+p]
					p++
					if sc.mark[child] != sc.stamp {
						sc.mark[child] = sc.stamp
						sc.estck[len(sc.estck)-1] = p
						sc.stack = append(sc.stack, child)
						sc.estck = append(sc.estck, 0)
						done = false
						break
					}
				}
			}
			if done {
				order = append(order, r)
				sc.stack = sc.stack[:len(sc.stack)-1]
				sc.estck = sc.estck[:len(sc.estck)-1]
			}
		}
	}
	// order is in DFS postorder: downstream rows first. The numeric pass
	// iterates it in reverse, which applies each pivotal row's column before
	// any row whose value it updates.
	sc.order = order[:0]
	return order
}

// ftranLU solves B·x = b: b enters in original-row space (dense, length m,
// zeroed on return) and x lands in out indexed by BASIS position (the
// column permutation is undone via cperm). A non-nil spike receives the
// intermediate L⁻¹·P·b after the row etas, in pivot-index space: the column
// an update puts into U when b is the entering column.
func (f *luFactors) ftranLU(b, out, spike []float64) {
	// Forward: L z = P b in pivot order, each entry of z moving into pivot
	// space once final (L's column k only reaches later pivots).
	w := f.fwork
	for k := 0; k < f.m; k++ {
		r := f.prow[k]
		t := b[r]
		b[r] = 0
		w[k] = t
		if t == 0 {
			continue
		}
		lo, hi := f.lColPtr[k], f.lColPtr[k+1]
		idx := f.lRowIdx[lo:hi]
		val := f.lVal[lo:hi:hi]
		for i, q := range idx {
			b[q] -= val[i] * t
		}
	}
	// Row etas, oldest first, each a dot product into its row.
	for t, p := range f.etaPiv {
		lo, hi := f.etaPtr[t], f.etaPtr[t+1]
		idx := f.etaIdx[lo:hi]
		val := f.etaVal[lo:hi:hi]
		s := w[p]
		for i, j := range idx {
			s -= val[i] * w[j]
		}
		w[p] = s
	}
	if spike != nil {
		copy(spike, w)
	}
	// Back substitution: U x = z column by column, last pivot of the
	// triangular order first; each x_k is final when reached.
	for pos := f.m - 1; pos >= 0; pos-- {
		k := f.uOrder[pos]
		x := w[k]
		if x != 0 {
			x /= f.uDiag[k]
			lo, hi := f.uStart[k], f.uEnd[k]
			idx := f.uRowIdx[lo:hi]
			val := f.uVal[lo:hi:hi]
			for i, j := range idx {
				w[j] -= val[i] * x
			}
		}
		out[f.cperm[k]] = x
	}
}

// btranLU solves Bᵀ·y = c: c enters indexed by BASIS position (dense,
// length m, left unchanged) and the result is written into out in
// original-row space. Every stage scatters: a solved entry is pushed along
// its row of U, its row eta or its row of L, and skipped when zero.
func (f *luFactors) btranLU(c, out []float64) {
	w := f.bwork // accumulates the scatters; zero on entry and on return
	// Uᵀ w = Qᵀ c in triangular order.
	for _, k := range f.uOrder {
		x := c[f.cperm[k]] + w[k]
		if x != 0 {
			x /= f.uDiag[k]
			lo, hi := f.rStart[k], f.rEnd[k]
			idx := f.rCol[lo:hi]
			val := f.rVal[lo:hi:hi]
			for i, j := range idx {
				w[j] -= val[i] * x
			}
		}
		w[k] = x
	}
	// Transposed row etas, newest first.
	for t := len(f.etaPiv) - 1; t >= 0; t-- {
		x := w[f.etaPiv[t]]
		if x == 0 {
			continue
		}
		lo, hi := f.etaPtr[t], f.etaPtr[t+1]
		idx := f.etaIdx[lo:hi]
		val := f.etaVal[lo:hi:hi]
		for i, j := range idx {
			w[j] -= val[i] * x
		}
	}
	// Lᵀ v = w in decreasing pivot order, un-permuting rows as each v_k is
	// final: y[prow[k]] = v_k.
	for k := f.m - 1; k >= 0; k-- {
		x := w[k]
		w[k] = 0
		out[f.prow[k]] = x
		if x == 0 {
			continue
		}
		lo, hi := f.lRowPtr[k], f.lRowPtr[k+1]
		idx := f.lRowCol[lo:hi]
		val := f.lRowVal[lo:hi:hi]
		for i, j := range idx {
			w[j] -= val[i] * x
		}
	}
}

// full reports whether the factors have taken all the updates they may
// (ftMaxUpdates, ftMaxGrowth) and the next basis change must refactorize.
func (f *luFactors) full() bool {
	return len(f.etaPiv) >= ftMaxUpdates || f.m+len(f.lVal)+f.uNNZ+len(f.etaIdx) > ftMaxGrowth*f.size0
}

// update is the Forrest–Tomlin update for the basis change that puts a new
// column into basis position r: spike is that column's ftranLU spike and
// alphaR the r-th entry of its ftran result. Column k = cpos[r] of U becomes
// the spike and moves last in the triangular order; row k, which then sits
// below the diagonal, is eliminated against the rows after it and the
// multipliers become a row eta. It reports false, leaving the factors as
// they were, when the new diagonal fails the stability test — it must equal
// alphaR times the old one — and the basis must be refactorized instead.
func (f *luFactors) update(r int32, spike []float64, alphaR float64) bool {
	k := f.cpos[r]
	ew := f.ework
	for p := f.rStart[k]; p < f.rEnd[k]; p++ {
		ew[f.rCol[p]] = f.rVal[p]
	}
	// Eliminate row k in triangular order; only rows after k can hold
	// its entries and their fill. The new diagonal is the spike's entry at
	// k after the same row operations.
	etaStart := len(f.etaIdx)
	diag := spike[k]
	for pos := f.uPos[k] + 1; pos < int32(f.m); pos++ {
		j := f.uOrder[pos]
		v := ew[j]
		if v == 0 {
			continue
		}
		ew[j] = 0
		mult := v / f.uDiag[j]
		f.etaIdx = append(f.etaIdx, j)
		f.etaVal = append(f.etaVal, mult)
		diag -= mult * spike[j]
		for p := f.rStart[j]; p < f.rEnd[j]; p++ {
			ew[f.rCol[p]] -= f.rVal[p] * mult
		}
	}
	if math.Abs(diag) < luPivTol || math.Abs(diag-alphaR*f.uDiag[k]) > ftStabTol*math.Abs(diag) {
		f.etaIdx = f.etaIdx[:etaStart]
		f.etaVal = f.etaVal[:etaStart]
		return false
	}
	f.etaPiv = append(f.etaPiv, k)
	f.etaPtr = append(f.etaPtr, int32(len(f.etaIdx)))

	// The old column k leaves the row view, row k leaves the column view.
	for p := f.uStart[k]; p < f.uEnd[k]; p++ {
		f.rowDelete(f.uRowIdx[p], k)
	}
	f.uNNZ -= int(f.uEnd[k] - f.uStart[k])
	for p := f.rStart[k]; p < f.rEnd[k]; p++ {
		f.colDelete(f.rCol[p], k)
	}
	f.uNNZ -= int(f.rEnd[k] - f.rStart[k])
	f.rEnd[k] = f.rStart[k]
	// The spike becomes column k, appended to the column arena.
	f.uStart[k] = int32(len(f.uRowIdx))
	for i, v := range spike {
		if v == 0 || int32(i) == k {
			continue
		}
		f.uRowIdx = append(f.uRowIdx, int32(i))
		f.uVal = append(f.uVal, v)
		f.rowAppend(int32(i), k, v)
	}
	f.uEnd[k] = int32(len(f.uRowIdx))
	f.uNNZ += int(f.uEnd[k] - f.uStart[k])
	f.uDiag[k] = diag
	// k moves last in the triangular order.
	pos := f.uPos[k]
	copy(f.uOrder[pos:], f.uOrder[pos+1:])
	f.uOrder[f.m-1] = k
	for q := pos; q < int32(f.m); q++ {
		f.uPos[f.uOrder[q]] = q
	}
	return true
}

// colDelete removes entry (i, k) from column k of U.
func (f *luFactors) colDelete(k, i int32) {
	last := f.uEnd[k] - 1
	for p := f.uStart[k]; p <= last; p++ {
		if f.uRowIdx[p] == i {
			f.uRowIdx[p], f.uVal[p] = f.uRowIdx[last], f.uVal[last]
			f.uEnd[k] = last
			return
		}
	}
}

// rowDelete removes entry (i, k) from row i of U's row view.
func (f *luFactors) rowDelete(i, k int32) {
	last := f.rEnd[i] - 1
	for p := f.rStart[i]; p <= last; p++ {
		if f.rCol[p] == k {
			f.rCol[p], f.rVal[p] = f.rCol[last], f.rVal[last]
			f.rEnd[i] = last
			return
		}
	}
}

// rowAppend adds entry (i, k) = v to row i of U's row view, moving the row
// to the end of the arena with twice its room when it is full.
func (f *luFactors) rowAppend(i, k int32, v float64) {
	if f.rEnd[i] == f.rCap[i] {
		lo, hi := f.rStart[i], f.rEnd[i]
		n := hi - lo
		start := int32(len(f.rCol))
		f.rCol = append(append(f.rCol, f.rCol[lo:hi]...), make([]int32, n+rowSlack)...)
		f.rVal = append(append(f.rVal, f.rVal[lo:hi]...), make([]float64, n+rowSlack)...)
		f.rStart[i], f.rEnd[i], f.rCap[i] = start, start+n, start+2*n+rowSlack
	}
	f.rCol[f.rEnd[i]] = k
	f.rVal[f.rEnd[i]] = v
	f.rEnd[i]++
}
