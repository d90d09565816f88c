package lp

import "math"

// luFactors is a sparse LU factorization of a basis matrix B with partial
// pivoting: P·B = L·U, computed column by column with the Gilbert–Peierls
// left-looking algorithm (each column is a sparse triangular solve against
// the L built so far, with the nonzero pattern discovered by depth-first
// reachability).
//
// Storage conventions:
//   - L is unit lower triangular. Column k holds the below-diagonal
//     multipliers, indexed by ORIGINAL row number (their pivot indices are
//     assigned later than k).
//   - U is upper triangular, stored column-wise in PIVOT-index space with
//     the diagonal split into uDiag.
//   - prow[k] is the original row chosen as the k-th pivot; pinv is its
//     inverse (original row → pivot index).
//
// Columns are factorized in a fill-reducing order (ascending nonzero
// count, so the logical ±e_i singletons eliminate first with zero fill);
// cperm maps factorization column k back to the basis position it came
// from.
type luFactors struct {
	m       int
	lColPtr []int32
	lRowIdx []int32 // original row numbers
	lVal    []float64
	uColPtr []int32
	uRowIdx []int32 // pivot indices < k
	uVal    []float64
	uDiag   []float64
	prow    []int32
	pinv    []int32
	cperm   []int32   // factorization column → basis position
	cwork   []float64 // btran scratch (engine is single-threaded per solve)
	lPivIdx []int32   // pinv[lRowIdx[p]] precomputed: btranLU's Lᵀ gather index
}

// luScratch holds the work arrays shared by factorization and solves, and
// the two luFactors buffers factorizations alternate between, so a Model
// allocates them once per shape (DESIGN.md §7).
type luScratch struct {
	work  []float64 // dense accumulator, original-row space
	pivs  []float64 // dense accumulator, pivot-index space
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
		pivs:   make([]float64, m),
		mark:   make([]int32, m),
		corder: make([]int32, m),
	}
	for i := range sc.bufs {
		sc.bufs[i] = luFactors{
			m:       m,
			lColPtr: make([]int32, 1, m+1),
			uColPtr: make([]int32, 1, m+1),
			uDiag:   make([]float64, m),
			prow:    make([]int32, m),
			pinv:    make([]int32, m),
			cperm:   make([]int32, m),
			cwork:   make([]float64, m),
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
	f.uColPtr = f.uColPtr[:1]
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
		f.uColPtr = append(f.uColPtr, int32(len(f.uVal)))
	}
	// Resolve L's row indices to pivot space once: every btranLU otherwise
	// pays the pinv indirection per entry per solve.
	f.lPivIdx = f.lPivIdx[:0]
	for _, r := range f.lRowIdx {
		f.lPivIdx = append(f.lPivIdx, f.pinv[r])
	}
	sc.live = 1 - sc.live
	return f, true
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
// column permutation is undone via cperm).
func (f *luFactors) ftranLU(b, out []float64) {
	// Forward: L z = P b, processed in pivot order.
	for k := 0; k < f.m; k++ {
		t := b[f.prow[k]]
		if t == 0 {
			continue
		}
		lo, hi := f.lColPtr[k], f.lColPtr[k+1]
		idx := f.lRowIdx[lo:hi]
		val := f.lVal[lo:hi:hi]
		for i, r := range idx {
			b[r] -= val[i] * t
		}
	}
	// Gather z into pivot space.
	w := f.cwork
	for k := 0; k < f.m; k++ {
		w[k] = b[f.prow[k]]
		b[f.prow[k]] = 0
	}
	// Back substitution: U x' = z (column-oriented), x' in factorization
	// column space.
	for k := f.m - 1; k >= 0; k-- {
		x := w[k] / f.uDiag[k]
		w[k] = x
		if x == 0 {
			continue
		}
		lo, hi := f.uColPtr[k], f.uColPtr[k+1]
		idx := f.uRowIdx[lo:hi]
		val := f.uVal[lo:hi:hi]
		for i, j := range idx {
			w[j] -= val[i] * x
		}
	}
	for k := 0; k < f.m; k++ {
		out[f.cperm[k]] = w[k]
	}
}

// btranLU solves Bᵀ·y = c: c enters indexed by BASIS position (dense,
// length m, clobbered) and the result is written into out in original-row
// space.
func (f *luFactors) btranLU(c, out []float64) {
	// Permute into factorization column space: c'[k] = c[cperm[k]].
	w := f.cwork
	for k := 0; k < f.m; k++ {
		w[k] = c[f.cperm[k]]
	}
	// Forward: Uᵀ w = c', in increasing pivot order (U's columns are rows
	// of Uᵀ).
	for k := 0; k < f.m; k++ {
		s := w[k]
		lo, hi := f.uColPtr[k], f.uColPtr[k+1]
		idx := f.uRowIdx[lo:hi]
		val := f.uVal[lo:hi:hi]
		for i, j := range idx {
			s -= val[i] * w[j]
		}
		w[k] = s / f.uDiag[k]
	}
	// Backward: Lᵀ v = w, in decreasing pivot order; L column entries sit at
	// original rows whose pivot indices are all larger than k (gathered via
	// the precomputed lPivIdx).
	for k := f.m - 1; k >= 0; k-- {
		s := w[k]
		lo, hi := f.lColPtr[k], f.lColPtr[k+1]
		idx := f.lPivIdx[lo:hi]
		val := f.lVal[lo:hi:hi]
		for i, q := range idx {
			s -= val[i] * w[q]
		}
		w[k] = s
	}
	// Un-permute rows: y[prow[k]] = v[k].
	for k := 0; k < f.m; k++ {
		out[f.prow[k]] = w[k]
	}
}
