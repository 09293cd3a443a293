package ilp

import (
	"fmt"
	"math"
	"sync"
)

// WarmStart retains the optimal tableau of a base problem — the shared
// Prefix rows plus an objective, with no set-specific constraints — so that
// the many sibling problems of one analysis direction (one ILP per
// functionality constraint set, all sharing the base) can be re-solved by
// dual simplex from the base basis with only their delta rows attached,
// instead of paying a full two-phase cold solve each.
//
// The retained tableau is read-only after NewWarmStart; SolveSet copies it
// into pooled scratch, so concurrent SolveSet calls on one WarmStart are
// safe.
type WarmStart struct {
	prob       *Problem
	red        *presolved // non-nil when the structural presolve shrank the base
	nTab       int        // variable count of the retained tableau's problem
	sign       float64    // +1 Maximize, -1 Minimize (internal max sense)
	ok         bool
	baseStatus Status
	basePivots int
	baseObj    float64
	baseX      []float64
	base       *scratch     // final tableau, basis, hi, phase-2 reduced costs
	baseCert   *Certificate // base optimal basis, when certifiable (no presolve)
	// baseXIntegral and redFixedIntegral are precomputed so the lean NoX
	// solve path can report integrality without materializing an assignment:
	// the base optimum's integrality, and (under a presolve) whether every
	// fixed variable's reconstructed constant is integral.
	baseXIntegral    bool
	redFixedIntegral bool
}

// WarmOptions tunes NewWarmStartOpts.
type WarmOptions struct {
	// DisablePresolve skips the structural presolve, so the retained
	// tableau works in the original variable space. A certifying caller
	// needs this: certificates name standard-form columns of the original
	// problem, and a presolved tableau's basis does not translate.
	DisablePresolve bool
}

// NewWarmStart solves the base problem once with the cold two-phase
// simplex and retains the optimal tableau. The problem must consist of
// Prefix rows only (no Constraints — those are the per-set deltas). When
// the base is not solvable to optimality (infeasible, unbounded, or
// degenerate with no rows), Ready reports false and every SolveSet call
// asks the caller to fall back to a cold solve.
func NewWarmStart(p *Problem) *WarmStart {
	return NewWarmStartOpts(p, WarmOptions{})
}

// NewWarmStartOpts is NewWarmStart with options.
func NewWarmStartOpts(p *Problem, opts WarmOptions) *WarmStart {
	w := &WarmStart{prob: p, sign: 1, baseStatus: Infeasible}
	if p.Sense == Minimize {
		w.sign = -1
	}
	if len(p.Constraints) != 0 || len(p.Prefix) == 0 {
		return w
	}
	// Structural presolve: substitute away variables the base rows pin down
	// (fixed counts, equal-count pairs, null branches) so the retained
	// tableau — and every per-set dual-simplex re-solve on top of it — works
	// in the smaller space. A presolve-detected contradiction means the base
	// itself is infeasible; leave the warm start not-ready and let the cold
	// path report that per set.
	solveProb := p
	if !opts.DisablePresolve {
		red, infeasible := presolveBase(p)
		if infeasible {
			return w
		}
		if red != nil {
			w.red = red
			solveProb = &Problem{
				Sense:     p.Sense,
				NumVars:   red.nRed,
				Objective: red.obj,
				Prefix:    red.rows,
			}
		}
	}
	w.nTab = solveProb.NumVars
	s := new(scratch) // owned, never pooled: the tableau outlives the call
	status, obj, x, pivots := sparseSimplexOn(solveProb, s)
	w.baseStatus = status
	w.basePivots = pivots
	if status != Optimal {
		return w
	}
	w.ok = true
	w.base = s
	if w.red != nil {
		obj += w.red.objOffset
		x = w.red.reconstruct(x)
	} else if s.m > 0 {
		w.baseCert = &Certificate{Warm: true, Basis: append([]int(nil), s.basis[:s.m]...)}
	}
	w.baseObj = obj
	w.baseX = x
	w.baseXIntegral = isIntegral(x)
	w.redFixedIntegral = true
	if w.red != nil {
		for v, c := range w.red.col {
			if c < 0 && math.Abs(w.red.fixed[v]-math.Round(w.red.fixed[v])) > intTol {
				w.redFixedIntegral = false
				break
			}
		}
	}
	return w
}

// Ready reports whether the base tableau is available for warm solves.
func (w *WarmStart) Ready() bool { return w.ok }

// RetainedBytes reports the heap bytes the warm start keeps alive between
// solves: the retained tableau (m rows of total+1 cells, over the presolved
// variables when a presolve ran) with its basis, row bounds and reduced
// costs, the base optimum, and the presolve's substitution tables. It reads
// the capacities actually held, so a caller summing it over resident bases
// accounts what they pin rather than an estimate over the unpresolved
// rows. Zero beyond the struct itself when the base did not solve.
func (w *WarmStart) RetainedBytes() int64 {
	const (
		word     = 8
		sliceHdr = 24
		rowHdr   = 64 // one PackedRow
		mapEntry = 48 // one objective map entry with its bucket share
	)
	n := int64(256) // the WarmStart and scratch structs
	if b := w.base; b != nil {
		for _, row := range b.tab {
			n += int64(cap(row)) * word
		}
		n += int64(cap(b.tab)) * sliceHdr
		n += int64(cap(b.basis)+cap(b.hi)+cap(b.rc)+cap(b.obj)+cap(b.cols)) * word
	}
	n += int64(cap(w.baseX)) * word
	if w.baseCert != nil {
		n += int64(cap(w.baseCert.Basis)) * word
	}
	if r := w.red; r != nil {
		n += int64(cap(r.col))*4 + int64(cap(r.fixed))*word
		for _, row := range r.rows {
			n += rowHdr + int64(cap(row.Cols))*4 + int64(cap(row.Vals))*word
		}
		n += int64(len(r.obj)) * mapEntry
	}
	return n
}

// BaseStatus returns the base solve's status (Optimal when Ready).
func (w *WarmStart) BaseStatus() Status { return w.baseStatus }

// BasePivots returns the pivot count of the one-time base solve.
func (w *WarmStart) BasePivots() int { return w.basePivots }

// BaseObjective returns the base LP relaxation's optimal objective when
// Ready. Because every per-set problem only adds rows to the base, this
// value bounds every set's optimum from above for Maximize (below for
// Minimize) — the envelope an anytime analysis reports for sets it never
// got to solve.
func (w *WarmStart) BaseObjective() (float64, bool) { return w.baseObj, w.ok }

// SolveSet re-solves the base problem with the given delta rows appended,
// by dual simplex from the retained base optimum. It returns the LP
// relaxation's result: the caller handles integrality (the root is
// integral in this domain almost always; a fractional root falls back to
// the cold branch-and-bound path).
//
// When useCutoff is set, cutoff is a bound in the problem's own sense: the
// solve returns Dominated as soon as the (monotonically tightening) dual
// bound proves the optimum is strictly worse than cutoff — below it for
// Maximize, above it for Minimize — without finishing the solve.
//
// The final result ok=false means the warm path gave up (anti-cycling
// iteration cap) and the caller must re-solve cold; the returned pivot
// count is still valid work performed.
func (w *WarmStart) SolveSet(set []Constraint, cutoff float64, useCutoff bool) (status Status, obj float64, x []float64, pivots int, ok bool) {
	r := w.SolveSetFull(set, cutoff, useCutoff, false)
	return r.Status, r.Objective, r.X, r.Pivots, r.OK
}

// SetSolveOptions tunes one warm per-set solve (SolveSetOpts).
type SetSolveOptions struct {
	// Cutoff, with UseCutoff, is an incumbent bound in the problem's own
	// sense; the solve returns Dominated as soon as the dual bound proves
	// the optimum strictly worse.
	Cutoff    float64
	UseCutoff bool
	// WantCert asks for the optimal-basis certificate (SetSolution.Cert).
	WantCert bool
	// NoX skips materializing the optimum assignment: SetSolution.X stays
	// nil and SetSolution.XIntegral still reports whether the assignment
	// would have been integral. Callers that only need the objective (the
	// per-set fan-out of package ipet re-derives the winner's counts with a
	// canonical cold re-solve anyway) save the per-solve vector allocation
	// and, under a presolve, the reconstruction.
	NoX bool
}

// SetSolution is the full result of one warm per-set solve.
type SetSolution struct {
	Status    Status
	Objective float64
	// X holds the optimum assignment (length NumVars) when Optimal —
	// unless the solve ran with SetSolveOptions.NoX, which leaves it nil.
	X []float64
	// XIntegral reports whether the optimum assignment is integral within
	// the branch-and-bound tolerance (meaningful when Optimal; valid under
	// NoX even though X itself is not materialized).
	XIntegral bool
	Pivots    int
	// Suspect counts ill-conditioned pivots of this solve.
	Suspect int
	// Bound is the proven dual bound of a Dominated solve, in the
	// problem's own sense and full variable space: the set's LP optimum,
	// and so its integer optimum, lies at or inside it (at or below for
	// Maximize, at or above for Minimize) whatever cutoff a later solve
	// uses. DominatedBy re-applies the same strict test to a new cutoff.
	// Zero unless Status is Dominated.
	Bound float64
	// Cert is the optimal-basis certificate, present when the solve was
	// asked for one, ended Optimal, and the warm start runs without a
	// presolve (a presolved basis names reduced columns and cannot be
	// checked against the original problem).
	Cert *Certificate
	// OK false means the warm path gave up and the caller must solve cold.
	OK bool
}

// SolveSetFull is SolveSet returning the full per-solve result, including
// the suspect-pivot count and, when wantCert is set, the optimal-basis
// certificate for exact re-verification.
func (w *WarmStart) SolveSetFull(set []Constraint, cutoff float64, useCutoff, wantCert bool) SetSolution {
	return w.SolveSetOpts(set, SetSolveOptions{Cutoff: cutoff, UseCutoff: useCutoff, WantCert: wantCert})
}

// deltaRowsPool recycles the lowered-row slices of SolveSetOpts: one warm
// per-set solve is a few pointer-sized rows, and the fan-out performs
// thousands of them.
var deltaRowsPool = sync.Pool{New: func() any { s := make([]deltaRow, 0, 8); return &s }}

// SolveSetOpts is SolveSet with the full option set (SetSolveOptions) and
// the full per-solve result.
func (w *WarmStart) SolveSetOpts(set []Constraint, opts SetSolveOptions) SetSolution {
	if !w.ok {
		return SetSolution{Status: Infeasible}
	}
	var r SetSolution
	buf := deltaRowsPool.Get().(*[]deltaRow)
	rows, setInfeasible := w.lowerSet(set, (*buf)[:0])
	switch {
	case setInfeasible:
		// A delta row reduced to a violated constant (e.g. it pins a
		// presolve-fixed variable to a different value): the set is
		// infeasible without touching the tableau.
		r = SetSolution{Status: Infeasible, OK: true}
	case len(rows) == 0:
		// Every delta row is implied by the base (or the set was empty):
		// the base optimum answers the set — unless the incumbent cutoff
		// already proves it uninteresting, matching the dual bound check a
		// tableau solve would hit on its first iteration.
		if opts.UseCutoff && DominatedBy(w.prob.Sense, w.baseObj, opts.Cutoff) {
			r = SetSolution{Status: Dominated, Bound: w.baseObj, OK: true}
		} else {
			r = SetSolution{Status: Optimal, Objective: w.baseObj,
				XIntegral: w.baseXIntegral, OK: true}
			if !opts.NoX {
				r.X = append([]float64(nil), w.baseX...)
			}
			if opts.WantCert {
				r.Cert = w.baseCert
			}
		}
	default:
		r = w.solveDelta(rows, opts)
	}
	// Drop the map references before recycling so a pooled slice cannot
	// pin a caller's coefficient maps alive.
	for i := range rows {
		rows[i] = deltaRow{}
	}
	*buf = rows[:0]
	deltaRowsPool.Put(buf)
	if r.OK && selfCheck.Load() {
		w.checkAgainstCold(set, r.Status, r.Objective, opts.Cutoff)
	}
	return r
}

// lowerSet translates per-set delta constraints into the tableau's variable
// space, dropping rows the base substitution already satisfies and
// reporting sets it outright contradicts. The rows are appended to the
// caller-supplied (pooled) slice.
func (w *WarmStart) lowerSet(set []Constraint, rows []deltaRow) ([]deltaRow, bool) {
	for i := range set {
		c := &set[i]
		var (
			coeffs map[int]float64
			rhs    float64
			fate   rowFate
		)
		if w.red == nil {
			coeffs, rhs = c.Coeffs, c.RHS
			fate = emptyRowFate(coeffs, c.Rel, rhs)
		} else {
			coeffs, rhs, fate = w.red.lowerConstraint(c)
		}
		switch fate {
		case rowInfeasible:
			return rows, true
		case rowRedundant:
			continue
		}
		rows = append(rows, deltaRow{coeffs: coeffs, rel: c.Rel, rhs: rhs})
	}
	return rows, false
}

func (w *WarmStart) solveDelta(rows []deltaRow, opts SetSolveOptions) SetSolution {
	b := w.base
	m0, total0 := b.m, b.total

	// Every delta row is lowered to <= form and carried by one fresh slack
	// column; an equality contributes a <= and a >= (negated <=) pair.
	k := 0
	for i := range rows {
		if rows[i].rel == EQ {
			k += 2
		} else {
			k++
		}
	}
	m := m0 + k
	total := total0 + k
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.ensure(m, total+1)
	s.suspect = 0

	// Copy the base tableau, shifting the rhs right past the new slack
	// columns (which ensure left zeroed).
	for i := 0; i < m0; i++ {
		src, dst := b.tab[i], s.tab[i]
		copy(dst[:total0], src[:total0])
		dst[total] = injectFault(FaultWarmBase, src[total0])
		s.basis[i] = b.basis[i]
		s.hi[i] = b.hi[i]
	}
	rc := s.rc
	copy(rc[:total0], b.rc[:total0])
	for j := total0; j < total; j++ {
		rc[j] = 0
	}
	rc[total] = b.rc[total0] // -z of the base optimum

	// Append the delta rows, eliminating basic columns against the base
	// tableau so each new row is expressed over nonbasic columns plus its
	// own (basic) slack. In a canonical tableau every basic column is a
	// unit vector, so a single pass cannot reintroduce an eliminated one.
	row, slack := m0, total0
	appendLE := func(coeffs map[int]float64, negate bool, rhs float64) {
		r := s.tab[row]
		for j, v := range coeffs {
			if v == 0 {
				continue
			}
			if negate {
				v = -v
			}
			r[j] = v
		}
		r[total] = rhs
		for i := 0; i < m0; i++ {
			f := r[s.basis[i]]
			if f == 0 {
				continue
			}
			ri := s.tab[i]
			for j := 0; j <= s.hi[i]; j++ {
				if ri[j] != 0 {
					r[j] -= f * ri[j]
				}
			}
			r[total] -= f * ri[total]
		}
		r[slack] = 1
		s.basis[row] = slack
		s.hi[row] = slack
		row++
		slack++
	}
	for i := range rows {
		c := &rows[i]
		switch c.rel {
		case LE:
			appendLE(c.coeffs, false, c.rhs)
		case GE:
			appendLE(c.coeffs, true, -c.rhs)
		case EQ:
			appendLE(c.coeffs, false, c.rhs)
			appendLE(c.coeffs, true, -c.rhs)
		}
	}

	// Dual simplex: the basis stays dual feasible (rc <= 0 over admissible
	// columns); drive the negative right-hand sides out. Base artificial
	// columns must never re-enter; the fresh slacks may.
	admissible := func(j int) bool { return j < b.artStart || j >= total0 }
	// The tableau's dual bound -rc[total] tracks the reduced objective when
	// a presolve is active; shift the caller's full-space cutoff by the
	// fixed-variable contribution before comparing.
	var off float64
	if w.red != nil {
		off = w.red.objOffset
	}
	internalCutoff := w.sign * (opts.Cutoff - off)
	pivots := 0
	blandAfter := 50 * (m + total + 10)
	hardCap := 10 * blandAfter
	for iter := 0; ; iter++ {
		// The dual bound -rc[total] tightens monotonically toward the
		// optimum; once it proves the set strictly worse than the caller's
		// incumbent, the exact value no longer matters.
		if opts.UseCutoff && -rc[total] < internalCutoff-cutoffTol {
			return SetSolution{Status: Dominated, Bound: w.sign*(-rc[total]) + off,
				Pivots: pivots, Suspect: s.suspect, OK: true}
		}
		if iter > hardCap {
			// Give up; cold fallback. The pivot count is still valid work.
			return SetSolution{Status: Infeasible, Pivots: pivots, Suspect: s.suspect}
		}
		useBland := iter > blandAfter
		lr := -1
		worst := -feasTol
		for i := 0; i < m; i++ {
			if v := s.tab[i][total]; v < worst {
				lr = i
				if useBland {
					break
				}
				worst = v
			}
		}
		if lr < 0 {
			break // primal feasible again: optimal
		}
		pr := s.tab[lr]
		ec := -1
		bestRatio := math.Inf(1)
		for j := 0; j < total; j++ {
			a := pr[j]
			if a < -eps && admissible(j) {
				ratio := rc[j] / a // >= 0: rc <= 0, a < 0
				if ec < 0 || ratio < bestRatio-eps {
					bestRatio = ratio
					ec = j
					if useBland && ratio <= eps {
						break
					}
				}
			}
		}
		if ec < 0 {
			// The row reads sum(nonneg terms) <= negative: infeasible.
			return SetSolution{Status: Infeasible, Pivots: pivots, Suspect: s.suspect, OK: true}
		}
		s.pivot(lr, ec, total)
		pivots++
		if f := rc[ec]; f != 0 {
			npr := s.tab[lr]
			for _, j := range s.cols {
				rc[j] -= f * npr[j]
			}
			rc[ec] = 0
			rc[total] -= f * npr[total]
		}
	}

	var r SetSolution
	if opts.NoX {
		// Lean extraction: the assignment is zero off the basis, so its
		// objective and integrality read straight off the basic rows (plus,
		// under a presolve, the precomputed fixed-variable constants) with
		// no vector materialized and nothing reconstructed.
		objMap := w.prob.Objective
		integral := true
		if w.red != nil {
			objMap = w.red.obj
			integral = w.redFixedIntegral
		}
		obj := 0.0
		for i := 0; i < m; i++ {
			if bc := s.basis[i]; bc < w.nTab {
				v := s.tab[i][total]
				if v < 0 && v > -feasTol {
					v = 0
				}
				if math.Abs(v-math.Round(v)) > intTol {
					integral = false
				}
				if c := objMap[bc]; c != 0 && v != 0 {
					obj += c * v
				}
			}
		}
		if w.red != nil {
			obj += w.red.objOffset
		}
		r = SetSolution{Status: Optimal, Objective: obj, XIntegral: integral,
			Pivots: pivots, Suspect: s.suspect, OK: true}
	} else {
		x := make([]float64, w.nTab)
		for i := 0; i < m; i++ {
			if bc := s.basis[i]; bc < w.nTab {
				v := s.tab[i][total]
				if v < 0 && v > -feasTol {
					v = 0
				}
				x[bc] = v
			}
		}
		if w.red != nil {
			x = w.red.reconstruct(x)
		}
		obj := 0.0
		for j, v := range w.prob.Objective {
			obj += v * x[j]
		}
		r = SetSolution{Status: Optimal, Objective: obj, X: x, XIntegral: isIntegral(x),
			Pivots: pivots, Suspect: s.suspect, OK: true}
	}
	if opts.WantCert && w.red == nil {
		r.Cert = &Certificate{Warm: true, Basis: append([]int(nil), s.basis[:m]...)}
	}
	return r
}

// DominatedBy reports whether a proven dual bound shows a set strictly
// worse than cutoff by more than the warm path's domination margin — below
// it for Maximize, above it for Minimize. It is the test a warm solve
// applies before returning Dominated, so a caller holding a Bound from an
// earlier solve can decide whether that bound alone settles the set under
// a new cutoff.
func DominatedBy(sense Sense, bound, cutoff float64) bool {
	if sense == Minimize {
		return -bound < -cutoff-cutoffTol
	}
	return bound < cutoff-cutoffTol
}

// checkAgainstCold is the SetSelfCheck differential for the warm path: the
// same base + delta problem is re-solved through the cold production
// simplex (itself checked against the dense oracle when enabled) and the
// outcomes must agree, unless a SetSelfCheckReferee confirms the warm claim.
func (w *WarmStart) checkAgainstCold(set []Constraint, status Status, obj, cutoff float64) {
	cold := &Problem{
		Sense:       w.prob.Sense,
		NumVars:     w.prob.NumVars,
		Objective:   w.prob.Objective,
		Prefix:      w.prob.Prefix,
		Constraints: set,
	}
	cStatus, cObj, _, _ := simplex(cold)
	switch status {
	case Optimal:
		if (cStatus != Optimal || math.Abs(cObj-obj) > agreeTol) && !refereeVouches(cold, status, obj) {
			panic(fmt.Sprintf("ilp: warm/cold divergence: warm optimal %.9g, cold %v %.9g on\n%s",
				obj, cStatus, cObj, unpackProblem(cold)))
		}
	case Infeasible:
		if cStatus != Infeasible && !refereeVouches(cold, status, obj) {
			panic(fmt.Sprintf("ilp: warm/cold divergence: warm infeasible, cold %v %.9g on\n%s",
				cStatus, cObj, unpackProblem(cold)))
		}
	case Dominated:
		// Domination claims the optimum is strictly worse than the cutoff;
		// an infeasible set is vacuously dominated.
		if cStatus == Optimal && !(w.sign*cObj < w.sign*cutoff+agreeTol) {
			panic(fmt.Sprintf("ilp: warm/cold divergence: warm dominated under cutoff %.9g (%v), cold optimal %.9g on\n%s",
				cutoff, w.prob.Sense, cObj, unpackProblem(cold)))
		}
	}
}

// IsIntegral reports whether every entry of x is integral within the
// branch-and-bound tolerance — exported so callers consuming a warm LP
// solve can decide whether it already answers the integer problem.
func IsIntegral(x []float64) bool { return isIntegral(x) }
