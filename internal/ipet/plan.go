package ipet

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"cinderella/internal/constraint"
	"cinderella/internal/ilp"
	"cinderella/internal/prepcache"
)

// direction bundles everything one objective sense shares across its
// per-set solves: the objective, the pre-lowered shared rows, and (when
// enabled, the plan has at least two distinct sets, and some job of the
// direction has had to be solved) the warm-start base tableau.
type direction struct {
	sense  ilp.Sense
	obj    objective
	prefix []ilp.PackedRow
	warm   *ilp.WarmStart
}

// setProblem is the full integer problem of one constraint set in this
// direction: the shared prefix plus the set's own rows.
func (d *direction) setProblem(set []ilp.Constraint) *ilp.Problem {
	return &ilp.Problem{
		Sense:       d.sense,
		NumVars:     d.obj.nVars,
		Integer:     true,
		Objective:   d.obj.coeffs,
		Prefix:      d.prefix,
		Constraints: set,
	}
}

// envelope is a direction's base LP relaxation optimum (structural + loop +
// objective rows, no set rows). Adding rows only shrinks the feasible
// region, so relax dominates every per-set optimum: it is the sound
// envelope reported for sets the analysis never finished. ok is false when
// no envelope is available to the estimate.
type envelope struct {
	relax float64
	ok    bool
}

// setupWork is solver work spent readying a plan's directions (warm base
// solves, the base LP of a budgeted envelope), charged to the Estimate
// that performed it.
type setupWork struct {
	lp, cold, pivots, net, rev, refactors int
}

func (w *setupWork) addSolve(st ilp.Stats) {
	w.lp += st.LPSolves
	w.cold++
	w.pivots += st.Pivots
	w.net += st.NetworkSolves
	w.rev += st.RevisedPivots
	w.refactors += st.Refactorizations
}

// solverPlan is the compiled solver setup of one annotation text: the
// expanded constraint sets with their canonical-dedup structure, the two
// solve directions, and — on prepared sessions — every outcome-store key
// the estimate looks up. It is immutable once built apart from three
// lazily filled, mutex-guarded memos (warm bases, solved envelopes and
// winners' finish keys), so a prepared session shares one plan among every
// analyzer (and every concurrent Estimate) whose annotations compile to
// the same key; see planCache.
type solverPlan struct {
	sets          [][]ilp.Constraint
	total, pruned int
	// widened[i] marks set i as a sound widening of several original sets
	// (Options.WidenSets); nWidened counts them.
	widened  []bool
	nWidened int
	// repOf[i] is the index of the earliest set canonically identical to
	// set i (i itself when distinct); distinct lists the representatives
	// in set order.
	repOf    []int
	distinct []int
	deduped  int
	// keys[i] is the canonical key of set i, computed when dedup or a
	// persistent session needs it (nil otherwise). On persistent sessions
	// loopKey identifies the loop-bound rows appended to the shared
	// structural prefix, and outKeys[d*len(distinct)+k] is the outcome-store
	// key of job (direction d, distinct set k).
	keys    []string
	loopKey string
	outKeys []prepcache.Key
	// dirs holds the two directions; warmMu guards their warm fields,
	// which are filled on first need (see readyDirs).
	dirs   []direction
	warmMu sync.Mutex
	// bytes is the plan's accounted footprint (see planBytes); key is its
	// annotation key once resident in a session's planCache.
	bytes int64
	key   string

	// relaxMu guards solvedEnv, the per-direction envelopes of directions
	// without a ready warm base. They cost a base LP solve, so they are
	// solved on the first budgeted use and memoised: requests with and
	// without an anytime budget share the plan.
	relaxMu   sync.Mutex
	solvedEnv []*envelope

	// finMu guards finKeys, the memoised finishKey of each (direction,
	// set) that has won an estimate (zero until then); only winners need
	// one.
	finMu   sync.Mutex
	finKeys [][]prepcache.Key
}

// finishKey returns the count-vector key of set si in direction di on
// session s, computing it on first use.
func (p *solverPlan) finishKey(s *Session, di, si int) prepcache.Key {
	p.finMu.Lock()
	defer p.finMu.Unlock()
	if p.finKeys == nil {
		p.finKeys = make([][]prepcache.Key, len(p.dirs))
	}
	if p.finKeys[di] == nil {
		p.finKeys[di] = make([]prepcache.Key, len(p.sets))
	}
	if p.finKeys[di][si] == (prepcache.Key{}) {
		p.finKeys[di][si] = finishKey(s.lpDigest, di, s.Opts.Certify, p.loopKey, p.sets[si])
	}
	return p.finKeys[di][si]
}

// planUse is one analyzer's binding to a (possibly shared) plan. setup is
// the solver work this binding has spent readying the plan's directions;
// every estimate of the binding starts its pivot budget from it.
type planUse struct {
	*solverPlan
	setup atomic.Int64
}

// solverSetup returns the analyzer's solver plan, binding it on first use.
// A prepared session first looks the annotation key up in its plan cache,
// so a repeated annotation text skips set expansion, lowering and keying
// entirely.
func (a *Analyzer) solverSetup() (*planUse, error) {
	a.planMu.Lock()
	defer a.planMu.Unlock()
	if a.plan != nil {
		return a.plan, nil
	}
	// A concrete solve has no value for parameter symbols; refuse with a
	// typed, positioned error instead of silently treating "n1" as zero.
	if err := checkNoSymbols(a.annots); err != nil {
		return nil, err
	}
	use := &planUse{}
	if a.persist {
		use.solverPlan = a.plans.get(a.planKey)
	}
	if use.solverPlan == nil {
		plan, err := a.buildPlan()
		if err != nil {
			return nil, err
		}
		if a.persist {
			// A concurrent builder of the same key may have won; share its
			// plan so outcome keys and warm bases stay one set.
			plan = a.plans.add(a.planKey, plan)
		}
		use.solverPlan = plan
	}
	a.plan = use
	return use, nil
}

// readyDirs readies the directions of the plan that have jobs to solve
// (need[d]) and returns the estimate's view of every direction with the
// envelope each makes available. A needed direction gets its warm base
// when the plan qualifies for one (built once per plan, and on prepared
// sessions fetched from the session's base cache when another plan with
// the same loop rows built it); a direction whose jobs the outcome store
// answered entirely does no LP work. A budgeted run also needs the
// envelope of a direction without a ready warm base, which costs a base LP
// solve. Work done here is added to work.
func (a *Analyzer) readyDirs(plan *solverPlan, need []bool, budgeted bool, work *setupWork) ([]direction, []envelope) {
	plan.warmMu.Lock()
	for di := range plan.dirs {
		// A warm base amortises one base solve over sibling sets; a lone
		// set has none, so it is solved once, cold, and that solve's values
		// are the reported counts.
		if need[di] && plan.dirs[di].warm == nil && a.Opts.WarmStart && len(plan.distinct) > 1 {
			plan.dirs[di].warm = a.warmBase(plan, di, work)
		}
	}
	dirs := slices.Clone(plan.dirs)
	plan.warmMu.Unlock()
	env := make([]envelope, len(dirs))
	for di, d := range dirs {
		switch {
		case !need[di]:
		case d.warm != nil && d.warm.Ready():
			// The warm base already holds the relaxation envelope.
			env[di].relax, env[di].ok = d.warm.BaseObjective()
		case budgeted:
			// A budgeted run may need the envelope for sets it abandons.
			// Unbudgeted runs never ask, so their statistics stay identical
			// to the exhaustive path.
			env[di] = plan.solvedEnvelope(di, work)
		}
	}
	return dirs, env
}

// warmBase builds direction di's warm base, or on a prepared session takes
// it from the base cache, where warm bases persist across plans keyed by
// the loop rows; only the call that builds one is charged.
func (a *Analyzer) warmBase(plan *solverPlan, di int, work *setupWork) *ilp.WarmStart {
	d := &plan.dirs[di]
	newBase := func() *warmBaseEntry {
		// Certify needs the un-presolved base: the exact checker re-derives
		// the warm tableau layout from the problem, which presolve
		// row-elimination would obscure. The base optimum (and so every
		// bound) is identical either way.
		w := ilp.NewWarmStartOpts(&ilp.Problem{
			Sense:     d.sense,
			NumVars:   d.obj.nVars,
			Objective: d.obj.coeffs,
			Prefix:    d.prefix,
		}, ilp.WarmOptions{DisablePresolve: a.Opts.Certify})
		return &warmBaseEntry{warm: w, pivots: w.BasePivots()}
	}
	var entry *warmBaseEntry
	var hit bool
	if a.persist {
		entry, hit = a.baseCache.GetOrCompute(baseKey(di, plan.loopKey), newBase)
	} else {
		entry = newBase()
	}
	if !hit {
		work.lp++
		work.cold++
		work.pivots += entry.pivots
		if a.persist {
			a.warmBytes.Add(entry.warm.RetainedBytes())
		}
	}
	return entry.warm
}

// solvedEnvelope returns direction di's envelope for a plan without a
// ready warm base, solving the base LP on first use and charging that
// solve to work.
func (p *solverPlan) solvedEnvelope(di int, work *setupWork) envelope {
	p.relaxMu.Lock()
	defer p.relaxMu.Unlock()
	if e := p.solvedEnv[di]; e != nil {
		return *e
	}
	d := &p.dirs[di]
	e := &envelope{}
	sol, err := ilp.Solve(&ilp.Problem{
		Sense:     d.sense,
		NumVars:   d.obj.nVars,
		Objective: d.obj.coeffs,
		Prefix:    d.prefix,
	})
	if err == nil {
		work.addSolve(sol.Stats)
		if sol.Status == ilp.Optimal {
			e.relax, e.ok = sol.Objective, true
		}
	}
	p.solvedEnv[di] = e
	return *e
}

// buildPlan compiles the analyzer's annotations into a fresh plan. It
// does no LP work: warm bases and envelopes are readied on first need.
func (a *Analyzer) buildPlan() (*solverPlan, error) {
	sets, widened, total, pruned, err := a.buildSets(false)
	if err != nil {
		return nil, err
	}
	plan := &solverPlan{sets: sets, total: total, pruned: pruned, widened: widened}
	for _, w := range widened {
		if w {
			plan.nWidened++
		}
	}
	plan.repOf = make([]int, len(sets))
	plan.distinct = make([]int, 0, len(sets))
	if a.Opts.DedupSets || a.persist {
		plan.keys = make([]string, len(sets))
		for i := range sets {
			plan.keys[i] = canonicalSetKey(sets[i])
		}
	}
	if a.Opts.DedupSets {
		byKey := make(map[string]int, len(sets))
		for i := range sets {
			if rep, hit := byKey[plan.keys[i]]; hit {
				plan.repOf[i] = rep
				plan.deduped++
			} else {
				byKey[plan.keys[i]] = i
				plan.repOf[i] = i
				plan.distinct = append(plan.distinct, i)
			}
		}
	} else {
		for i := range sets {
			plan.repOf[i] = i
			plan.distinct = append(plan.distinct, i)
		}
	}

	// The structural rows and each direction's objective extras were
	// lowered once when the session was built; only the loop-bound rows
	// depend on the annotations. The concatenation order (structural, loop
	// bounds, extras) matches what a single Pack of the full row list
	// produced before the session split, so solves see identical tableaux.
	loops := ilp.Pack(a.loopBoundRows(false))
	if a.persist {
		plan.loopKey = packedRowsKey(loops)
	}
	for di := range a.dirBases {
		db := &a.dirBases[di]
		prefix := make([]ilp.PackedRow, 0, len(a.packedStructural)+len(loops)+len(db.packedExtra))
		prefix = append(prefix, a.packedStructural...)
		prefix = append(prefix, loops...)
		prefix = append(prefix, db.packedExtra...)
		plan.dirs = append(plan.dirs, direction{sense: db.sense, obj: db.obj, prefix: prefix})
	}
	plan.solvedEnv = make([]*envelope, len(plan.dirs))
	if a.persist {
		nd := len(plan.distinct)
		plan.outKeys = make([]prepcache.Key, len(plan.dirs)*nd)
		for di := range plan.dirs {
			for k, si := range plan.distinct {
				plan.outKeys[di*nd+k] = solveKey(a.lpDigest, di, plan.loopKey, plan.keys[si])
			}
		}
	}
	plan.bytes = planBytes(plan, len(loops))
	return plan, nil
}

// planBytes estimates the resident bytes one plan pins beyond what the
// session already holds: the lowered sets, the per-direction prefix row
// headers (the structural rows themselves are shared), the packed loop
// rows, and the keys. Warm bases are accounted in the base cache.
func planBytes(p *solverPlan, loopRows int) int64 {
	const (
		bytesPerPlan    = 512
		bytesPerSetRow  = 96 // ilp.Constraint plus its map header
		bytesPerSetNZ   = 24 // one map entry
		bytesPerSet     = 80 // slice headers, repOf, distinct, widened
		bytesPerRowHdr  = 64 // one ilp.PackedRow in a prefix slice
		bytesPerLoopNZ  = 12 // one packed loop-row coefficient
		bytesPerString  = 16
		loopNZEstimated = 4 // coefficients per loop-bound row
	)
	n := int64(bytesPerPlan)
	for _, set := range p.sets {
		n += bytesPerSet
		for _, c := range set {
			n += bytesPerSetRow + int64(len(c.Coeffs))*bytesPerSetNZ
		}
	}
	for _, d := range p.dirs {
		n += int64(len(d.prefix)) * bytesPerRowHdr
	}
	n += int64(loopRows) * (bytesPerRowHdr + loopNZEstimated*bytesPerLoopNZ)
	for _, k := range p.keys {
		n += int64(len(k)) + bytesPerString
	}
	n += int64(len(p.outKeys)) * int64(len(prepcache.Key{}))
	// The memoised finish keys, one slot per (direction, set).
	n += int64(len(p.dirs)*len(p.sets)) * int64(len(prepcache.Key{}))
	return n + int64(len(p.loopKey))
}

// planCacheCap bounds the plans one prepared session keeps. The
// interactive loop revisits a handful of recent annotation texts per
// program; a plan is a few kilobytes to a few hundred, so the cap bounds
// memory without any tuning — there is deliberately no option for it.
const planCacheCap = 16

// planCache is a prepared session's bounded LRU of compiled solver plans,
// keyed by the canonical annotation key (annotationKey). Safe for
// concurrent use; plans are immutable once inserted.
type planCache struct {
	mu    sync.Mutex
	byKey map[string]*solverPlan
	// order lists resident plans least recently used first.
	order []*solverPlan
	bytes int64
}

func newPlanCache() *planCache {
	return &planCache{byKey: map[string]*solverPlan{}}
}

// get returns the plan for key, or nil, marking it most recently used.
func (c *planCache) get(key string) *solverPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.byKey[key]
	if p != nil {
		c.touch(p)
	}
	return p
}

// add inserts plan under key unless a plan is already resident there, and
// returns the resident plan. Inserting past the cap evicts the least
// recently used plan.
func (c *planCache) add(key string, plan *solverPlan) *solverPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.byKey[key]; p != nil {
		c.touch(p)
		return p
	}
	plan.key = key
	c.byKey[key] = plan
	c.order = append(c.order, plan)
	c.bytes += plan.bytes
	if len(c.order) > planCacheCap {
		old := c.order[0]
		c.order = slices.Delete(c.order, 0, 1)
		delete(c.byKey, old.key)
		c.bytes -= old.bytes
	}
	return plan
}

// touch moves p to the most recently used end. Callers hold mu.
func (c *planCache) touch(p *solverPlan) {
	i := slices.Index(c.order, p)
	c.order = append(slices.Delete(c.order, i, i+1), p)
}

// stats reports the resident plan count and their accounted bytes.
func (c *planCache) stats() (plans int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order), c.bytes
}

// annotationKey is the canonical binary key of an annotation file: the
// section order, each section's loop bounds in order, and its formula trees
// with every relation's terms sorted. Positions, file names, comments and
// source text are left out, so texts that differ only in layout share one
// plan, while anything that can change the sets, their order, or the loop
// rows (reordered disjuncts or sections, say) keys apart. Strings are
// length-prefixed and nodes tagged, so the encoding is injective.
func annotationKey(f *constraint.File) string {
	if f == nil {
		return ""
	}
	b := make([]byte, 0, 256)
	for si := range f.Sections {
		sec := &f.Sections[si]
		b = append(b, 'S')
		b = appendKeyString(b, sec.Func)
		b = binary.AppendUvarint(b, uint64(len(sec.LoopBounds)))
		for _, lb := range sec.LoopBounds {
			b = binary.AppendVarint(b, int64(lb.Loop))
			b = binary.AppendVarint(b, lb.Lo)
			b = binary.AppendVarint(b, lb.Hi)
			b = appendKeyString(b, lb.LoSym)
			b = appendKeyString(b, lb.HiSym)
		}
		b = binary.AppendUvarint(b, uint64(len(sec.Formulas)))
		for _, fm := range sec.Formulas {
			b = appendFormulaKey(b, fm)
		}
	}
	return string(b)
}

func appendKeyString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFormulaKey(b []byte, f constraint.Formula) []byte {
	switch n := f.(type) {
	case *constraint.Atom:
		return appendRelKey(append(b, 'A'), &n.Rel)
	case *constraint.And:
		b = append(b, '&')
		b = binary.AppendUvarint(b, uint64(len(n.Parts)))
		for _, p := range n.Parts {
			b = appendFormulaKey(b, p)
		}
	case *constraint.Or:
		b = append(b, '|')
		b = binary.AppendUvarint(b, uint64(len(n.Parts)))
		for _, p := range n.Parts {
			b = appendFormulaKey(b, p)
		}
	}
	return b
}

func appendRelKey(b []byte, r *constraint.Rel) []byte {
	b = append(b, byte(r.Op))
	b = binary.AppendVarint(b, r.RHS)
	vars := make([]constraint.Var, 0, len(r.Terms))
	for v := range r.Terms {
		vars = append(vars, v)
	}
	slices.SortFunc(vars, func(x, y constraint.Var) int {
		return cmp.Or(
			cmp.Compare(x.Func, y.Func),
			cmp.Compare(x.Kind, y.Kind),
			cmp.Compare(x.Index, y.Index),
			cmp.Compare(x.CallSiteFunc, y.CallSiteFunc),
			cmp.Compare(x.CallSite, y.CallSite),
		)
	})
	b = binary.AppendUvarint(b, uint64(len(vars)))
	for _, v := range vars {
		b = appendKeyString(b, v.Func)
		b = append(b, byte(v.Kind))
		b = binary.AppendVarint(b, int64(v.Index))
		b = appendKeyString(b, v.CallSiteFunc)
		b = binary.AppendVarint(b, int64(v.CallSite))
		b = binary.AppendVarint(b, r.Terms[v])
	}
	syms := make([]string, 0, len(r.Syms))
	for s := range r.Syms {
		syms = append(syms, s)
	}
	slices.Sort(syms)
	b = binary.AppendUvarint(b, uint64(len(syms)))
	for _, s := range syms {
		b = appendKeyString(b, s)
		b = binary.AppendVarint(b, r.Syms[s])
	}
	return b
}
