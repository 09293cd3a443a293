package ipet

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cinderella/internal/ilp"
	"cinderella/internal/prepcache"
)

// TestOneSetPlanSolvesColdOnce: a plan with one distinct set builds no warm
// base; each direction is one cold LP whose values are the reported counts.
// On a prepared session that solve also fills the finish cache, so a
// repeated text costs 0 pivots and reports the one-shot counts. A plan with
// sibling sets keeps its warm bases.
func TestOneSetPlanSolvesColdOnce(t *testing.T) {
	src, manyAnnots := manySetProgram(2)
	const oneAnnots = "func main {\n    x2 = 1\n}\n"
	prog := buildProg(t, src)
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		want := oneShot(t, prog, "main", oneAnnots, opts)
		if want.LPSolves != 2 || want.Stats.WarmSolves != 0 || want.Stats.ColdSolves != 2 {
			t.Fatalf("workers=%d one-shot: %d LP calls, %d warm / %d cold solves; want 2, 0 / 2",
				workers, want.LPSolves, want.Stats.WarmSolves, want.Stats.ColdSolves)
		}
		// Its own cache: the shared outcome store must not pre-answer the
		// first estimate whose work this test counts.
		opts.Artifacts = prepcache.New()
		sess, err := Prepare(prog, "main", opts)
		if err != nil {
			t.Fatal(err)
		}
		first, err := sess.Estimate(parseAnnots(t, oneAnnots))
		if err != nil {
			t.Fatal(err)
		}
		if cs := sess.CacheStats(); cs.WarmBases != 0 || cs.CountVectors != 2 {
			t.Fatalf("workers=%d: caches %+v after a one-set estimate, want no warm base and 2 count vectors", workers, cs)
		}
		repeat, err := sess.Estimate(parseAnnots(t, oneAnnots))
		if err != nil {
			t.Fatal(err)
		}
		if repeat.Stats.Pivots != 0 || repeat.LPSolves != 0 || repeat.Stats.CacheHits != 2 {
			t.Fatalf("workers=%d repeat: %d pivots, %d LP calls, %d cache hits; want 0, 0, 2",
				workers, repeat.Stats.Pivots, repeat.LPSolves, repeat.Stats.CacheHits)
		}
		for _, got := range []*Estimate{first, repeat} {
			if !reflect.DeepEqual(got.WCET, want.WCET) || !reflect.DeepEqual(got.BCET, want.BCET) {
				t.Fatalf("workers=%d: session report %+v / %+v, one-shot %+v / %+v",
					workers, got.WCET, got.BCET, want.WCET, want.BCET)
			}
		}
		if _, err := sess.Estimate(parseAnnots(t, manyAnnots)); err != nil {
			t.Fatal(err)
		}
		if cs := sess.CacheStats(); cs.WarmBases != 2 || cs.WarmBaseBytes <= 0 {
			t.Fatalf("workers=%d: caches %+v after a 4-set estimate, want 2 warm bases", workers, cs)
		}
	}
}

// TestColdInfeasibleClaimConfirmed: a cold solve's infeasibility claim is
// checked by the exact simplex before it is reported, certify or not,
// unless the set's own interval contradiction already proves it null.
func TestColdInfeasibleClaimConfirmed(t *testing.T) {
	src, _ := manySetProgram(1)
	for _, c := range []struct {
		name, annots string
		exact        int
	}{
		// x2 and x3 are the arms of one diamond entered once: their sum is
		// 1, and no single-variable interval shows the contradiction.
		{"solver-proven", "func main {\n    x2 + x3 = 2\n}\n", 1},
		// Trivially null: the interval check is the exact proof.
		{"trivially null", "func main {\n    x2 = 1\n    x2 = 0\n}\n", 0},
	} {
		an := analyzerWith(t, src, c.annots, func(o *Options) { o.PruneNullSets = false })
		plan, err := an.solverSetup()
		if err != nil {
			t.Fatal(err)
		}
		if plan.dirs[0].warm != nil {
			t.Fatalf("%s: one-set plan built a warm base", c.name)
		}
		r := an.solveSet(context.Background(), &plan.dirs[0], plan.sets[0], 0, false)
		if r.err != nil || r.status != ilp.Infeasible || r.exactResolves != c.exact || r.certified != (c.exact > 0) {
			t.Fatalf("%s: solveSet = status %v, %d exact re-solves, certified %v, err %v; want Infeasible with %d",
				c.name, r.status, r.exactResolves, r.certified, r.err, c.exact)
		}
		var inf *InfeasibleError
		if _, err := an.Estimate(); !errors.As(err, &inf) {
			t.Fatalf("%s: Estimate error %v, want *InfeasibleError", c.name, err)
		}
	}
}

// TestAllInfeasibleDirectionConfirmed: before a direction whose every set
// claims infeasibility becomes an InfeasibleError, each claim is checked
// exactly — including warm-path claims, which solveSet does not confirm. A
// false claim is replaced by the exact optimum, so a float verdict alone
// never reports "annotations admit no execution".
func TestAllInfeasibleDirectionConfirmed(t *testing.T) {
	src, _ := manySetProgram(2)

	// Two distinct, genuinely infeasible sets on the warm path: the claims
	// are confirmed and the estimate fails with the typed error.
	an := analyzerWith(t, src, "func main {\n    (x2 + x3 = 2) | (x2 + x3 = 3)\n}\n", nil)
	var inf *InfeasibleError
	if _, err := an.Estimate(); !errors.As(err, &inf) {
		t.Fatalf("Estimate error %v, want *InfeasibleError", err)
	}

	// A false warm claim on feasible sets is overturned by the exact solve.
	an = analyzerWith(t, src, "func main {\n    (x2 = 1) | (x3 = 1)\n}\n", nil)
	want, err := an.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := an.solverSetup()
	if err != nil {
		t.Fatal(err)
	}
	if plan.dirs[0].warm == nil || len(plan.distinct) != 2 {
		t.Fatalf("want a two-set plan on the warm path, got %d sets, warm %v", len(plan.distinct), plan.dirs[0].warm != nil)
	}
	results := []solveResult{
		{done: true, warm: true, status: ilp.Infeasible},
		{done: true, warm: true, status: ilp.Infeasible},
	}
	if err := an.confirmAllInfeasible(context.Background(), 0, plan.solverPlan, results); err != nil {
		t.Fatal(err)
	}
	best := results[0].cycles
	if results[1].cycles > best {
		best = results[1].cycles
	}
	for k, r := range results {
		if r.status != ilp.Optimal || r.exactResolves != 1 || r.warm || r.values == nil {
			t.Fatalf("set %d after confirmation: status %v, %d exact re-solves, warm %v", k, r.status, r.exactResolves, r.warm)
		}
	}
	if best != want.WCET.Cycles {
		t.Fatalf("exact WCET %d, estimate %d", best, want.WCET.Cycles)
	}
}
