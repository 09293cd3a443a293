package ipet

import (
	"sync"
	"testing"
	"time"

	"cinderella/internal/prepcache"
)

// TestSessionTotalsSnapshotDuringEstimates is the regression test for the
// concurrent-observer contract of Session.Totals: a server polls the
// cumulative stats ledger (and the cache/memory accessors) while estimates
// are in flight, so snapshots must be consistent under the race detector
// and the final ledger must account every completed estimate exactly once.
func TestSessionTotalsSnapshotDuringEstimates(t *testing.T) {
	prog := checkDataProgram(t)
	sess, err := Prepare(prog, "check_data", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 4
		rounds  = 6
	)
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		// The observer loop: exactly what a stats endpoint does, as fast
		// as it can, while the estimates below run.
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tot := sess.Totals()
			if tot.Estimates < 0 || tot.Stats.Pivots < 0 {
				t.Errorf("torn snapshot: %+v", tot)
				return
			}
			if tot.Degraded > tot.Estimates {
				t.Errorf("snapshot counts %d degraded of %d estimates", tot.Degraded, tot.Estimates)
				return
			}
			sess.CacheStats()
			if sess.MemoryFootprint() <= 0 {
				t.Error("non-positive memory footprint")
				return
			}
		}
	}()

	var wg sync.WaitGroup
	perCall := make([][]*Estimate, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				est, err := sess.Estimate(parseAnnots(t, sessionScenarios[(w+r)%len(sessionScenarios)]))
				if err != nil {
					t.Error(err)
					return
				}
				perCall[w] = append(perCall[w], est)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()

	tot := sess.Totals()
	var wantEst, wantPivots, wantSolved, wantHits int64
	for _, ests := range perCall {
		for _, est := range ests {
			wantEst++
			wantPivots += int64(est.Stats.Pivots)
			wantSolved += int64(est.Stats.Solved)
			wantHits += int64(est.Stats.CacheHits)
		}
	}
	if tot.Estimates != wantEst {
		t.Errorf("Totals.Estimates = %d, want %d", tot.Estimates, wantEst)
	}
	if int64(tot.Stats.Pivots) != wantPivots {
		t.Errorf("Totals.Stats.Pivots = %d, want %d (sum of per-call stats)", tot.Stats.Pivots, wantPivots)
	}
	if int64(tot.Stats.Solved) != wantSolved {
		t.Errorf("Totals.Stats.Solved = %d, want %d", tot.Stats.Solved, wantSolved)
	}
	if int64(tot.Stats.CacheHits) != wantHits {
		t.Errorf("Totals.Stats.CacheHits = %d, want %d", tot.Stats.CacheHits, wantHits)
	}
	if tot.Degraded != 0 || tot.DeadlineHits != 0 {
		t.Errorf("unrestricted estimates recorded as degraded: %+v", tot)
	}
}

// TestSetAnytimeOverride: a per-analyzer SLO override must degrade that
// analyzer's estimate to a sound envelope bracketing the exact bound,
// while sibling analyzers of the same session — and the session options —
// stay untouched. This is the hook a session server maps request SLOs
// through.
func TestSetAnytimeOverride(t *testing.T) {
	prog := checkDataProgram(t)
	opts := DefaultOptions()
	opts.Workers = 1
	// Its own cache: the shared outcome store must not pre-answer the
	// first estimate whose work this test counts.
	opts.Artifacts = prepcache.New()
	sess, err := Prepare(prog, "check_data", opts)
	if err != nil {
		t.Fatal(err)
	}

	exact, err := sess.Estimate(parseAnnots(t, sessionScenarios[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !exact.WCET.Exact || !exact.BCET.Exact {
		t.Fatalf("reference run not exact: %+v / %+v", exact.WCET, exact.BCET)
	}

	// Each case gets its own scenario: a scenario the session has already
	// solved would be answered from the outcome cache with zero pivots —
	// legitimately exact under any budget — and prove nothing.
	for _, tc := range []struct {
		name     string
		scenario int
		deadline time.Duration
		budget   int
	}{
		{"tiny-deadline", 1, time.Nanosecond, 0},
		{"tiny-budget", 2, 0, 1},
	} {
		an, err := sess.Analyzer(parseAnnots(t, sessionScenarios[tc.scenario]))
		if err != nil {
			t.Fatal(err)
		}
		an.SetAnytime(tc.deadline, tc.budget)
		got, err := an.Estimate()
		if err != nil {
			t.Fatalf("%s: degraded estimate errored instead of degrading: %v", tc.name, err)
		}
		if got.WCET.Exact && got.BCET.Exact {
			t.Fatalf("%s: estimate did not degrade (exact under a %v/%d budget)", tc.name, tc.deadline, tc.budget)
		}
		// Soundness: the envelope must bracket the unrestricted bound of
		// the same scenario.
		ref, err := sess.Estimate(parseAnnots(t, sessionScenarios[tc.scenario]))
		if err != nil {
			t.Fatal(err)
		}
		if got.WCET.Cycles < ref.WCET.Cycles {
			t.Errorf("%s: degraded WCET %d below exact %d — unsound", tc.name, got.WCET.Cycles, ref.WCET.Cycles)
		}
		if got.BCET.Cycles > ref.BCET.Cycles {
			t.Errorf("%s: degraded BCET %d above exact %d — unsound", tc.name, got.BCET.Cycles, ref.BCET.Cycles)
		}
	}

	// The override is analyzer-scoped: the session options are untouched
	// and a fresh analyzer still solves exactly.
	if sess.Opts.Deadline != 0 || sess.Opts.Budget != 0 {
		t.Errorf("session options mutated by SetAnytime: deadline %v budget %d", sess.Opts.Deadline, sess.Opts.Budget)
	}
	again, err := sess.Estimate(parseAnnots(t, sessionScenarios[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(exact, again) {
		t.Errorf("post-override estimate diverges from reference: [%d,%d] vs [%d,%d]",
			again.BCET.Cycles, again.WCET.Cycles, exact.BCET.Cycles, exact.WCET.Cycles)
	}

	tot := sess.Totals()
	if tot.Degraded < 2 {
		t.Errorf("Totals.Degraded = %d, want >= 2 (one per override case)", tot.Degraded)
	}
}

// TestTotalsCountFormulaAnswers: parametric queries answered purely by the
// piecewise-linear formula appear in the ledger as FormulaAnswers, not
// Estimates; fallback points count as estimates like any concrete solve.
func TestTotalsCountFormulaAnswers(t *testing.T) {
	const annots = `
func check_data {
    loop 1: 1 .. n1
    (x4 = 0 & x6 = 1) | (x4 = 1 & x6 = 0)
    x4 = x9
}
`
	prog := checkDataProgram(t)
	sess, err := Prepare(prog, "check_data", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sess.Parametrize(parseAnnots(t, annots), []ParamSpec{{Name: "n1", Lo: 1, Hi: 8}})
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Totals()
	var formula, fallback int64
	for n := int64(1); n <= 8; n++ {
		est, err := pb.EstimateAt([]int64{n})
		if err != nil {
			t.Fatalf("n1=%d: %v", n, err)
		}
		if est.Stats.FormulaEvals > 0 {
			formula++
		} else {
			fallback++
		}
	}
	tot := sess.Totals()
	if formula == 0 {
		t.Fatal("no point was answered by the formula")
	}
	if got := tot.FormulaAnswers - before.FormulaAnswers; got != formula {
		t.Errorf("FormulaAnswers grew by %d, want %d", got, formula)
	}
	if got := tot.Estimates - before.Estimates; got != fallback {
		t.Errorf("Estimates grew by %d, want %d (fallback points only)", got, fallback)
	}
}
