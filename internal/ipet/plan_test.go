package ipet

import (
	"fmt"
	"sync"
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/prepcache"
)

// sessionAnalyzer applies annots (parsed under the given file name) to a
// fresh analyzer of sess and binds its solver plan.
func sessionAnalyzer(t *testing.T, sess *Session, name, annots string) *Analyzer {
	t.Helper()
	f, err := constraint.ParseNamed(name, annots)
	if err != nil {
		t.Fatal(err)
	}
	an, err := sess.Analyzer(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.solverSetup(); err != nil {
		t.Fatal(err)
	}
	return an
}

// TestPlanCacheLayoutInsensitive: annotation texts that differ only in
// whitespace, comments, line numbers, file names or the order of a
// relation's terms compile to one shared plan, and every one of them
// reports what the one-shot path reports.
func TestPlanCacheLayoutInsensitive(t *testing.T) {
	prog := checkDataProgram(t)
	texts := []string{
		checkDataAnnots,
		"; the paper's Fig. 5 constraints\n\n\nfunc check_data {\n  loop 1: 1 .. 10 ; eqs (14)-(15)\n\n" +
			"  (x4 = 0 & x6 = 1)   |   (x4 = 1 & x6 = 0)\n  x4 = x9 ; eq (17)\n}\n",
		"func check_data { loop 1: 1 .. 10\n(x4=0&x6=1)|(x4=1&x6=0)\nx4 = x9 }",
	}
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		sess, err := Prepare(prog, "check_data", opts)
		if err != nil {
			t.Fatal(err)
		}
		want := oneShot(t, prog, "check_data", checkDataAnnots, opts)
		var first *solverPlan
		for i, text := range texts {
			an := sessionAnalyzer(t, sess, fmt.Sprintf("variant%d.ann", i), text)
			if first == nil {
				first = an.plan.solverPlan
			} else if an.plan.solverPlan != first {
				t.Fatalf("workers=%d: variant %d compiled a second plan", workers, i)
			}
			got, err := an.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			if !reportsEqual(got, want) {
				t.Fatalf("workers=%d variant %d diverges from one-shot:\n%+v %+v\n%+v %+v",
					workers, i, got.WCET, got.BCET, want.WCET, want.BCET)
			}
		}
		if n := sess.CacheStats().Plans; n != 1 {
			t.Fatalf("workers=%d: %d plans resident, want 1", workers, n)
		}
	}

	// Term order inside one relation is not part of the key either.
	a := annotationKey(parseAnnots(t, "func main { x2 + x3 + 2 x5 <= 4 }"))
	b := annotationKey(parseAnnots(t, "func main {\n  2 x5 + x3 + x2 <= 4\n}"))
	if a != b {
		t.Fatal("reordered terms of one relation key apart")
	}
}

// twoDiamondsProgram has an if/else diamond in main and another in its
// callee f; in both, x2 is the expensive arm and x3 the cheap one.
const twoDiamondsProgram = `
main:
        beq r1, r0, .La
        mul r2, r2, r2
        jmp .Lb
.La:    addi r2, r2, 1
.Lb:    call f
        halt
f:
        beq r1, r0, .Lc
        mul r2, r2, r2
        jmp .Ld
.Lc:    addi r2, r2, 1
.Ld:    ret
`

// TestPlanCacheOrderSensitive: reordering disjuncts or sections changes
// the set order a one-shot analyzer reports against (SetIndex), so such
// texts must compile to distinct plans whose reports each match their own
// one-shot run.
func TestPlanCacheOrderSensitive(t *testing.T) {
	exe, err := asm.Assemble(twoDiamondsProgram)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"func main {\n  (x2 = 1) | (x3 = 1)\n}\nfunc f {\n  (x2 = 1) | (x3 = 1)\n}\n",
		"func main {\n  (x3 = 1) | (x2 = 1)\n}\nfunc f {\n  (x2 = 1) | (x3 = 1)\n}\n",
		"func f {\n  (x2 = 1) | (x3 = 1)\n}\nfunc main {\n  (x2 = 1) | (x3 = 1)\n}\n",
		"func main {\n  (x3 = 1) | (x2 = 1)\n}\nfunc f {\n  (x3 = 1) | (x2 = 1)\n}\n",
	}
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		sess, err := Prepare(prog, "main", opts)
		if err != nil {
			t.Fatal(err)
		}
		plans := map[*solverPlan]bool{}
		indices := map[[2]int]bool{}
		for pass := 0; pass < 2; pass++ {
			for i, text := range texts {
				an := sessionAnalyzer(t, sess, "x.ann", text)
				plans[an.plan.solverPlan] = true
				got, err := an.Estimate()
				if err != nil {
					t.Fatal(err)
				}
				want := oneShot(t, prog, "main", text, opts)
				if !reportsEqual(got, want) {
					t.Fatalf("workers=%d pass=%d text %d diverges from one-shot: set %d/%d vs %d/%d",
						workers, pass, i, got.WCET.SetIndex, got.BCET.SetIndex, want.WCET.SetIndex, want.BCET.SetIndex)
				}
				indices[[2]int{got.WCET.SetIndex, got.BCET.SetIndex}] = true
			}
		}
		if len(plans) != len(texts) {
			t.Fatalf("workers=%d: %d distinct plans for %d reordered texts", workers, len(plans), len(texts))
		}
		if len(indices) < 2 {
			t.Fatalf("workers=%d: reordering never moved a winning SetIndex; the test lost its teeth", workers)
		}
	}
}

// loopVariants returns n check_data texts that differ in one path fact's
// constant, so they share loop rows (one warm base) but compile apart.
func loopVariants(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("func check_data {\n  loop 1: 1 .. 10\n  (x4 = 0 & x6 = 1) | (x4 = 1 & x6 = 0)\n  x5 <= %d\n}\n", 20+i)
	}
	return out
}

// TestPlanCacheCap: the plan LRU never holds more than its cap, evicts the
// least recently used plan, and recompiles an evicted text on demand.
func TestPlanCacheCap(t *testing.T) {
	prog := checkDataProgram(t)
	opts := DefaultOptions()
	opts.Workers = 1
	sess, err := Prepare(prog, "check_data", opts)
	if err != nil {
		t.Fatal(err)
	}
	texts := loopVariants(planCacheCap + 4)
	var firstPlan *solverPlan
	for i, text := range texts {
		an := sessionAnalyzer(t, sess, "v.ann", text)
		if i == 0 {
			firstPlan = an.plan.solverPlan
		}
		if n := sess.CacheStats().Plans; n > planCacheCap || n != min(i+1, planCacheCap) {
			t.Fatalf("after %d texts: %d plans resident (cap %d)", i+1, n, planCacheCap)
		}
	}
	an := sessionAnalyzer(t, sess, "v.ann", texts[0])
	if an.plan.solverPlan == firstPlan {
		t.Fatal("the least recently used plan survived past the cap")
	}
	// The most recently used text is still resident.
	last := sessionAnalyzer(t, sess, "v.ann", texts[len(texts)-1])
	again := sessionAnalyzer(t, sess, "v.ann", texts[len(texts)-1])
	if last.plan.solverPlan != again.plan.solverPlan {
		t.Fatal("a resident plan was compiled again")
	}
	if n := sess.CacheStats().Plans; n != planCacheCap {
		t.Fatalf("%d plans resident, want the cap %d", n, planCacheCap)
	}
}

// TestPlanFootprintTracksLRU: compiled plans count toward the session's
// memory footprint, which grows as plans are added and shrinks when the
// LRU evicts a larger plan for a smaller one.
func TestPlanFootprintTracksLRU(t *testing.T) {
	src, _ := manySetProgram(5)
	exe, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Prepare(prog, "main", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Large plans: 32 sets each, distinct by one constant.
	large := func(i int) string {
		return fmt.Sprintf("func main {\n  x1 <= %d\n  (x2 = 1) | (x3 = 1)\n  (x5 = 1) | (x6 = 1)\n"+
			"  (x8 = 1) | (x9 = 1)\n  (x11 = 1) | (x12 = 1)\n  (x14 = 1) | (x15 = 1)\n}\n", 10+i)
	}
	small := func(i int) string { return fmt.Sprintf("func main {\n  x1 <= %d\n}\n", 10+i) }

	sessionAnalyzer(t, sess, "warm.ann", small(1000)) // builds the shared warm bases
	prev := sess.MemoryFootprint()
	for i := 0; i < planCacheCap-1; i++ {
		sessionAnalyzer(t, sess, "large.ann", large(i))
		fp := sess.MemoryFootprint()
		if fp <= prev {
			t.Fatalf("large plan %d: footprint %d did not grow from %d", i, fp, prev)
		}
		prev = fp
	}
	if cs := sess.CacheStats(); cs.Plans != planCacheCap || cs.PlanBytes <= 0 {
		t.Fatalf("cache stats %+v, want %d plans with positive bytes", cs, planCacheCap)
	}
	for i := 0; i < planCacheCap; i++ {
		sessionAnalyzer(t, sess, "small.ann", small(i))
		fp := sess.MemoryFootprint()
		if i >= 1 && fp >= prev {
			// From the second small plan on, each insertion evicts a large one.
			t.Fatalf("small plan %d: footprint %d did not shrink from %d", i, fp, prev)
		}
		prev = fp
	}
}

// dominationProgram has two if/else diamonds whose then-arms are the
// expensive ones: x2/x3 choose the first arm, x5/x6 the second.
func dominationProgram(t *testing.T) *cfg.Program {
	t.Helper()
	src, _ := manySetProgram(2)
	exe, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCachedDominationReuse: a repeated text answers every job from the
// session cache — domination bounds included — with incumbent pruning on
// and zero simplex pivots.
func TestCachedDominationReuse(t *testing.T) {
	prog := dominationProgram(t)
	opts := DefaultOptions()
	opts.Workers = 1
	// Its own cache: the shared outcome store must not pre-answer the
	// first estimate whose work this test counts.
	opts.Artifacts = prepcache.New()
	sess, err := Prepare(prog, "main", opts)
	if err != nil {
		t.Fatal(err)
	}
	text := "func main {\n  (x2 = 1 & x5 = 1) | (x3 = 1 & x5 = 1) | (x3 = 1 & x6 = 1)\n}\n"
	first, err := sess.Estimate(parseAnnots(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.IncumbentSkipped == 0 || sess.CacheStats().Dominated == 0 {
		t.Fatalf("no domination cached (skipped %d, cache %+v); the test lost its teeth",
			first.Stats.IncumbentSkipped, sess.CacheStats())
	}
	second, err := sess.Estimate(parseAnnots(t, text))
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(first, second) {
		t.Fatalf("cached repeat diverges: %+v vs %+v", first.WCET, second.WCET)
	}
	jobs := first.Stats.Solved + first.Stats.IncumbentSkipped
	if second.Stats.CacheHits != jobs || second.Stats.Pivots != 0 {
		t.Fatalf("repeat: %d cache hits of %d jobs, %d pivots; want every job cached and no pivots",
			second.Stats.CacheHits, jobs, second.Stats.Pivots)
	}
}

// TestCachedDominationWeakerIncumbent: a domination bound proven under a
// strong incumbent must not answer the same set under a weaker one. The
// first text proves set "cheap, expensive" dominated by "expensive,
// expensive"; the second pairs it with "cheap, cheap", which it beats. The
// set must be solved again (its cached domination replaced by the optimum)
// and win, exactly as on the one-shot path.
func TestCachedDominationWeakerIncumbent(t *testing.T) {
	prog := dominationProgram(t)
	opts := DefaultOptions()
	opts.Workers = 1
	// Its own cache: the shared outcome store must not pre-answer the
	// first estimate whose work this test counts.
	opts.Artifacts = prepcache.New()
	sess, err := Prepare(prog, "main", opts)
	if err != nil {
		t.Fatal(err)
	}
	strong := "func main {\n  (x2 = 1 & x5 = 1) | (x3 = 1 & x5 = 1)\n}\n"
	weak := "func main {\n  (x3 = 1 & x6 = 1) | (x3 = 1 & x5 = 1)\n}\n"
	if _, err := sess.Estimate(parseAnnots(t, strong)); err != nil {
		t.Fatal(err)
	}
	if n := sess.CacheStats().Dominated; n != 1 {
		t.Fatalf("%d cached dominations after the strong text, want 1", n)
	}
	got, err := sess.Estimate(parseAnnots(t, weak))
	if err != nil {
		t.Fatal(err)
	}
	want := oneShot(t, prog, "main", weak, opts)
	if !reportsEqual(got, want) {
		t.Fatalf("weak text diverges from one-shot:\n%+v\n%+v", got.WCET, want.WCET)
	}
	if got.WCET.SetIndex != 1 {
		t.Fatalf("WCET won by set %d, want the formerly dominated set 1", got.WCET.SetIndex)
	}
	if n := sess.CacheStats().Dominated; n != 0 {
		t.Fatalf("%d cached dominations after the re-solve, want the optimum to replace it", n)
	}
}

// TestConcurrentEstimatesSharePlan runs many goroutines over a few texts on
// one session with incumbent pruning on, so they share plans, warm bases
// and an outcome cache holding domination bounds; the -race CI job checks
// the locking, and every report must match its one-shot reference.
func TestConcurrentEstimatesSharePlan(t *testing.T) {
	prog := dominationProgram(t)
	texts := []string{
		"func main {\n  (x2 = 1 & x5 = 1) | (x3 = 1 & x5 = 1) | (x3 = 1 & x6 = 1)\n}\n",
		"func main {\n  (x3 = 1 & x6 = 1) | (x3 = 1 & x5 = 1) | (x2 = 1 & x6 = 1)\n}\n",
		"func main {\n  (x3 = 1 & x5 = 1) | (x2 = 1 & x5 = 1)\n}\n",
	}
	for _, workers := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Workers = workers
		want := make([]*Estimate, len(texts))
		for i, text := range texts {
			want[i] = oneShot(t, prog, "main", text, opts)
		}
		sess, err := Prepare(prog, "main", opts)
		if err != nil {
			t.Fatal(err)
		}
		const goroutines = 8
		errs := make(chan error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < 4*len(texts); r++ {
					i := (r + g) % len(texts)
					f, err := constraint.Parse(texts[i])
					if err != nil {
						errs <- err
						return
					}
					got, err := sess.Estimate(f)
					if err != nil {
						errs <- err
						return
					}
					if !reportsEqual(got, want[i]) {
						errs <- fmt.Errorf("goroutine %d text %d diverges: %+v vs %+v", g, i, got.WCET, want[i].WCET)
						return
					}
					sess.CacheStats()
					sess.MemoryFootprint()
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("workers=%d: %v", workers, err)
		}
		if n := sess.CacheStats().Plans; n != len(texts) {
			t.Errorf("workers=%d: %d plans resident, want %d", workers, n, len(texts))
		}
	}
}
