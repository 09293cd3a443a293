package ipet

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/prepcache"
)

// sessionScenarios are annotation variants of the check_data program the
// session tests replay: the paper's constraints, a tightened loop bound
// (new warm base), and a perturbed disjunct (partial set-cache overlap).
var sessionScenarios = []string{
	checkDataAnnots,
	`
func check_data {
    loop 1: 1 .. 8
    (x4 = 0 & x6 = 1) | (x4 = 1 & x6 = 0)
    x4 = x9
}
`,
	`
func check_data {
    loop 1: 1 .. 10
    (x4 = 0 & x6 = 1) | (x4 = 1 & x6 = 0 & x2 >= 1)
    x4 = x9
}
`,
}

func checkDataProgram(t *testing.T) *cfg.Program {
	t.Helper()
	exe, err := asm.Assemble(checkDataASM)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func parseAnnots(t *testing.T, src string) *constraint.File {
	t.Helper()
	f, err := constraint.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// oneShot runs the scenario through a fresh standalone Analyzer — the
// reference the session path must reproduce bit-identically.
func oneShot(t *testing.T, prog *cfg.Program, root, annots string, opts Options) *Estimate {
	t.Helper()
	an, err := New(prog, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Apply(parseAnnots(t, annots)); err != nil {
		t.Fatal(err)
	}
	est, err := an.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func reportsEqual(a, b *Estimate) bool {
	return reflect.DeepEqual(a.WCET, b.WCET) && reflect.DeepEqual(a.BCET, b.BCET)
}

// TestSessionMatchesOneShot: every scenario solved off one shared session —
// cold and from a fully warmed cache, at several worker counts — must
// report BoundReports bit-identical to a fresh one-shot Analyzer.
func TestSessionMatchesOneShot(t *testing.T) {
	prog := checkDataProgram(t)
	for _, workers := range []int{1, 3} {
		opts := DefaultOptions()
		opts.Workers = workers
		sess, err := Prepare(prog, "check_data", opts)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for si, annots := range sessionScenarios {
				got, err := sess.Estimate(parseAnnots(t, annots))
				if err != nil {
					t.Fatalf("workers=%d pass=%d scenario %d: %v", workers, pass, si, err)
				}
				want := oneShot(t, prog, "check_data", annots, opts)
				if !reportsEqual(got, want) {
					t.Fatalf("workers=%d pass=%d scenario %d diverges from one-shot:\nsession: %+v %+v\noneshot: %+v %+v",
						workers, pass, si, got.WCET, got.BCET, want.WCET, want.BCET)
				}
			}
		}
	}
}

// TestSessionCacheReuse: repeating a scenario on a prepared session must
// answer every distinct set from the cache with zero simplex work, and a
// perturbed scenario must still hit on the sets it shares.
func TestSessionCacheReuse(t *testing.T) {
	prog := checkDataProgram(t)
	opts := DefaultOptions()
	opts.Workers = 1
	opts.IncumbentPrune = false // every distinct set solves to a cacheable outcome
	// Its own cache: the shared outcome store must not pre-answer the
	// first estimate whose work this test counts.
	opts.Artifacts = prepcache.New()
	sess, err := Prepare(prog, "check_data", opts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Estimate(parseAnnots(t, sessionScenarios[0]))
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CacheHits != 0 {
		t.Fatalf("cold run reports %d cache hits", first.Stats.CacheHits)
	}
	if first.Stats.Pivots == 0 {
		t.Fatal("cold run reports zero pivots")
	}
	second, err := sess.Estimate(parseAnnots(t, sessionScenarios[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(first, second) {
		t.Fatalf("cached repeat diverges:\nfirst: %+v %+v\nsecond: %+v %+v",
			first.WCET, first.BCET, second.WCET, second.BCET)
	}
	if want := first.Stats.Solved; second.Stats.CacheHits != want {
		t.Fatalf("repeat cache hits = %d, want %d (every solved job)", second.Stats.CacheHits, want)
	}
	if second.Stats.Pivots != 0 {
		t.Fatalf("repeat spent %d pivots; warm base, outcomes, and counts should all be cached", second.Stats.Pivots)
	}

	// The perturbed scenario rewrites one disjunct: the set built from the
	// untouched disjunct is canonically unchanged and must hit.
	third, err := sess.Estimate(parseAnnots(t, sessionScenarios[2]))
	if err != nil {
		t.Fatal(err)
	}
	if third.Stats.CacheHits == 0 {
		t.Fatal("perturbed scenario shares a set with the first but hit nothing")
	}
	if third.Stats.Solved == 0 {
		t.Fatal("perturbed scenario solved nothing new") // its changed set must miss
	}
	cs := sess.CacheStats()
	if cs.WarmBases == 0 || cs.SetOutcomes == 0 || cs.CountVectors == 0 || cs.Plans == 0 {
		t.Fatalf("cache stats %+v, want all nonzero", cs)
	}
}

// TestSessionConcurrentEstimates drives one session from many goroutines
// (the -race CI job exercises the cache locking) and checks every result
// against single-threaded references.
func TestSessionConcurrentEstimates(t *testing.T) {
	prog := checkDataProgram(t)
	opts := DefaultOptions()
	opts.Workers = 2
	want := make([]*Estimate, len(sessionScenarios))
	for i, annots := range sessionScenarios {
		want[i] = oneShot(t, prog, "check_data", annots, opts)
	}
	sess, err := Prepare(prog, "check_data", opts)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	errs := make(chan error, goroutines*len(sessionScenarios))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range sessionScenarios {
				// Stagger scenario order across goroutines so cache fills
				// race with reads.
				si := (i + g) % len(sessionScenarios)
				got, err := sess.Estimate(parseAnnots(t, sessionScenarios[si]))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d scenario %d: %w", g, si, err)
					return
				}
				if !reportsEqual(got, want[si]) {
					errs <- fmt.Errorf("goroutine %d scenario %d diverges: %+v vs %+v", g, si, got.WCET, want[si].WCET)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionContextQualifiedCache: two scenarios differing only in which
// call context they pin lower to different variable columns; the session
// cache must keep their outcomes apart and reproduce each one-shot.
func TestSessionContextQualifiedCache(t *testing.T) {
	exe, err := asm.Assemble(callContextProgram)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	scenA := "func main {\n    store.x1 @ f1 = 1\n    store.x1 @ f2 = 0\n}\n"
	scenB := "func main {\n    store.x1 @ f1 = 0\n    store.x1 @ f2 = 1\n}\n"
	opts := DefaultOptions()
	opts.Workers = 1
	// Its own cache: the shared outcome store must not pre-answer the
	// first estimate whose work this test counts.
	opts.Artifacts = prepcache.New()
	sess, err := Prepare(prog, "main", opts)
	if err != nil {
		t.Fatal(err)
	}
	estA, err := sess.Estimate(parseAnnots(t, scenA))
	if err != nil {
		t.Fatal(err)
	}
	estB, err := sess.Estimate(parseAnnots(t, scenB))
	if err != nil {
		t.Fatal(err)
	}
	// The f1 route runs the mul-heavy arm; pinning f2 instead must change
	// the bound. A cache that merged the context-qualified rows would
	// return estA's cycles here.
	if estA.WCET.Cycles == estB.WCET.Cycles {
		t.Fatalf("context-qualified scenarios report the same WCET %d; cache collided", estA.WCET.Cycles)
	}
	if estB.Stats.CacheHits != 0 {
		t.Fatalf("scenario B hit %d cached outcomes of scenario A", estB.Stats.CacheHits)
	}
	for name, pair := range map[string][2]*Estimate{
		"A": {estA, oneShot(t, prog, "main", scenA, opts)},
		"B": {estB, oneShot(t, prog, "main", scenB, opts)},
	} {
		if !reportsEqual(pair[0], pair[1]) {
			t.Fatalf("scenario %s diverges from one-shot: %+v vs %+v", name, pair[0].WCET, pair[1].WCET)
		}
	}
	// Replays hit and stay identical.
	estA2, err := sess.Estimate(parseAnnots(t, scenA))
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(estA, estA2) || estA2.Stats.CacheHits == 0 {
		t.Fatalf("replay of scenario A: hits=%d, reports equal=%v", estA2.Stats.CacheHits, reportsEqual(estA, estA2))
	}
}

// TestApplyDefensiveCopy: mutating the annotation objects after Apply must
// not leak into the analysis — Apply deep-copies what it is given.
func TestApplyDefensiveCopy(t *testing.T) {
	prog := checkDataProgram(t)
	want := oneShot(t, prog, "check_data", checkDataAnnots, DefaultOptions())

	an, err := New(prog, "check_data", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	file := parseAnnots(t, checkDataAnnots)
	if err := an.Apply(file); err != nil {
		t.Fatal(err)
	}
	// Corrupt every layer of the applied file: loop bounds, a formula's
	// relation terms, and the section list itself.
	sec := &file.Sections[0]
	sec.LoopBounds[0].Hi = 1
	var corrupt func(f constraint.Formula)
	corrupt = func(f constraint.Formula) {
		switch n := f.(type) {
		case *constraint.Atom:
			n.Rel.RHS = 999
			for v := range n.Rel.Terms {
				n.Rel.Terms[v] = -7
			}
		case *constraint.And:
			for _, p := range n.Parts {
				corrupt(p)
			}
		case *constraint.Or:
			for _, p := range n.Parts {
				corrupt(p)
			}
		}
	}
	for _, f := range sec.Formulas {
		corrupt(f)
	}
	file.Sections = nil

	got, err := an.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if !reportsEqual(got, want) {
		t.Fatalf("post-Apply mutation leaked into the analysis:\ngot: %+v %+v\nwant: %+v %+v",
			got.WCET, got.BCET, want.WCET, want.BCET)
	}
}
