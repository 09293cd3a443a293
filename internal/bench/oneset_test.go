package bench

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cinderella/internal/constraint"
	"cinderella/internal/ilp"
	"cinderella/internal/ipet"
	"cinderella/internal/prepcache"
)

// TestOneSetProgramsSolveColdOnce: a direction whose plan has one distinct
// constraint set is answered by one cold LP and no warm base. 11 of the 13
// Table I programs are one-set programs; each reports 2 LP calls (one per
// direction), 0 warm solves, and a prepared session keeps no warm base for
// it. A repeated text on the session costs 0 pivots: the outcome cache
// answers the set and the finish cache the counts. The multi-set programs
// keep their warm bases.
func TestOneSetProgramsSolveColdOnce(t *testing.T) {
	for _, certify := range []bool{false, true} {
		t.Run(fmt.Sprintf("certify=%v", certify), func(t *testing.T) {
			oneSet := 0
			for _, p := range goldenPrograms(t) {
				if p.name == "explosion64" {
					continue
				}
				opts := ipet.DefaultOptions()
				opts.Workers = 1
				opts.Certify = certify
				file, err := constraint.Parse(p.annots)
				if err != nil {
					t.Fatal(err)
				}
				an, err := ipet.New(p.prog, p.root, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := an.Apply(file); err != nil {
					t.Fatal(err)
				}
				est, err := an.Estimate()
				if err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
				distinct := est.Stats.SetsTotal - est.Stats.PrunedNull - est.Stats.Deduped
				// Its own cache: the shared outcome store must not pre-answer
				// the first estimate whose work this test counts.
				opts.Artifacts = prepcache.New()
				sess, err := ipet.Prepare(p.prog, p.root, opts)
				if err != nil {
					t.Fatal(err)
				}
				first, err := sess.Estimate(file)
				if err != nil {
					t.Fatalf("%s session: %v", p.name, err)
				}
				cs := sess.CacheStats()
				if distinct > 1 {
					if est.Stats.WarmSolves == 0 || cs.WarmBases != 2 || cs.WarmBaseBytes <= 0 {
						t.Errorf("%s (%d sets): %d warm solves, %d warm bases of %d bytes; want warm solves and 2 bases",
							p.name, distinct, est.Stats.WarmSolves, cs.WarmBases, cs.WarmBaseBytes)
					}
					continue
				}
				oneSet++
				for _, e := range []*ipet.Estimate{est, first} {
					if e.Stats.WarmSolves != 0 || e.Stats.ColdSolves != 2 {
						t.Errorf("%s: %d warm / %d cold solves, want 0 / 2", p.name, e.Stats.WarmSolves, e.Stats.ColdSolves)
					}
					// Certified runs add the exact checker's LP calls.
					if !certify && e.LPSolves != 2 {
						t.Errorf("%s: %d LP calls, want 2", p.name, e.LPSolves)
					}
				}
				if cs.WarmBases != 0 || cs.WarmBaseBytes != 0 || cs.CountVectors != 2 {
					t.Errorf("%s: session caches %+v, want no warm base and 2 count vectors", p.name, cs)
				}
				repeat, err := sess.Estimate(file)
				if err != nil {
					t.Fatalf("%s repeat: %v", p.name, err)
				}
				if repeat.Stats.Pivots != 0 || repeat.LPSolves != 0 || repeat.Stats.CacheHits != 2 {
					t.Errorf("%s repeat: %d pivots, %d LP calls, %d cache hits; want 0, 0, 2",
						p.name, repeat.Stats.Pivots, repeat.LPSolves, repeat.Stats.CacheHits)
				}
				if got, want := renderReports(repeat), renderReports(est); got != want {
					t.Errorf("%s repeat report\n%s\ndiffers from one-shot\n%s", p.name, got, want)
				}
			}
			if oneSet != 11 {
				t.Errorf("%d one-set Table I programs, want 11", oneSet)
			}
		})
	}
}

// TestColdInfeasibleClaimConfirmedExactly: raised loop bounds on
// fullsearch and whetstone make float kernels claim that the lone
// constraint set is infeasible (fullsearch: the revised kernel; whetstone:
// every kernel mask, the tableau's phase 1 stopping with an artificial sum
// of 0.47). The claim is confirmed by the exact simplex before it is
// reported, so every kernel mask, worker count and certify mode returns
// the exact bounds and never an InfeasibleError.
func TestColdInfeasibleClaimConfirmedExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("exact re-solves of two benchmark programs")
	}
	cases := []struct {
		name       string
		edits      []string // old, new pairs applied to the annotations
		bcet, wcet int64
	}{
		{"fullsearch", []string{"loop 2: 9 .. 9", "loop 2: 9 .. 69"}, 5769203, 142557576},
		{"whetstone", []string{"loop 5: 320 .. 320", "loop 5: 320 .. 357",
			"loop 7: 6160 .. 6160", "loop 7: 6160 .. 6217"}, 8401194, 28145252},
	}
	defer ilp.SetKernels(true, true)
	for _, c := range cases {
		bm, ok := ByName(c.name)
		if !ok {
			t.Fatalf("unknown benchmark %q", c.name)
		}
		annots := bm.Annotations
		for i := 0; i < len(c.edits); i += 2 {
			edited := strings.Replace(annots, c.edits[i], c.edits[i+1], 1)
			if edited == annots {
				t.Fatalf("%s: %q not found", c.name, c.edits[i])
			}
			annots = edited
		}
		file, err := constraint.Parse(annots)
		if err != nil {
			t.Fatal(err)
		}
		built, err := bm.Build(ipet.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, mask := range []struct {
			name             string
			network, revised bool
		}{{"all", true, true}, {"network", true, false}, {"revised", false, true}, {"tableau", false, false}} {
			ilp.SetKernels(mask.network, mask.revised)
			for _, certify := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					opts := ipet.DefaultOptions()
					opts.Workers = workers
					opts.Certify = certify
					an, err := ipet.New(built.CFG, bm.Root, opts)
					if err != nil {
						t.Fatal(err)
					}
					if err := an.Apply(file); err != nil {
						t.Fatal(err)
					}
					est, err := an.Estimate()
					label := fmt.Sprintf("%s kernels=%s certify=%v workers=%d", c.name, mask.name, certify, workers)
					if err != nil {
						var inf *ipet.InfeasibleError
						if errors.As(err, &inf) {
							t.Errorf("%s: float infeasibility reported as %v", label, err)
						} else {
							t.Errorf("%s: %v", label, err)
						}
						continue
					}
					if est.BCET.Cycles != c.bcet || est.WCET.Cycles != c.wcet || !est.WCET.Exact || !est.BCET.Exact {
						t.Errorf("%s: bound [%d, %d] (exact %v/%v), want exact [%d, %d]", label,
							est.BCET.Cycles, est.WCET.Cycles, est.BCET.Exact, est.WCET.Exact, c.bcet, c.wcet)
					}
					if workers == 1 && !certify {
						t.Logf("%s: %d exact re-solves", label, est.Stats.ExactResolves)
					}
				}
			}
		}
	}
}

// TestSessionFootprintTracksHeap: a prepared session's accounted footprint
// (Session.MemoryFootprint, which a server's memory budget evicts by) plus
// the accounted bytes of the outcome store its solves fill stay within 2x
// of the heap the two actually grow by after 20 annotation variants: loop-bound variants of dhry (each builds two warm
// bases) and, since the 64-set explosion chain has no loops, explosion64
// variants that add a redundant path fact to every set (each solves 128
// new sets).
func TestSessionFootprintTracksHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("estimates 20 variants of two programs")
	}
	for _, p := range goldenPrograms(t) {
		if p.name != "dhry" && p.name != "explosion64" {
			continue
		}
		opts := ipet.DefaultOptions()
		opts.Workers = 1
		opts.Artifacts = prepcache.New()
		variants := make([]*constraint.File, 20)
		for i := range variants {
			var text string
			if p.name == "explosion64" {
				// x1 is the entry block, executed once.
				text = strings.Replace(p.annots, "func main {\n", fmt.Sprintf("func main {\n    x1 <= %d\n", i+1), 1)
			} else {
				text = raiseFirstLoopBound(t, p.annots, i+1)
			}
			f, err := constraint.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			variants[i] = f
		}
		// Warm the process-wide prepare artifacts so the measured growth is
		// the session's own.
		if _, err := ipet.Prepare(p.prog, p.root, opts); err != nil {
			t.Fatal(err)
		}
		before := heapInUse()
		sess, err := ipet.Prepare(p.prog, p.root, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range variants {
			if _, err := sess.Estimate(f); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
		}
		grown := heapInUse() - before
		accounted := sess.MemoryFootprint() + opts.Artifacts.Outcomes().Stats().Bytes
		runtime.KeepAlive(sess)
		t.Logf("%s: accounted %d bytes, heap grew %d bytes (%+v)", p.name, accounted, grown, sess.CacheStats())
		if grown <= 0 || accounted > 2*grown || grown > 2*accounted {
			t.Errorf("%s: accounted footprint %d bytes vs measured heap growth %d bytes, want within 2x",
				p.name, accounted, grown)
		}
	}
}

// raiseFirstLoopBound returns annots with the upper end of its first
// non-symbolic loop bound raised by delta.
func raiseFirstLoopBound(t *testing.T, annots string, delta int) string {
	t.Helper()
	lines := strings.Split(annots, "\n")
	for i, line := range lines {
		var loop int
		var lo, hi int64
		if n, _ := fmt.Sscanf(strings.TrimSpace(line), "loop %d: %d .. %d", &loop, &lo, &hi); n == 3 {
			lines[i] = fmt.Sprintf("    loop %d: %d .. %d", loop, lo, hi+int64(delta))
			return strings.Join(lines, "\n")
		}
	}
	t.Fatal("annotations carry no numeric loop bound")
	return ""
}

// heapInUse is the live heap after a full collection.
func heapInUse() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
