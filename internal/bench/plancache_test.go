package bench

import (
	"reflect"
	"testing"

	"cinderella/internal/cc"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
)

// TestSessionPlanCacheMatchesOneShot replays a repeat sequence of
// annotation variants through one prepared session per program — every
// Table I program plus explosion64, at workers 1 and 4 — and requires
// every BoundReport, counts included, to be bit-identical to the one-shot
// path. The variants exercise the session's plan cache: a text with only
// its layout changed (comments, blank lines, so every line number moves)
// must share the original's plan, a text with its sections reversed must
// compile its own, and repeats must come back from the caches unchanged.
func TestSessionPlanCacheMatchesOneShot(t *testing.T) {
	if testing.Short() {
		t.Skip("estimates every Table I program")
	}
	type program struct {
		name, root, annots string
		prog               *cfg.Program
	}
	var programs []program
	for _, bm := range All() {
		exe, _, err := cc.Build(bm.Source)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := cfg.Build(exe)
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, program{bm.Name, bm.Root, bm.Annotations, prog})
	}
	exProg, exAnnots, err := explosionProgram(6)
	if err != nil {
		t.Fatal(err)
	}
	programs = append(programs, program{"explosion64", "main", exAnnots, exProg})

	parse := func(name, text string) *constraint.File {
		f, err := constraint.ParseNamed(name, text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return f
	}
	for _, p := range programs {
		orig := parse(p.name+".ann", p.annots)
		layout := parse(p.name+"-layout.ann", "; same facts, new layout\n\n\n"+p.annots+"\n; end\n")
		reversed := orig.Clone()
		for i, j := 0, len(reversed.Sections)-1; i < j; i, j = i+1, j-1 {
			reversed.Sections[i], reversed.Sections[j] = reversed.Sections[j], reversed.Sections[i]
		}
		for _, workers := range []int{1, 4} {
			opts := ipet.DefaultOptions()
			opts.Workers = workers
			oneShot := func(f *constraint.File) *ipet.Estimate {
				an, err := ipet.New(p.prog, p.root, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := an.Apply(f); err != nil {
					t.Fatal(err)
				}
				est, err := an.Estimate()
				if err != nil {
					t.Fatalf("%s workers=%d one-shot: %v", p.name, workers, err)
				}
				return est
			}
			wantOrig, wantRev := oneShot(orig), oneShot(reversed)
			sess, err := ipet.Prepare(p.prog, p.root, opts)
			if err != nil {
				t.Fatal(err)
			}
			for step, v := range []struct {
				file *constraint.File
				want *ipet.Estimate
			}{
				{orig, wantOrig}, {layout, wantOrig}, {reversed, wantRev},
				{orig, wantOrig}, {reversed, wantRev}, {layout, wantOrig},
			} {
				got, err := sess.Estimate(v.file)
				if err != nil {
					t.Fatalf("%s workers=%d step %d: %v", p.name, workers, step, err)
				}
				if !reflect.DeepEqual(got.WCET, v.want.WCET) || !reflect.DeepEqual(got.BCET, v.want.BCET) {
					t.Fatalf("%s workers=%d step %d diverges from one-shot:\nsession WCET %+v\noneshot WCET %+v\nsession BCET %+v\noneshot BCET %+v",
						p.name, workers, step, got.WCET, v.want.WCET, got.BCET, v.want.BCET)
				}
			}
			plans := 1
			if len(orig.Sections) > 1 {
				plans = 2
			}
			if n := sess.CacheStats().Plans; n != plans {
				t.Errorf("%s workers=%d: %d plans resident, want %d (layout shares, reversal compiles apart)",
					p.name, workers, n, plans)
			}
		}
	}
}
