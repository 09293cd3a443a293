package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cinderella/internal/cc"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
)

// goldenProgram is one program of the report golden: a Table I benchmark
// or explosion64, compiled once.
type goldenProgram struct {
	name, root, annots string
	prog               *cfg.Program
}

func goldenPrograms(t *testing.T) []goldenProgram {
	t.Helper()
	var programs []goldenProgram
	for _, bm := range All() {
		exe, _, err := cc.Build(bm.Source)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := cfg.Build(exe)
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, goldenProgram{bm.Name, bm.Root, bm.Annotations, prog})
	}
	exProg, exAnnots, err := explosionProgram(6)
	if err != nil {
		t.Fatal(err)
	}
	return append(programs, goldenProgram{"explosion64", "main", exAnnots, exProg})
}

// renderReports prints both BoundReports of an estimate, counts included,
// in a stable text form. Work counters are left out: they describe how a
// report was reached, not what it says.
func renderReports(est *ipet.Estimate) string {
	var b strings.Builder
	for _, r := range []struct {
		dir string
		rep *ipet.BoundReport
	}{{"WCET", &est.WCET}, {"BCET", &est.BCET}} {
		fmt.Fprintf(&b, "%s %d set %d exact %v slack %d certified %v\n",
			r.dir, r.rep.Cycles, r.rep.SetIndex, r.rep.Exact, r.rep.Slack, r.rep.Certified)
		funcs := make([]string, 0, len(r.rep.Counts))
		for fn := range r.rep.Counts {
			funcs = append(funcs, fn)
		}
		sort.Strings(funcs)
		for _, fn := range funcs {
			fmt.Fprintf(&b, "  %s %v\n", fn, r.rep.Counts[fn])
		}
	}
	return b.String()
}

// TestBoundReportsGolden pins every BoundReport, counts included, of the 13
// Table I programs plus explosion64 at workers {1, 4} with certification
// off and on, against a golden file written by an earlier solver. The
// one-shot analyzer, a prepared session's first estimate and its cached
// repeat must all print the golden text. Regenerate only after an intended
// change of a report with
//
//	CINDERELLA_UPDATE_GOLDEN=1 go test -run TestBoundReportsGolden ./internal/bench/
func TestBoundReportsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("estimates every Table I program, certified included")
	}
	var got strings.Builder
	for _, p := range goldenPrograms(t) {
		file, err := constraint.Parse(p.annots)
		if err != nil {
			t.Fatal(err)
		}
		for _, certify := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				opts := ipet.DefaultOptions()
				opts.Workers = workers
				opts.Certify = certify
				an, err := ipet.New(p.prog, p.root, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := an.Apply(file); err != nil {
					t.Fatal(err)
				}
				est, err := an.Estimate()
				if err != nil {
					t.Fatalf("%s workers=%d certify=%v: %v", p.name, workers, certify, err)
				}
				text := renderReports(est)
				sess, err := ipet.Prepare(p.prog, p.root, opts)
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 2; round++ {
					sEst, err := sess.Estimate(file)
					if err != nil {
						t.Fatalf("%s workers=%d certify=%v session round %d: %v", p.name, workers, certify, round, err)
					}
					if s := renderReports(sEst); s != text {
						t.Errorf("%s workers=%d certify=%v: session round %d report\n%s\ndiffers from one-shot\n%s",
							p.name, workers, certify, round, s, text)
					}
				}
				fmt.Fprintf(&got, "== %s workers=%d certify=%v\n%s", p.name, workers, certify, text)
			}
		}
	}
	path := filepath.Join("testdata", "reports.golden")
	if os.Getenv("CINDERELLA_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("reports differ from %s at line %d:\ngot  %s\nwant %s", path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("reports differ from %s in length: %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}
