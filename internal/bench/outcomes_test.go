package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cinderella/internal/asm"
	"cinderella/internal/cc"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
	"cinderella/internal/isa"
	"cinderella/internal/prepcache"
)

// editedProgram is one golden program with its text, so tests can build
// edited copies of it.
type editedProgram struct {
	name, root, annots string
	text               string
	asm                bool
	prog               *cfg.Program
}

// editablePrograms returns the 13 Table I programs plus explosion64 with
// their source (or assembly) text and CFG.
func editablePrograms(t *testing.T) []editedProgram {
	t.Helper()
	var out []editedProgram
	for _, bm := range All() {
		out = append(out, editedProgram{name: bm.Name, root: bm.Root, annots: bm.Annotations,
			text: bm.Source, prog: buildText(t, bm.Source, false)})
	}
	asmText, annots := ExplosionAsm(6)
	return append(out, editedProgram{name: "explosion64", root: "main", annots: annots,
		text: asmText, asm: true, prog: buildText(t, asmText, true)})
}

// withUnreachable returns p's text with function n appended: the edit of
// an edit-and-resubmit loop that leaves the root's call tree, and so the
// program's ILP, unchanged.
func (p *editedProgram) withUnreachable(n int) string {
	if p.asm {
		return fmt.Sprintf("%sorphan_%d:\n        addi r4, r4, %d\n        ret\n", p.text, n, n+1)
	}
	return fmt.Sprintf("%s\nint edit_%d(int a) {\n    return a * %d + %d;\n}\n", p.text, n, 2+n, n)
}

// buildText compiles (or assembles) a program text to its CFG.
func buildText(t testing.TB, text string, isAsm bool) *cfg.Program {
	t.Helper()
	var exe *asm.Executable
	var err error
	if isAsm {
		exe, err = asm.Assemble(text)
	} else {
		exe, _, err = cc.Build(text)
	}
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// goldenReports splits testdata/reports.golden into its sections, keyed by
// their "== name workers=N certify=B" header.
func goldenReports(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "reports.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, sec := range strings.Split(string(data), "== ")[1:] {
		head, body, _ := strings.Cut(sec, "\n")
		out[head] = body
	}
	return out
}

// lpWork is the solver work of one estimate.
type lpWork struct {
	LPSolves, Pivots, WarmSolves, ColdSolves, ExactResolves, CacheHits int
}

func workOf(e *ipet.Estimate) lpWork {
	return lpWork{e.LPSolves, e.Stats.Pivots, e.Stats.WarmSolves, e.Stats.ColdSolves,
		e.Stats.ExactResolves, e.Stats.CacheHits}
}

func estimateOn(t *testing.T, prog *cfg.Program, root string, opts ipet.Options, file *constraint.File) (*ipet.Session, *ipet.Estimate) {
	t.Helper()
	sess, err := ipet.Prepare(prog, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	est, err := sess.Estimate(file)
	if err != nil {
		t.Fatal(err)
	}
	return sess, est
}

// TestOutcomeStoreSharedAcrossSessions: a session prepared from a program
// plus an unreachable function, against the cache an earlier session of
// the program filled, solves nothing on its first estimate — exactly the
// LP work of a repeat of the same text on the earlier session — and
// reports the golden BoundReports, counts included, for every Table I
// program and explosion64 at workers {1, 4}, certified or not.
func TestOutcomeStoreSharedAcrossSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("estimates every Table I program, certified included")
	}
	golden := goldenReports(t)
	for i, p := range editablePrograms(t) {
		file, err := constraint.Parse(p.annots)
		if err != nil {
			t.Fatal(err)
		}
		edited := buildText(t, p.withUnreachable(i), p.asm)
		for _, certify := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				head := fmt.Sprintf("%s workers=%d certify=%v", p.name, workers, certify)
				opts := ipet.DefaultOptions()
				opts.Workers = workers
				opts.Certify = certify
				opts.Artifacts = prepcache.New()
				a, _ := estimateOn(t, p.prog, p.root, opts, file)
				repeat, err := a.Estimate(file)
				if err != nil {
					t.Fatal(err)
				}
				_, b := estimateOn(t, edited, p.root, opts, file)
				if got, want := workOf(b), workOf(repeat); got != want || got.Pivots != 0 || got.LPSolves != 0 {
					t.Errorf("%s: edited session's first estimate did %+v, the repeat on the first session %+v; want equal and no LP work",
						head, got, want)
				}
				want, ok := golden[head]
				if !ok {
					t.Fatalf("%s: no golden section", head)
				}
				if got := renderReports(b); got != want {
					t.Errorf("%s: edited session reports\n%s\ngolden\n%s", head, got, want)
				}
			}
		}
	}
}

// TestOutcomeStoreObjectiveChangeNoHit: sessions whose LPs differ only in
// the objective share no outcome — a different timing profile, or an edit
// that changes the cost of a reachable block — and report what a one-shot
// analyzer of their own program reports.
func TestOutcomeStoreObjectiveChangeNoHit(t *testing.T) {
	checkData, _ := ByName("check_data")
	costEdit := strings.Replace(checkData.Source, "wrongone = i;", "wrongone = i * 3;", 1)
	if costEdit == checkData.Source {
		t.Fatal("check_data cost edit found nothing to replace")
	}
	for _, p := range editablePrograms(t) {
		if p.name != "check_data" && p.name != "dhry" && p.name != "explosion64" {
			continue
		}
		file, err := constraint.Parse(p.annots)
		if err != nil {
			t.Fatal(err)
		}
		opts := ipet.DefaultOptions()
		opts.Workers = 1
		opts.Artifacts = prepcache.New()
		estimateOn(t, p.prog, p.root, opts, file)

		type variant struct {
			name string
			prog *cfg.Program
			opts ipet.Options
		}
		dsp := opts
		dsp.March.Timing = isa.Profiles()["dsp3210"]
		variants := []variant{{"dsp3210 profile", p.prog, dsp}}
		if p.name == "check_data" {
			variants = append(variants, variant{"reachable cost edit", buildText(t, costEdit, false), opts})
		}
		for _, v := range variants {
			before := opts.Artifacts.Outcomes().Stats().Hits
			_, got := estimateOn(t, v.prog, p.root, v.opts, file)
			if hits := opts.Artifacts.Outcomes().Stats().Hits - before; got.Stats.CacheHits != 0 || hits != 0 {
				t.Errorf("%s, %s: %d cache hits, %d store hits; want none", p.name, v.name, got.Stats.CacheHits, hits)
			}
			an, err := ipet.New(v.prog, p.root, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := an.Apply(file); err != nil {
				t.Fatal(err)
			}
			want, err := an.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			if renderReports(got) != renderReports(want) {
				t.Errorf("%s, %s: session reports\n%s\none-shot\n%s", p.name, v.name, renderReports(got), renderReports(want))
			}
		}
	}
}

// TestOutcomeStoreCertifiedOnly: a certifying session accepts no outcome an
// uncertified session of the same ILP stored, and reports certified golden
// bounds; the certified outcomes it stores then serve both kinds of
// session.
func TestOutcomeStoreCertifiedOnly(t *testing.T) {
	golden := goldenReports(t)
	for _, p := range editablePrograms(t) {
		if p.name != "check_data" && p.name != "explosion64" {
			continue
		}
		file, err := constraint.Parse(p.annots)
		if err != nil {
			t.Fatal(err)
		}
		plain := ipet.DefaultOptions()
		plain.Workers = 1
		plain.Artifacts = prepcache.New()
		cert := plain
		cert.Certify = true
		estimateOn(t, p.prog, p.root, plain, file)
		for round, c := range []struct {
			opts     ipet.Options
			wantHits bool
		}{{cert, false}, {cert, true}, {plain, true}} {
			_, got := estimateOn(t, p.prog, p.root, c.opts, file)
			if (got.Stats.CacheHits > 0) != c.wantHits {
				t.Errorf("%s round %d (certify=%v): %d cache hits, want hits %v",
					p.name, round, c.opts.Certify, got.Stats.CacheHits, c.wantHits)
			}
			head := fmt.Sprintf("%s workers=1 certify=%v", p.name, c.opts.Certify)
			if s := renderReports(got); s != golden[head] {
				t.Errorf("%s round %d: reports\n%s\ngolden\n%s", head, round, s, golden[head])
			}
		}
	}
}

// TestOutcomeStoreConcurrentEdits: four edited copies of a program,
// prepared and estimated concurrently against one store, all report the
// golden bounds. Run it under -race.
func TestOutcomeStoreConcurrentEdits(t *testing.T) {
	golden := goldenReports(t)
	for _, p := range editablePrograms(t) {
		if p.name != "dhry" && p.name != "explosion64" {
			continue
		}
		file, err := constraint.Parse(p.annots)
		if err != nil {
			t.Fatal(err)
		}
		opts := ipet.DefaultOptions()
		opts.Workers = 2
		opts.Artifacts = prepcache.New()
		want := golden[fmt.Sprintf("%s workers=1 certify=false", p.name)]
		progs := make([]*cfg.Program, 4)
		for i := range progs {
			progs[i] = buildText(t, p.withUnreachable(i), p.asm)
		}
		var wg sync.WaitGroup
		errs := make(chan string, len(progs))
		for _, prog := range progs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sess, err := ipet.Prepare(prog, p.root, opts)
				if err != nil {
					errs <- err.Error()
					return
				}
				for round := 0; round < 2; round++ {
					est, err := sess.Estimate(file)
					if err != nil {
						errs <- err.Error()
						return
					}
					if got := renderReports(est); got != want {
						errs <- fmt.Sprintf("round %d reports\n%s\ngolden\n%s", round, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Errorf("%s: %s", p.name, e)
		}
	}
}

// TestPrepcacheBoundedUnderEditStream replays 3,000 requests of the
// edit-and-resubmit loop — a fresh unreachable-function edit of a Table I
// program, alternating with a resubmit of one of the 12 most recent edits
// — through Executable, BuildProgram and Prepare against one cache. The
// live heap must stay flat once the cache is full, resubmits must keep
// hitting the executable tier, and the cache's accounted bytes (artifacts
// plus outcomes) must stay within 2x of the heap it holds.
func TestPrepcacheBoundedUnderEditStream(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 1,500 edited programs")
	}
	pc := prepcache.New()
	opts := ipet.DefaultOptions()
	opts.Workers = 1
	opts.Artifacts = pc
	programs := All()
	var recent []string
	roots := map[string]string{}
	exeHits := 0
	request := func(i int) {
		var src string
		if i%2 == 1 && len(recent) > 0 {
			src = recent[(i*7)%len(recent)]
		} else {
			bm := programs[(i/2)%len(programs)]
			src = fmt.Sprintf("%s\nint edit_%d(int a) {\n    return a * %d + %d;\n}\n", bm.Source, i, 2+i%97, i%1000)
			roots[src] = bm.Root
			if len(recent) == 12 {
				delete(roots, recent[0])
				recent = recent[1:]
			}
			recent = append(recent, src)
		}
		exe, hit, err := pc.Executable("cc", src, func() (*asm.Executable, error) {
			exe, _, err := cc.Build(src)
			return exe, err
		})
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			exeHits++
		}
		prog, err := pc.BuildProgram(exe)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ipet.Prepare(prog, roots[src], opts); err != nil {
			t.Fatal(err)
		}
	}
	const n = 3000
	start := heapInUse()
	var mid int64
	for i := 0; i < n; i++ {
		if i == n/2 {
			mid = heapInUse()
		}
		request(i)
	}
	end := heapInUse()
	st := pc.Snapshot()
	accounted := st.Bytes + pc.Outcomes().Stats().Bytes
	held := end - start
	t.Logf("heap: start %d, at %d requests %d, at %d requests %d; accounted %d bytes (%d artifacts, %d evicted); %d/%d executable hits",
		start, n/2, mid, n, end, accounted, st.Entries, st.Evictions, exeHits, n)
	if st.Evictions == 0 {
		t.Errorf("the stream never filled the cache; the test lost its teeth")
	}
	if grow := end - mid; grow > held/4 {
		t.Errorf("heap grew %d bytes over the second %d requests (cache holds %d): not flat", grow, n/2, held)
	}
	if accounted > 2*held || held > 2*accounted {
		t.Errorf("accounted %d bytes vs %d bytes of heap held, want within 2x", accounted, held)
	}
	if exeHits < n*2/5 {
		t.Errorf("%d of %d requests hit the executable tier, want about half", exeHits, n)
	}
}
