package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strings"
	"time"

	"cinderella/internal/bench"
	"cinderella/internal/serve"
)

// program is one analyzed program of a workload: the spec cinderelld
// prepares, its base annotation text, and the places in that text the
// variant generator may loosen.
type program struct {
	name   string
	spec   serve.ProgramSpec
	annots string
	// loopHi holds the byte ranges of every loop bound's upper end.
	loopHi [][2]int
	// facts holds the byte offsets of every path-fact "=" relation.
	facts []int
}

// request is one generated request of a stream. Scenario requests name a
// pre-submitted program by index (the client sends its hash); edit
// requests carry their source inline.
type request struct {
	prog   int
	annots string
	source string
}

// stream yields a workload's request sequence, a pure function of the
// seed it was made with.
type stream interface {
	next() request
}

// workload is one traffic mix run against a fresh cinderelld.
type workload struct {
	programs  []*program
	newStream func(w *workload, seed int64) stream
	// maxSessions, when set, runs the server with one store shard (exact
	// LRU) holding at most this many sessions.
	maxSessions int
	// answerWithin is how long a request may take before the server is
	// taken to be stuck: far above the slowest healthy answer.
	answerWithin time.Duration
	// rssAfter is the number of stream requests after which the server's
	// peak RSS is read: memory for a fixed amount of work, so that a
	// faster server, which gets further through the stream and grows its
	// caches further, does not read as a bigger one.
	rssAfter int
}

const (
	// recentTexts is the per-program pool of annotation texts a scenario
	// repeat draws from.
	recentTexts = 8
	// recentEdits is the pool of edited sources an edit resubmit draws
	// from; editSessions, the server's resident-session cap, is below it
	// so a resubmitted edit has always been evicted.
	recentEdits  = 12
	editSessions = 4
)

// certifyExcluded are the Table I programs whose first certified estimate
// takes a third of a second or more, which would leave too few samples in
// a certified run.
var certifyExcluded = map[string]bool{"dhry": true, "jpeg_idct_islow": true, "fullsearch": true}

// variantExcluded are the Table I programs the annotation-variant
// workloads leave out: some raised loop bounds of whetstone make a plain
// solve run for minutes (README.md, "Known defects"), and a request that
// does not finish cannot be timed.
var variantExcluded = map[string]bool{"whetstone": true}

// plainExcluded are the further Table I programs the scenarios workload
// leaves out: some raised loop bounds of fullsearch and des make a plain
// (uncertified) analysis fail with a wrong "infeasible", and fullsearch
// can also make it run for minutes (README.md, "Known defects").
// scenarios_full keeps every program, so these defects stay in view.
var plainExcluded = map[string]bool{"fullsearch": true, "des": true}

func workloads() map[string]*workload {
	var full, scen, cert, edit []*program
	for _, b := range bench.All() {
		sp := serve.ProgramSpec{Source: b.Source, Root: b.Root}
		edit = append(edit, newProgram(b.Name, sp, b.Annotations))
		full = append(full, newProgram(b.Name, sp, b.Annotations))
		if variantExcluded[b.Name] {
			continue
		}
		if !plainExcluded[b.Name] {
			scen = append(scen, newProgram(b.Name, sp, b.Annotations))
		}
		if !certifyExcluded[b.Name] {
			sp.Certify = true
			cert = append(cert, newProgram(b.Name, sp, b.Annotations))
		}
	}
	asmText, annots := bench.ExplosionAsm(6)
	explosion := serve.ProgramSpec{Asm: asmText, Root: "main"}
	scen = append(scen, newProgram("explosion64", explosion, annots))
	full = append(full, newProgram("explosion64", explosion, annots))
	return map[string]*workload{
		"scenarios": {programs: scen, newStream: newScenarioStream,
			answerWithin: 250 * time.Millisecond, rssAfter: 4000},
		"scenarios_full": {programs: full, newStream: newScenarioStream,
			answerWithin: 250 * time.Millisecond, rssAfter: 4000},
		"certified": {programs: cert, newStream: newScenarioStream,
			answerWithin: 5 * time.Second, rssAfter: 500},
		"edits": {programs: edit, newStream: newEditStream,
			answerWithin: 250 * time.Millisecond, rssAfter: 1000, maxSessions: editSessions},
	}
}

var loopRe = regexp.MustCompile(`^\s*loop\s+\d+\s*:\s*\d+\s*\.\.\s*(\d+)`)

func newProgram(name string, spec serve.ProgramSpec, annots string) *program {
	p := &program{name: name, spec: spec, annots: annots}
	off := 0
	for _, line := range strings.SplitAfter(annots, "\n") {
		code := line
		if i := strings.IndexByte(code, ';'); i >= 0 {
			code = code[:i]
		}
		trim := strings.TrimSpace(code)
		switch {
		case strings.HasPrefix(trim, "loop"):
			if m := loopRe.FindStringSubmatchIndex(code); m != nil {
				p.loopHi = append(p.loopHi, [2]int{off + m[2], off + m[3]})
			}
		case trim == "", trim == "}", strings.HasPrefix(trim, "func"):
		default:
			for i := 0; i < len(code); i++ {
				if code[i] != '=' || (i > 0 && strings.IndexByte("<>!=", code[i-1]) >= 0) ||
					(i+1 < len(code) && code[i+1] == '=') {
					continue
				}
				p.facts = append(p.facts, off+i)
			}
		}
		off += len(line)
	}
	return p
}

// variant draws a loosened copy of the base annotations: the upper ends
// of one or two loop bounds raised by 1 to 64 when raise is set (and the
// program has loops), otherwise one to three path facts relaxed from "="
// to "<=". Both only enlarge the feasible region, so every variant of a
// feasible program stays feasible.
func (p *program) variant(rng *rand.Rand, raise bool) string {
	type edit struct {
		at, end int
		text    string
	}
	var edits []edit
	if len(p.loopHi) > 0 && (raise || len(p.facts) == 0) {
		for _, i := range rng.Perm(len(p.loopHi))[:1+rng.Intn(min(2, len(p.loopHi)))] {
			r := p.loopHi[i]
			var hi int
			fmt.Sscan(p.annots[r[0]:r[1]], &hi)
			edits = append(edits, edit{r[0], r[1], fmt.Sprint(hi + 1 + rng.Intn(64))})
		}
	} else {
		for _, i := range rng.Perm(len(p.facts))[:1+rng.Intn(min(3, len(p.facts)))] {
			edits = append(edits, edit{p.facts[i], p.facts[i] + 1, "<="})
		}
	}
	sort.Slice(edits, func(i, j int) bool { return edits[i].at > edits[j].at })
	text := p.annots
	for _, e := range edits {
		text = text[:e.at] + e.text + text[e.end:]
	}
	return text
}

// rounds deals program indices in shuffled rounds: every program comes up
// once per round, so a run's program mix varies less from seed to seed
// than independent uniform draws would.
type rounds struct {
	rng  *rand.Rand
	n    int
	left []int
}

func (r *rounds) next() int {
	if len(r.left) == 0 {
		r.left = r.rng.Perm(r.n)
	}
	p := r.left[0]
	r.left = r.left[1:]
	return p
}

// scenarioStream is the paper's interactive loop on warm sessions. Each
// request draws a program (in shuffled rounds); visits to a program
// alternate between a fresh variant and a repeat of one of its recent
// annotation texts, and fresh variants alternate between raising loop
// bounds and relaxing path facts.
type scenarioStream struct {
	w      *workload
	rng    *rand.Rand
	progs  rounds
	recent [][]string
	visits []int
}

func newScenarioStream(w *workload, seed int64) stream {
	rng := rand.New(rand.NewSource(seed))
	n := len(w.programs)
	return &scenarioStream{w: w, rng: rng, progs: rounds{rng: rng, n: n},
		recent: make([][]string, n), visits: make([]int, n)}
}

func (s *scenarioStream) next() request {
	p := s.progs.next()
	v := s.visits[p]
	s.visits[p]++
	pool := s.recent[p]
	if v%2 == 1 {
		return request{prog: p, annots: pool[s.rng.Intn(len(pool))]}
	}
	text := s.w.programs[p].variant(s.rng, v%4 == 0)
	for _, t := range pool {
		if t == text {
			return request{prog: p, annots: text}
		}
	}
	if len(pool) == recentTexts {
		pool = pool[1:]
	}
	s.recent[p] = append(pool, text)
	return request{prog: p, annots: text}
}

// lru mirrors the server's store order: keys most recent first, at most
// cap of them (0 means no cap).
type lru struct {
	keys []string
	cap  int
}

// touch moves key to the front and returns the keys that fall out.
func (l *lru) touch(key string) []string {
	if i := slices.Index(l.keys, key); i >= 0 {
		l.keys = slices.Delete(l.keys, i, i+1)
	}
	l.keys = slices.Insert(l.keys, 0, key)
	if l.cap == 0 || len(l.keys) <= l.cap {
		return nil
	}
	out := slices.Clone(l.keys[l.cap:])
	l.keys = l.keys[:l.cap]
	return out
}

// editStream is the edit-and-resubmit loop. Requests alternate between a
// fresh edit, which appends an unreachable function to a program drawn in
// shuffled rounds, and a resubmit of a recent edit the server has already
// evicted. The stream mirrors the server's exact LRU (one shard,
// maxSessions resident) to know which recent edits are evicted.
type editStream struct {
	w      *workload
	rng    *rand.Rand
	progs  rounds
	recent []request
	// resident holds the sources the server holds.
	resident lru
	n        int
}

func newEditStream(w *workload, seed int64) stream {
	rng := rand.New(rand.NewSource(seed))
	s := &editStream{w: w, rng: rng, progs: rounds{rng: rng, n: len(w.programs)}, resident: lru{cap: w.maxSessions}}
	// The pre-submitted base programs are the store's first occupants.
	for _, p := range w.programs {
		s.resident.touch(p.spec.Source)
	}
	return s
}

func (s *editStream) next() request {
	s.n++
	if s.n%2 == 0 {
		var evicted []request
		for _, r := range s.recent {
			if !slices.Contains(s.resident.keys, r.source) {
				evicted = append(evicted, r)
			}
		}
		if len(evicted) > 0 {
			r := evicted[s.rng.Intn(len(evicted))]
			s.resident.touch(r.source)
			return r
		}
	}
	p := s.progs.next()
	prog := s.w.programs[p]
	src := fmt.Sprintf("%s\nint edit_%d(int a) {\n    return a * %d + %d;\n}\n",
		prog.spec.Source, s.n, 2+s.rng.Intn(97), s.rng.Intn(1000))
	r := request{prog: p, annots: prog.annots, source: src}
	if len(s.recent) == recentEdits {
		s.recent = s.recent[1:]
	}
	s.recent = append(s.recent, r)
	s.resident.touch(src)
	return r
}
