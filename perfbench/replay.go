package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"cinderella/internal/asm"
	"cinderella/internal/cc"
	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
	"cinderella/internal/isa"
	"cinderella/internal/prepcache"
	"cinderella/internal/serve"
)

// samples collects what the traced replay measures, one entry per call
// (times in microseconds) or summed over every estimate.
type samples struct {
	decode, encode, parse, analyzer, estimate []float64
	prepare, compile, buildProgram            []float64
	parseAllocs, estimateAllocs               []float64
	prepareAllocs, compileAllocs              []float64
	unattributed                              []float64
	exeCalls, exeHits                         int
	stats                                     ipet.Stats
	rechecked                                 int
	sessionBytes                              []float64
	artifacts                                 prepcache.Stats
	selfByLayer                               map[string]time.Duration
	requests                                  int
}

// replayer drives the layers' public functions in the order cinderelld
// calls them for one /v1/estimate, re-preparing exactly where the served
// run reported a cold start.
type replayer struct {
	tr       *tracer
	cache    *prepcache.Cache
	sessions map[string]*ipet.Session
	// order is the sessions' LRU order, capped like the server's store.
	order lru
	s     samples
}

func sessionKey(sp serve.ProgramSpec) string {
	return fmt.Sprintf("%t|%s|%s", sp.Certify, sp.Root, sp.Source+sp.Asm)
}

// replay runs every exchange of the served run through the layers and
// returns the measured samples.
func replay(tr *tracer, exs []*exchange, sessionCap int) (*samples, error) {
	r := &replayer{tr: tr}
	for i, ex := range exs {
		if i == 0 || ex.instance != exs[i-1].instance {
			// A fresh cinderelld process starts with empty caches.
			r.cache, r.sessions, r.order = prepcache.New(), map[string]*ipet.Session{}, lru{cap: sessionCap}
		}
		tr.req = i
		if err := r.one(ex); err != nil {
			return nil, fmt.Errorf("replay request %d: %w", i, err)
		}
	}
	r.s.requests = len(exs)
	r.s.artifacts = r.cache.Snapshot()
	for _, sess := range r.sessions {
		r.s.sessionBytes = append(r.s.sessionBytes, float64(sess.MemoryFootprint()))
	}
	r.s.selfByLayer = map[string]time.Duration{}
	for i, self := range selfTimes(tr.spans) {
		r.s.selfByLayer[layerOf(tr.spans[i].Name)] += self
	}
	return &r.s, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// one replays a single exchange. It fails only where the replay and the
// served run disagree: an analysis error where cinderelld answered, an
// answer where cinderelld failed, or different bounds. A request the
// server never answered is decoded and no more.
func (r *replayer) one(ex *exchange) error {
	tr := r.tr
	root := tr.begin("request")
	defer tr.end(root)

	id := tr.begin("serve.decode")
	var req serve.EstimateRequest
	err := json.Unmarshal(ex.body, &req)
	r.s.decode = append(r.s.decode, us(tr.end(id)))
	if err != nil || ex.wedged {
		// The served run never finished a wedged request; neither does
		// the replay.
		return err
	}
	key := sessionKey(ex.spec)
	sess := r.sessions[key]
	if ex.ans.ColdStart || sess == nil {
		if sess, err = r.prepare(ex.spec); err != nil {
			return err
		}
		r.sessions[key] = sess
	}
	for _, k := range r.order.touch(key) {
		delete(r.sessions, k)
	}

	est, err := r.analyze(sess, req.Annotations)
	switch {
	case err != nil && ex.status == 200:
		return err
	case err != nil:
		return nil
	case ex.status != 200:
		return fmt.Errorf("%s: replay answered, cinderelld said HTTP %d", ex.spec.Root, ex.status)
	case est.WCET.Cycles != ex.ans.WCET.Cycles || est.BCET.Cycles != ex.ans.BCET.Cycles:
		return fmt.Errorf("%s: replay answered [%d, %d], cinderelld [%d, %d]", ex.spec.Root,
			est.BCET.Cycles, est.WCET.Cycles, ex.ans.BCET.Cycles, ex.ans.WCET.Cycles)
	}
	r.addStats(est)

	id = tr.begin("serve.encode")
	_, err = json.Marshal(serve.EstimateResponse{
		Program: ex.ans.Program, WCET: est.WCET, BCET: est.BCET,
		NumSets: est.NumSets, PrunedSets: est.PrunedSets, SolvedSets: est.SolvedSets,
		AllRootIntegral: est.AllRootIntegral, Exact: est.WCET.Exact && est.BCET.Exact,
		Degraded: !(est.WCET.Exact && est.BCET.Exact), Admission: "ok", AnsweredBy: "solver",
		ColdStart: ex.ans.ColdStart, PrepareMicros: ex.ans.PrepareMicros, ElapsedMicros: ex.ans.ElapsedMicros,
	})
	r.s.encode = append(r.s.encode, us(tr.end(id)))
	r.s.unattributed = append(r.s.unattributed, float64(ex.ans.ElapsedMicros)-us(r.covered(root)))
	return err
}

// analyze parses the annotations, binds them to the session, and
// estimates: the per-request path of a warm /v1/estimate.
func (r *replayer) analyze(sess *ipet.Session, annots string) (*ipet.Estimate, error) {
	tr := r.tr
	m0 := tr.mallocs()
	id := tr.begin("constraint.parse")
	file, err := constraint.ParseNamed("annotations", annots)
	r.s.parse = append(r.s.parse, us(tr.end(id)))
	r.s.parseAllocs = append(r.s.parseAllocs, float64(tr.mallocs()-m0))
	if err != nil {
		return nil, err
	}

	id = tr.begin("ipet.analyzer")
	an, err := sess.Analyzer(file)
	var missing []string
	if err == nil {
		missing = an.MissingLoopBounds()
	}
	r.s.analyzer = append(r.s.analyzer, us(tr.end(id)))
	if err != nil {
		return nil, err
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("loops without bound annotations: %s", strings.Join(missing, "; "))
	}

	m0 = tr.mallocs()
	id = tr.begin("ipet.estimate")
	est, err := an.EstimateContext(context.Background())
	r.s.estimate = append(r.s.estimate, us(tr.end(id)))
	r.s.estimateAllocs = append(r.s.estimateAllocs, float64(tr.mallocs()-m0))
	return est, err
}

// covered sums the layer time of the request under root that the served
// elapsed_us also covers: everything but the encode (elapsed_us stops
// before it) and the memstats reads (the replay's own cost).
func (r *replayer) covered(root int) time.Duration {
	var sum time.Duration
	for _, sp := range r.tr.spans[root+1:] {
		d := time.Duration(sp.End - sp.Start)
		switch {
		case sp.Parent == root && sp.Name != "serve.encode" && sp.Name != "trace.memstats":
			sum += d
		case sp.Parent != root && sp.Name == "trace.memstats":
			sum -= d
		}
	}
	return sum
}

// prepare mirrors cinderelld's cold path: the executable artifact (compile
// on a miss), the content-addressed CFG build, then ipet.Prepare.
func (r *replayer) prepare(sp serve.ProgramSpec) (*ipet.Session, error) {
	tr := r.tr
	mode, text, build := "cc", sp.Source, func() (*asm.Executable, error) {
		m0 := tr.mallocs()
		id := tr.begin("cc.build")
		exe, _, err := cc.Build(sp.Source)
		r.s.compile = append(r.s.compile, us(tr.end(id)))
		r.s.compileAllocs = append(r.s.compileAllocs, float64(tr.mallocs()-m0))
		return exe, err
	}
	if sp.Asm != "" {
		mode, text, build = "asm", sp.Asm, func() (*asm.Executable, error) {
			id := tr.begin("asm.assemble")
			defer tr.end(id)
			return asm.Assemble(sp.Asm)
		}
	}
	id := tr.begin("prepcache.executable")
	exe, hit, err := r.cache.Executable(mode, text, build)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	r.s.exeCalls++
	if hit {
		r.s.exeHits++
	}

	id = tr.begin("prepcache.build_program")
	prog, err := r.cache.BuildProgram(exe)
	r.s.buildProgram = append(r.s.buildProgram, us(tr.end(id)))
	if err != nil {
		return nil, err
	}

	opts := ipet.DefaultOptions()
	opts.March.Timing = isa.Profiles()["i960kb"]
	opts.Certify = sp.Certify
	opts.Artifacts = r.cache
	m0 := tr.mallocs()
	id = tr.begin("ipet.prepare")
	sess, err := ipet.Prepare(prog, sp.Root, opts)
	r.s.prepare = append(r.s.prepare, us(tr.end(id)))
	r.s.prepareAllocs = append(r.s.prepareAllocs, float64(tr.mallocs()-m0))
	return sess, err
}

func (r *replayer) addStats(est *ipet.Estimate) {
	st, acc := est.Stats, &r.s.stats
	acc.SetsTotal += st.SetsTotal
	acc.Deduped += st.Deduped
	acc.IncumbentSkipped += st.IncumbentSkipped
	acc.Solved += st.Solved
	acc.SetsUnsolved += st.SetsUnsolved
	acc.CacheHits += st.CacheHits
	acc.Pivots += st.Pivots
	acc.WarmSolves += st.WarmSolves
	acc.ColdSolves += st.ColdSolves
	acc.NetworkSolves += st.NetworkSolves
	acc.RevisedPivots += st.RevisedPivots
	acc.Refactorizations += st.Refactorizations
	acc.ExactResolves += st.ExactResolves
	acc.CertFailures += st.CertFailures
	acc.BuildTime += st.BuildTime
	acc.SolveTime += st.SolveTime
	r.s.rechecked += est.WCET.RecheckedSets + est.BCET.RecheckedSets
}
