// Command perfbench is cinderella's served-path benchmark. It starts the
// cinderelld binary it is given as a child process on loopback, drives it
// from one closed-loop client with a seeded request stream, checks every
// answer against the library one-shot reference, and prints the metrics as
// one JSON object on the last line of standard output. With -trace 1 it
// then replays the same request stream in process against each layer's
// public functions and reports per-layer metrics instead.
//
//	bash perfbench/run.sh --workload scenarios --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cinderella/internal/serve"
)

// exchange is one request the client sent and what came back.
type exchange struct {
	spec    serve.ProgramSpec
	annots  string
	body    []byte
	latency time.Duration
	status  int
	raw     []byte // the answer body of a non-200 response
	err     error
	ans     answer
	// timed marks a request of the stream, as opposed to a pre-submit.
	timed bool
	// wedged marks a request that got no answer: the server was killed
	// and set up again.
	wedged bool
	// instance numbers the cinderelld process that served the request.
	instance int
}

// answer is the part of an estimate response the benchmark checks and
// measures.
type answer struct {
	Program       string `json:"program"`
	WCET          bound  `json:"wcet"`
	BCET          bound  `json:"bcet"`
	ColdStart     bool   `json:"cold_start"`
	PrepareMicros int64  `json:"prepare_us"`
	ElapsedMicros int64  `json:"elapsed_us"`
}

// bound is the checked part of an ipet.BoundReport.
type bound struct {
	Cycles    int64
	Exact     bool
	Certified bool
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string
	traceOut string
}

// setups is how many times a run sets the server up; setup_s is their
// median.
const setups = 9

func main() {
	var (
		c     config
		trace int
	)
	flag.StringVar(&c.workload, "workload", "", "workload: scenarios, edits, certified or scenarios_full")
	flag.Int64Var(&c.seed, "seed", 1, "request stream seed")
	flag.Float64Var(&c.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 replays the stream per layer and reports per-layer metrics")
	flag.StringVar(&c.bin, "cinderelld", "", "cinderelld binary under test")
	flag.StringVar(&c.traceOut, "trace-out", "", "file the traced run writes its spans to (default: none)")
	flag.Parse()
	c.trace = trace == 1
	if c.bin == "" || c.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -cinderelld and -seconds > 0")
		os.Exit(2)
	}
	res, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// served is the ledger of one served run.
type served struct {
	setups []float64
	// exchanges lists every request in order: the last set-up's
	// pre-submits, then the stream with the pre-submits of any restart.
	exchanges   []*exchange
	window      time.Duration
	cpu         time.Duration
	peakRSS     int64
	rssRead     bool
	evictions   int64
	storeBytes  int64
	restarts    int
	repeatRatio float64
}

func (sv *served) timed() []*exchange {
	var out []*exchange
	for _, ex := range sv.exchanges {
		if ex.timed {
			out = append(out, ex)
		}
	}
	return out
}

func run(c config) (*result, error) {
	w, ok := workloads()[c.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want scenarios, edits, certified or scenarios_full)", c.workload)
	}
	sv, err := serveRun(c, w)
	if err != nil {
		return nil, err
	}

	// Check every answer, pre-submits included, against the library
	// reference. The references are computed after the timed window, for
	// exactly the pairs the run got answers for, so they neither bound the
	// stream nor compete with the server for CPU.
	all, timed := sv.exchanges, sv.timed()
	specs := map[refKey]serve.ProgramSpec{}
	for _, ex := range all {
		if !ex.wedged {
			specs[keyOf(ex.spec, ex.annots)] = ex.spec
		}
	}
	t0 := time.Now()
	refs, err := references(specs)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d references in %s\n", len(refs), time.Since(t0).Round(time.Millisecond))
	res := &result{Correct: true, Attempted: len(timed), Metrics: map[string]metric{}}
	wrong := 0
	for _, ex := range all {
		why := check(ex, refs[keyOf(ex.spec, ex.annots)])
		if why == "" {
			continue
		}
		res.Correct = false
		if ex.timed {
			res.Failed++
		}
		if wrong++; wrong <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: failed %s request under annotations %q: %s\n", ex.spec.Root, ex.annots, why)
		}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no request sent within %gs", c.seconds)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d requests in %s, %d restarts, repeat ratio %.3f, set-ups %v s\n",
		len(timed), sv.window.Round(time.Millisecond), sv.restarts, sv.repeatRatio, sv.setups)
	slow := append([]*exchange(nil), timed...)
	sort.Slice(slow, func(i, j int) bool { return slow[i].latency > slow[j].latency })
	for _, ex := range slow[:min(3, len(slow))] {
		fmt.Fprintf(os.Stderr, "perfbench: slow: %s %s under %q\n", ex.spec.Root, ex.latency.Round(time.Microsecond), ex.annots)
	}

	if !c.trace {
		endToEnd(res, sv, timed)
		return res, nil
	}
	servedLayers(res, sv, timed)
	tr := newTracer()
	t0 = time.Now()
	s, err := replay(tr, all, w.maxSessions)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: replayed %d requests in %s\n", len(all), time.Since(t0).Round(time.Millisecond))
	replayLayers(res, s)
	if c.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(c.traceOut), 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(c.traceOut); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return res, nil
}

// check returns why a served answer is wrong, or "" when it is right:
// HTTP 200, both bounds exact and equal to the library reference, and
// certified when the program asked for certification. An answer whose
// reference is a library error cannot be verified and counts as wrong.
func check(ex *exchange, ref reference) string {
	a := &ex.ans
	switch {
	case ex.wedged:
		return "no answer: " + ex.err.Error()
	case ex.err != nil:
		return ex.err.Error()
	case ex.status != 200:
		return fmt.Sprintf("HTTP %d: %s", ex.status, bytes.TrimSpace(ex.raw))
	case ref.err != nil:
		return "no library reference: " + ref.err.Error()
	case !a.WCET.Exact || !a.BCET.Exact:
		return "answer is not exact"
	case a.WCET.Cycles != ref.wcet || a.BCET.Cycles != ref.bcet:
		return fmt.Sprintf("answered [%d, %d], reference [%d, %d]", a.BCET.Cycles, a.WCET.Cycles, ref.bcet, ref.wcet)
	case ex.spec.Certify && !(a.WCET.Certified && a.BCET.Certified):
		return "answer is not certified"
	}
	return ""
}

// instance is one cinderelld process of a run: the program hashes its
// pre-submits returned, and its counters when it entered the window.
type instance struct {
	d      *daemon
	n      int
	hashes []string
	cpu0   time.Duration
	evict0 int64
}

// presubmit starts cinderelld and makes every program of the workload
// resident.
func presubmit(c config, w *workload, n int) (*instance, []*exchange, error) {
	var args []string
	if w.maxSessions > 0 {
		args = []string{"-shards", "1", "-max-sessions", fmt.Sprint(w.maxSessions)}
	}
	d, err := startDaemon(c.bin, args, w.answerWithin)
	if err != nil {
		return nil, nil, err
	}
	in := &instance{d: d, n: n, hashes: make([]string, len(w.programs))}
	var exs []*exchange
	for p, prog := range w.programs {
		ex := send(d, serve.EstimateRequest{ProgramSpec: prog.spec, Annotations: prog.annots}, prog.spec, prog.annots)
		ex.instance = n
		if ex.err != nil || ex.status != 200 {
			d.kill()
			return nil, nil, fmt.Errorf("pre-submit %s: HTTP %d %v %s", prog.name, ex.status, ex.err, ex.raw)
		}
		in.hashes[p] = ex.ans.Program
		exs = append(exs, ex)
	}
	return in, exs, nil
}

// serveRun sets the server up setups times, keeps the last instance,
// and drives it with the workload's stream for the timed window.
func serveRun(c config, w *workload) (*served, error) {
	sv := &served{}
	var in *instance
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		if in, sv.exchanges, err = presubmit(c, w, 0); err != nil {
			return nil, err
		}
		sv.setups = append(sv.setups, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := in.d.stop(); err != nil {
				return nil, fmt.Errorf("stop cinderelld after set-up: %w", err)
			}
		}
	}
	return sv, sv.drive(c, w, in)
}

// drive sends the stream for the timed window. A request that gets no
// answer within the workload's limit is counted as failed, and the server
// is killed and set up again inside the window: a solve that ignores
// cancellation would otherwise keep a core busy for the rest of the run.
func (sv *served) drive(c config, w *workload, in *instance) error {
	if err := in.enter(); err != nil {
		in.d.kill()
		return err
	}
	st := w.newStream(w, c.seed)
	seen := map[refKey]bool{}
	for _, ex := range sv.exchanges {
		seen[keyOf(ex.spec, ex.annots)] = true
	}
	repeats, n := 0, 0
	start := time.Now()
	deadline := start.Add(time.Duration(c.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		r := st.next()
		prog := w.programs[r.prog]
		req := serve.EstimateRequest{Program: in.hashes[r.prog], Annotations: r.annots}
		spec := prog.spec
		if r.source != "" {
			spec.Source = r.source
			req = serve.EstimateRequest{ProgramSpec: spec, Annotations: r.annots}
		}
		ex := send(in.d, req, spec, r.annots)
		ex.timed, ex.instance = true, in.n
		sv.exchanges = append(sv.exchanges, ex)
		if n++; n == w.rssAfter {
			if err := sv.readRSS(in); err != nil {
				in.d.kill()
				return err
			}
			sv.rssRead = true
		}
		k := keyOf(spec, r.annots)
		if seen[k] {
			repeats++
		}
		seen[k] = true
		if !ex.wedged {
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: no answer within %s for %s under %q (%v); restarting cinderelld\n",
			w.answerWithin, prog.name, r.annots, ex.err)
		if err := sv.leave(in, true); err != nil {
			return err
		}
		sv.restarts++
		var pre []*exchange
		var err error
		if in, pre, err = presubmit(c, w, sv.restarts); err != nil {
			return err
		}
		sv.exchanges = append(sv.exchanges, pre...)
	}
	sv.window = time.Since(start)
	sv.repeatRatio = float64(repeats) / float64(max(1, n))
	return sv.leave(in, false)
}

// enter records the counters of an instance that was set up before the
// window opened.
func (in *instance) enter() error {
	st, err := in.d.stats()
	if err != nil {
		return err
	}
	in.evict0 = st.Store.Evictions
	in.cpu0, err = in.d.cpuTime()
	return err
}

// readRSS takes the instance's peak RSS into the run's.
func (sv *served) readRSS(in *instance) error {
	rss, err := in.d.peakRSS()
	sv.peakRSS = max(sv.peakRSS, rss)
	return err
}

// leave adds an instance's share of the window to the ledger and stops
// it; a wedged instance is killed.
func (sv *served) leave(in *instance, wedged bool) error {
	cpu, err := in.d.cpuTime()
	if err != nil {
		in.d.kill()
		return err
	}
	sv.cpu += cpu - in.cpu0
	if !sv.rssRead {
		if err := sv.readRSS(in); err != nil {
			in.d.kill()
			return err
		}
	}
	if wedged {
		in.d.kill()
		return nil
	}
	st, err := in.d.stats()
	if err != nil {
		in.d.kill()
		return err
	}
	sv.evictions += st.Store.Evictions - in.evict0
	sv.storeBytes = st.Store.MemoryBytes
	if err := in.d.stop(); err != nil {
		return fmt.Errorf("stop cinderelld: %w", err)
	}
	return nil
}

// send posts one estimate and times it from the write of the request to
// the last byte of the answer.
func send(d *daemon, req serve.EstimateRequest, spec serve.ProgramSpec, annots string) *exchange {
	ex := &exchange{spec: spec, annots: annots}
	body, err := json.Marshal(req)
	if err != nil {
		ex.err = err
		return ex
	}
	ex.body = body
	t0 := time.Now()
	status, raw, err := d.post("/v1/estimate", body)
	ex.latency = time.Since(t0)
	ex.status, ex.err, ex.wedged = status, err, err != nil
	switch {
	case err == nil && status == 200:
		ex.err = json.Unmarshal(raw, &ex.ans)
	case err == nil:
		ex.raw = raw
	}
	return ex
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func endToEnd(res *result, sv *served, timed []*exchange) {
	var lat []float64
	for _, ex := range timed {
		if !ex.wedged {
			lat = append(lat, float64(ex.latency)/float64(time.Millisecond))
		}
	}
	n := float64(len(timed))
	m := res.Metrics
	m["latency_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	m["latency_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
	m["throughput_rps"] = metric{float64(len(lat)) / sv.window.Seconds(), "1/s"}
	m["cpu_ms_per_req"] = metric{float64(sv.cpu) / float64(time.Millisecond) / n, "ms"}
	m["peak_rss_mb"] = metric{float64(sv.peakRSS) / (1 << 20), "MiB"}
	m["correct_ratio"] = metric{(n - float64(res.Failed)) / n, "ratio"}
	m["setup_s"] = metric{quantile(sv.setups, 0.5), "s"}
}

// servedLayers reports the per-layer metrics the served run itself
// yields: server-reported times and /v1/stats deltas.
func servedLayers(res *result, sv *served, timed []*exchange) {
	var elapsed, overhead, prep []float64
	cold := 0
	for _, ex := range timed {
		if ex.err != nil || ex.status != 200 {
			continue
		}
		elapsed = append(elapsed, float64(ex.ans.ElapsedMicros))
		overhead = append(overhead, float64(ex.latency)/float64(time.Microsecond)-float64(ex.ans.ElapsedMicros))
		if ex.ans.ColdStart {
			cold++
		}
	}
	for _, ex := range sv.exchanges {
		if ex.ans.ColdStart && ex.ans.PrepareMicros > 0 {
			prep = append(prep, float64(ex.ans.PrepareMicros))
		}
	}
	n := float64(len(timed))
	m := res.Metrics
	m["client.requests"] = metric{n, "count"}
	m["client.repeat_ratio"] = metric{sv.repeatRatio, "ratio"}
	m["serve.elapsed_p50_us"] = metric{quantile(elapsed, 0.5), "us"}
	m["serve.elapsed_p90_us"] = metric{quantile(elapsed, 0.9), "us"}
	m["serve.overhead_p50_us"] = metric{quantile(overhead, 0.5), "us"}
	m["serve.prepare_p50_us"] = metric{quantile(prep, 0.5), "us"}
	m["serve.cold_ratio"] = metric{float64(cold) / n, "ratio"}
	m["serve.evictions_per_req"] = metric{float64(sv.evictions) / n, "count/req"}
	m["serve.store_mb"] = metric{float64(sv.storeBytes) / (1 << 20), "MiB"}
}

// replayLayers reports the per-layer metrics of the traced replay.
func replayLayers(res *result, s *samples) {
	m := res.Metrics
	est := float64(len(s.estimate))
	per := func(v int) float64 { return float64(v) / est }
	ratio := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	st := s.stats
	m["serve.decode_us"] = metric{quantile(s.decode, 0.5), "us"}
	m["serve.encode_us"] = metric{quantile(s.encode, 0.5), "us"}
	m["constraint.parse_us"] = metric{quantile(s.parse, 0.5), "us"}
	m["constraint.parse_allocs"] = metric{quantile(s.parseAllocs, 0.5), "allocs"}
	m["ipet.analyzer_us"] = metric{quantile(s.analyzer, 0.5), "us"}
	m["ipet.estimate_p50_us"] = metric{quantile(s.estimate, 0.5), "us"}
	m["ipet.estimate_p90_us"] = metric{quantile(s.estimate, 0.9), "us"}
	m["ipet.estimate_allocs"] = metric{quantile(s.estimateAllocs, 0.5), "allocs"}
	m["ipet.setup_us"] = metric{us(st.BuildTime) / est, "us"}
	m["ipet.solve_us"] = metric{us(st.SolveTime) / est, "us"}
	m["ipet.sets_total"] = metric{per(st.SetsTotal), "count/req"}
	m["ipet.sets_deduped"] = metric{per(st.Deduped), "count/req"}
	m["ipet.sets_incumbent_skipped"] = metric{per(st.IncumbentSkipped), "count/req"}
	m["ipet.cache_hit_ratio"] = metric{ratio(st.CacheHits, st.CacheHits+st.Solved+st.IncumbentSkipped+st.SetsUnsolved), "ratio"}
	m["ipet.prepare_us"] = metric{quantile(s.prepare, 0.5), "us"}
	m["ipet.prepare_allocs"] = metric{quantile(s.prepareAllocs, 0.5), "allocs"}
	var sessBytes float64
	for _, b := range s.sessionBytes {
		sessBytes += b
	}
	m["ipet.session_mb"] = metric{sessBytes / float64(max(1, len(s.sessionBytes))) / (1 << 20), "MiB"}
	m["ilp.pivots_per_req"] = metric{per(st.Pivots), "count/req"}
	m["ilp.warm_solves"] = metric{per(st.WarmSolves), "count/req"}
	m["ilp.cold_solves"] = metric{per(st.ColdSolves), "count/req"}
	m["ilp.network_solves"] = metric{per(st.NetworkSolves), "count/req"}
	m["ilp.revised_pivots"] = metric{per(st.RevisedPivots), "count/req"}
	m["ilp.refactorizations"] = metric{per(st.Refactorizations), "count/req"}
	m["certify.rechecked_sets"] = metric{per(s.rechecked), "count/req"}
	m["certify.exact_resolves"] = metric{per(st.ExactResolves), "count/req"}
	m["certify.cert_failures"] = metric{per(st.CertFailures), "count/req"}
	m["cc.compile_us"] = metric{quantile(s.compile, 0.5), "us"}
	m["cc.compile_allocs"] = metric{quantile(s.compileAllocs, 0.5), "allocs"}
	m["prepcache.exe_hit_ratio"] = metric{ratio(s.exeHits, s.exeCalls), "ratio"}
	m["prepcache.build_program_us"] = metric{quantile(s.buildProgram, 0.5), "us"}
	m["prepcache.artifact_hit_ratio"] = metric{ratio(int(s.artifacts.Hits), int(s.artifacts.Hits+s.artifacts.Misses)), "ratio"}
	for _, layer := range []string{"serve", "constraint", "ipet", "cc", "prepcache"} {
		m[layer+".self_us"] = metric{us(s.selfByLayer[layer]) / float64(s.requests), "us"}
	}
	m["trace.unattributed_us"] = metric{quantile(s.unattributed, 0.5), "us"}
}
