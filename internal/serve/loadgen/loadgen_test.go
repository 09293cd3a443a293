package loadgen

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"cinderella/internal/asm"
	"cinderella/internal/bench"
	"cinderella/internal/cfg"
	"cinderella/internal/constraint"
	"cinderella/internal/ipet"
	"cinderella/internal/prepcache"
	"cinderella/internal/serve"
)

// explosionWorkload builds one path-explosion workload with its exact
// reference bounds solved directly, so every load run can check soundness.
func explosionWorkload(t *testing.T, n int, slo float64) Workload {
	t.Helper()
	asmText, annots := bench.ExplosionAsm(n)
	exe, err := asm.Assemble(asmText)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	opts := ipet.DefaultOptions()
	opts.Workers = 1
	an, err := ipet.New(prog, "main", opts)
	if err != nil {
		t.Fatal(err)
	}
	file, err := constraint.Parse(annots)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Apply(file); err != nil {
		t.Fatal(err)
	}
	ref, err := an.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if !ref.WCET.Exact || !ref.BCET.Exact {
		t.Fatalf("explosion%d reference not exact", n)
	}
	return Workload{
		Name:        "explosion" + strconv.Itoa(1<<n),
		Spec:        serve.ProgramSpec{Asm: asmText, Root: "main"},
		Annotations: annots,
		SLOMillis:   slo,
		RefWCET:     ref.WCET.Cycles,
		RefBCET:     ref.BCET.Cycles,
	}
}

// runScenario spins a server with the config, runs the load, and applies
// the universal gates: no transport errors, no non-sound response, ever.
func runScenario(t *testing.T, name string, sc serve.Config, lc Config) Result {
	t.Helper()
	// Each scenario's server starts with empty caches, like a fresh
	// process: the outcome store an earlier scenario filled would answer
	// the overload burst without solving.
	if sc.Artifacts == nil {
		sc.Artifacts = prepcache.New()
	}
	srv := serve.New(sc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	lc.BaseURL = ts.URL
	lc.Client = ts.Client()
	res, err := Run(lc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	t.Logf("%s: %s", name, res)
	if res.Requests == 0 {
		t.Errorf("%s: no requests completed", name)
	}
	if res.Errors != 0 {
		t.Errorf("%s: %d transport/untyped errors", name, res.Errors)
	}
	if res.TypedErrors != 0 {
		t.Errorf("%s: %d typed error responses under a fault-free run", name, res.TypedErrors)
	}
	if res.NonSound != 0 {
		t.Errorf("%s: %d NON-SOUND responses — a bound crossed the exact reference", name, res.NonSound)
	}
	return res
}

// TestLoadgenSmoke is the fast always-on check: a short mixed run against
// an uncapped server must complete without an error or a non-sound bound.
func TestLoadgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives load over HTTP")
	}
	runScenario(t, "smoke", serve.Config{Shards: 1, Workers: 1}, Config{
		Clients:  4,
		Duration: 800 * time.Millisecond,
		Workloads: []Workload{
			explosionWorkload(t, 4, 0),
			explosionWorkload(t, 5, 0),
		},
	})
}

// TestWriteServeBenchJSON measures the three server scenarios — warm
// steady state, LRU eviction churn, and overload with tiny SLOs — and
// merges their rows into BENCH_estimate.json next to the estimate rows.
// The artifact lands in $CINDERELLA_BENCH_JSON when set (refresh runs),
// otherwise in a temp dir.
func TestWriteServeBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("drives load over HTTP")
	}
	dur := 1500 * time.Millisecond

	var rows []bench.EstimatePerf

	// Warm steady state: one resident program, no caps; after the first
	// cold request every answer comes off the session caches.
	warm := runScenario(t, "serve/warm", serve.Config{Shards: 1, Workers: 1}, Config{
		Clients:   4,
		Duration:  dur,
		Workloads: []Workload{explosionWorkload(t, 6, 0)},
	})
	rows = append(rows, perfRow("serve/warm", warm))

	// Eviction churn: three programs through a 2-entry LRU; sessions are
	// constantly evicted and re-prepared.
	churn := runScenario(t, "serve/churn", serve.Config{Shards: 1, Workers: 1, MaxSessions: 2}, Config{
		Clients:  4,
		Duration: dur,
		Workloads: []Workload{
			explosionWorkload(t, 4, 0),
			explosionWorkload(t, 5, 0),
			explosionWorkload(t, 6, 0),
		},
	})
	rows = append(rows, perfRow("serve/churn", churn))
	if churn.Evictions == 0 {
		t.Error("serve/churn: three programs through a 2-entry LRU produced no evictions")
	}

	// Overload: one solve slot, sub-millisecond SLOs; answers degrade to
	// sound envelopes — NonSound stays zero by the universal gate above.
	over := runScenario(t, "serve/overload", serve.Config{Shards: 1, Workers: 1, MaxConcurrent: 1, MaxQueue: 1}, Config{
		Clients:   8,
		Duration:  dur,
		Workloads: []Workload{explosionWorkload(t, 6, 0.25)},
	})
	rows = append(rows, perfRow("serve/overload", over))
	if over.Degraded == 0 {
		t.Error("serve/overload: no request degraded under sub-millisecond SLOs")
	}

	path := os.Getenv("CINDERELLA_BENCH_JSON")
	if path == "" {
		path = filepath.Join(t.TempDir(), "BENCH_estimate.json")
	}
	if err := mergeRows(path, rows); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d serve rows to %s", len(rows), path)
}

// TestLoadgenGate is the CI server-job smoke: enabled by CINDERELLA_LOADGEN,
// it drives a mixed load for CINDERELLA_LOADGEN_SECONDS (default 60) and
// gates on p99 latency and zero non-sound responses.
func TestLoadgenGate(t *testing.T) {
	if os.Getenv("CINDERELLA_LOADGEN") == "" {
		t.Skip("set CINDERELLA_LOADGEN=1 to run the load smoke")
	}
	secs := 60
	if v := os.Getenv("CINDERELLA_LOADGEN_SECONDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("CINDERELLA_LOADGEN_SECONDS: %v", err)
		}
		secs = n
	}
	p99Limit := 500 * time.Millisecond
	if v := os.Getenv("CINDERELLA_LOADGEN_P99_MS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("CINDERELLA_LOADGEN_P99_MS: %v", err)
		}
		p99Limit = time.Duration(n) * time.Millisecond
	}
	res := runScenario(t, "gate", serve.Config{Shards: 1, Workers: 1, MaxSessions: 2}, Config{
		Clients:  4,
		Duration: time.Duration(secs) * time.Second,
		Workloads: []Workload{
			explosionWorkload(t, 4, 0),
			explosionWorkload(t, 5, 0),
			explosionWorkload(t, 6, 0),
		},
	})
	if res.P99 > p99Limit {
		t.Errorf("p99 %s exceeds the %s gate", res.P99, p99Limit)
	}
}

// perfRow converts a load result into a BENCH_estimate.json row.
func perfRow(name string, r Result) bench.EstimatePerf {
	return bench.EstimatePerf{
		Name:            name,
		Requests:        r.Requests,
		ReqPerSec:       r.ReqPerSec,
		P50Us:           r.P50.Microseconds(),
		P99Us:           r.P99.Microseconds(),
		WarmP50Us:       r.WarmP50.Microseconds(),
		ColdP50Us:       r.ColdP50.Microseconds(),
		PrepareP50Us:    r.PrepareP50.Microseconds(),
		PrepareP99Us:    r.PrepareP99.Microseconds(),
		ArtifactHitRate: r.ArtifactHitRate,
		Degraded:        r.Degraded,
		Shed:            r.Shed,
		Coalesced:       r.Coalesced,
		Evictions:       r.Evictions,
		NonSound:        r.NonSound,
		Exact:           r.Degraded == 0,
	}
}

// mergeRows rewrites path replacing rows by exact name and keeping
// everything else, so the estimate rows, the load rows, and rows written
// by other tests (serve/restart-warm) share one artifact without
// clobbering each other.
func mergeRows(path string, rows []bench.EstimatePerf) error {
	var existing []bench.EstimatePerf
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &existing); err != nil {
			return err
		}
	}
	fresh := make(map[string]bool, len(rows))
	for _, r := range rows {
		fresh[r.Name] = true
	}
	var merged []bench.EstimatePerf
	for _, r := range existing {
		if !fresh[r.Name] {
			merged = append(merged, r)
		}
	}
	merged = append(merged, rows...)
	return bench.WriteEstimatePerfFile(path, merged)
}
