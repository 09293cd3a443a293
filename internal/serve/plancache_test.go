package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cinderella/internal/bench"
	"cinderella/internal/prepcache"
)

// TestStatsReportPlanCache: /v1/stats shows a session's compiled plans,
// with its memory figure growing with them, and the shared outcome store's
// cached domination bounds. A re-sent text that differs only in layout
// reuses its plan.
func TestStatsReportPlanCache(t *testing.T) {
	// Its own cache: the shared outcome store must not pre-answer the first
	// estimate whose dominations this test counts.
	srv := New(Config{Workers: 1, Artifacts: prepcache.New()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	asmText, annots := bench.ExplosionAsm(4)
	spec := ProgramSpec{Asm: asmText, Root: "main"}
	stats := func() (SessionStatsJSON, OutcomeStatsJSON) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if len(st.Sessions) != 1 {
			t.Fatalf("%d sessions resident, want 1", len(st.Sessions))
		}
		return st.Sessions[0], st.Outcomes
	}
	estimate := func(text string) {
		t.Helper()
		req := EstimateRequest{ProgramSpec: spec, Annotations: text}
		postJSON(t, ts.Client(), ts.URL+"/v1/estimate", req, &rawEstimate{}, http.StatusOK)
	}

	estimate(annots)
	first, outcomes := stats()
	if first.Plans != 1 || outcomes.SetOutcomes == 0 || outcomes.Dominated == 0 {
		t.Fatalf("after one estimate: %+v, %+v; want 1 plan and cached outcomes including dominations", first, outcomes)
	}
	estimate("; the same facts\n\n" + annots)
	if s, _ := stats(); s.Plans != 1 || s.MemoryBytes != first.MemoryBytes {
		t.Fatalf("layout-only resend: %d plans, %d bytes; want the first plan reused (%d bytes)",
			s.Plans, s.MemoryBytes, first.MemoryBytes)
	}
	estimate(strings.Replace(annots, "(x2 = 1 & x3 = 0) | (x2 = 0 & x3 = 1)", "(x2 = 0 & x3 = 1) | (x2 = 1 & x3 = 0)", 1))
	if s, _ := stats(); s.Plans != 2 || s.MemoryBytes <= first.MemoryBytes {
		t.Fatalf("reordered disjuncts: %d plans, %d bytes; want a second plan and more memory than %d",
			s.Plans, s.MemoryBytes, first.MemoryBytes)
	}
}
