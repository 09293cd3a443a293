package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cinderella/internal/bench"
	"cinderella/internal/prepcache"
)

// TestServerOverloadSoundness drives the server far past its admission
// capacity — one solve slot, a one-deep queue, dozens of concurrent
// requests with sub-millisecond SLOs — and holds it to the paper-soundness
// contract under load: every response is HTTP 200, every degraded answer
// has Exact=false with an envelope that brackets the true bound (WCET
// from above, BCET from below), and no answer is ever tighter than the
// exact bound. Overload degrades precision, never soundness and never
// availability.
func TestServerOverloadSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("overload test")
	}
	// Its own cache: degradation needs cold caches, and the shared outcome
	// store of an earlier test could answer the burst without solving.
	srv := New(Config{Shards: 1, Workers: 1, MaxConcurrent: 1, MaxQueue: 1, Artifacts: prepcache.New()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	asmText, annots := bench.ExplosionAsm(6)
	spec := ProgramSpec{Asm: asmText, Root: "main"}
	ref := oneShotEstimate(t, spec, 1, annots)
	if !ref.WCET.Exact || !ref.BCET.Exact {
		t.Fatal("reference one-shot run not exact")
	}

	var sub SubmitResponse
	postJSON(t, ts.Client(), ts.URL+"/v1/programs", spec, &sub, http.StatusOK)

	// Saturate admission deterministically: occupy the single solve slot
	// and the one-deep queue directly, so the tiny-SLO burst below meets a
	// full admission path regardless of scheduler timing and must shed.
	srv.adm.slots <- struct{}{}
	srv.adm.queue <- struct{}{}

	const clients = 24
	results := make([]EstimateResponse, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct SLOs defeat coalescing: every request is its own
			// solver pass competing for the single slot.
			req := EstimateRequest{
				Program:     sub.Program,
				Annotations: annots,
				SLOMillis:   0.05 + float64(i)*0.001,
			}
			body, _ := json.Marshal(req)
			resp, err := ts.Client().Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				var e ErrorResponse
				json.NewDecoder(resp.Body).Decode(&e)
				t.Errorf("client %d: overload returned status %d (%s) — must degrade, not fail", i, resp.StatusCode, e.Error)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&results[i]); err != nil {
				t.Errorf("client %d: decode: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	// Release the saturated admission path, then exercise the recovery
	// paths. An unconstrained (no-SLO) request must come back exact and
	// bit-equal to the reference — overload left no residue.
	<-srv.adm.queue
	<-srv.adm.slots

	var exactResp EstimateResponse
	postJSON(t, ts.Client(), ts.URL+"/v1/estimate",
		EstimateRequest{Program: sub.Program, Annotations: annots}, &exactResp, http.StatusOK)
	if !exactResp.Exact || exactResp.WCET.Cycles != ref.WCET.Cycles || exactResp.BCET.Cycles != ref.BCET.Cycles {
		t.Errorf("unconstrained solve after overload: exact=%v [%d,%d], want exact [%d,%d]",
			exactResp.Exact, exactResp.BCET.Cycles, exactResp.WCET.Cycles, ref.BCET.Cycles, ref.WCET.Cycles)
	}

	// A patient waiter (10 s SLO) that arrives while the slot is held
	// queues, gets the slot when it frees, and answers sound — with the
	// caches warm, exact.
	srv.adm.slots <- struct{}{}
	var queued EstimateResponse
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		postJSON(t, ts.Client(), ts.URL+"/v1/estimate",
			EstimateRequest{Program: sub.Program, Annotations: annots, SLOMillis: 10000}, &queued, http.StatusOK)
	}()
	time.Sleep(100 * time.Millisecond)
	<-srv.adm.slots
	<-queuedDone
	if queued.WCET.Cycles < ref.WCET.Cycles || queued.BCET.Cycles > ref.BCET.Cycles {
		t.Errorf("queued solve unsound: [%d,%d] vs exact [%d,%d]",
			queued.BCET.Cycles, queued.WCET.Cycles, ref.BCET.Cycles, ref.WCET.Cycles)
	}

	var degraded, shed, exact int
	for i := range results {
		r := &results[i]
		if r.Admission == "" {
			continue // client already reported its failure
		}
		if r.Admission == "shed" {
			shed++
		}
		// Soundness holds for every answer, degraded or not.
		if r.WCET.Cycles < ref.WCET.Cycles {
			t.Errorf("client %d: WCET %d tighter than exact %d — unsound", i, r.WCET.Cycles, ref.WCET.Cycles)
		}
		if r.BCET.Cycles > ref.BCET.Cycles {
			t.Errorf("client %d: BCET %d tighter than exact %d — unsound", i, r.BCET.Cycles, ref.BCET.Cycles)
		}
		if r.Degraded {
			degraded++
			if r.WCET.Exact && r.BCET.Exact {
				t.Errorf("client %d: degraded response claims exact bounds", i)
			}
		} else {
			exact++
			if r.WCET.Cycles != ref.WCET.Cycles || r.BCET.Cycles != ref.BCET.Cycles {
				t.Errorf("client %d: exact response [%d,%d] differs from reference [%d,%d]",
					i, r.BCET.Cycles, r.WCET.Cycles, ref.BCET.Cycles, ref.WCET.Cycles)
			}
		}
	}
	// With the slot and queue saturated for the whole burst, every request
	// must shed; degradation is structurally guaranteed on the cold caches.
	if shed != clients {
		t.Errorf("%d of %d requests shed; a saturated admission path must shed all of them", shed, clients)
	}
	if degraded == 0 {
		t.Error("no request degraded under sub-millisecond SLOs")
	}
	t.Logf("overload: %d exact, %d degraded, %d shed of %d", exact, degraded, shed, clients)

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shed == 0 || st.Degraded == 0 {
		t.Errorf("stats did not record the overload: shed %d degraded %d", st.Shed, st.Degraded)
	}
}
