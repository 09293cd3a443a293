package prepcache

import (
	"testing"

	"cinderella/internal/ilp"
)

// TestLRUEvictsLeastRecent: inserting past the byte cap evicts from the
// least recently used end, a lookup refreshes an entry, and the newest
// entry survives its own insertion even when it alone exceeds the cap.
func TestLRUEvictsLeastRecent(t *testing.T) {
	l := newLRU[string, int](10)
	var evicted []string
	l.onEvict = func(k string, _ int) { evicted = append(evicted, k) }
	l.add("a", 1, 4)
	l.add("b", 2, 4)
	l.get("a") // b is now least recent
	l.add("c", 3, 4)
	if _, ok := l.get("b"); ok || len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if got, inserted := l.add("a", 9, 4); got != 1 || inserted {
		t.Fatalf("re-adding a resident key returned %d, %v; want the incumbent 1", got, inserted)
	}
	l.add("huge", 4, 100)
	if _, ok := l.get("huge"); !ok || len(l.m) != 1 || l.bytes != 100 || l.evictions != 3 {
		t.Fatalf("after an oversized insert: %d entries, %d bytes, %d evictions", len(l.m), l.bytes, l.evictions)
	}
	l.set("huge", 5, 2)
	if v, _ := l.get("huge"); v != 5 || l.bytes != 2 {
		t.Fatalf("set: value %d, %d bytes; want 5, 2", v, l.bytes)
	}
}

// TestOutcomeStoreMerge: an optimal or infeasible outcome replaces a
// domination bound but is never replaced by one; a bound replaces an
// earlier bound only when tighter; an uncertified outcome never displaces
// a certified one. The counters follow.
func TestOutcomeStoreMerge(t *testing.T) {
	s := newOutcomeStore()
	k := Key{1}
	dom := func(b float64) Outcome { return Outcome{Status: ilp.Dominated, Bound: b} }
	s.Store(k, ilp.Maximize, dom(100))
	s.Store(k, ilp.Maximize, dom(120)) // looser for a maximization: kept out
	if o, _ := s.Get(k); o.Bound != 100 {
		t.Fatalf("bound %g after a looser store, want 100", o.Bound)
	}
	s.Store(k, ilp.Maximize, dom(90))
	if o, _ := s.Get(k); o.Bound != 90 {
		t.Fatalf("bound %g after a tighter store, want 90", o.Bound)
	}
	if st := s.Stats(); st.Outcomes != 1 || st.Dominated != 1 {
		t.Fatalf("stats %+v, want 1 outcome, 1 dominated", st)
	}
	s.Store(k, ilp.Maximize, Outcome{Status: ilp.Optimal, Cycles: 80, Certified: true})
	s.Store(k, ilp.Maximize, dom(70))
	s.Store(k, ilp.Maximize, Outcome{Status: ilp.Optimal, Cycles: 80})
	o, ok := s.Get(k)
	if !ok || o.Status != ilp.Optimal || !o.Certified {
		t.Fatalf("outcome %+v, want the certified optimum", o)
	}
	if st := s.Stats(); st.Dominated != 0 {
		t.Fatalf("stats %+v, want no dominated entry", st)
	}
	if o.Reusable(true, ilp.Maximize, 0, false) != true ||
		(Outcome{Status: ilp.Optimal}).Reusable(true, ilp.Maximize, 0, false) {
		t.Fatal("a certifying run must take certified outcomes only")
	}
	if dom(90).Reusable(false, ilp.Maximize, 95, false) || !dom(90).Reusable(false, ilp.Maximize, 95, true) ||
		dom(90).Reusable(false, ilp.Maximize, 85, true) {
		t.Fatal("a domination bound answers only under a strictly better cutoff")
	}
	s.PutCounts(k, []float64{1, 2})
	if v, ok := s.Counts(k); !ok || len(v) != 2 {
		t.Fatalf("count vector %v, %v", v, ok)
	}
	if st := s.Stats(); st.Outcomes != 1 || st.CountVectors != 1 || st.Hits != 4 || st.Misses != 0 || st.Bytes <= 0 {
		t.Fatalf("stats %+v, want 1 outcome, 1 count vector, 4 hits", st)
	}
}

// TestResetClearsOutcomes: Reset empties the outcome store along with the
// artifacts.
func TestResetClearsOutcomes(t *testing.T) {
	c := New()
	k := Key{1}
	c.Outcomes().Store(k, ilp.Minimize, Outcome{Status: ilp.Infeasible})
	c.Outcomes().PutCounts(k, []float64{1})
	c.Reset()
	if st := c.Outcomes().Stats(); st.Outcomes != 0 || st.CountVectors != 0 || st.Bytes != 0 {
		t.Fatalf("outcome store after Reset: %+v", st)
	}
	if _, ok := c.Outcomes().Get(k); ok {
		t.Fatal("outcome survived Reset")
	}
}
