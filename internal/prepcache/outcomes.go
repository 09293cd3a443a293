package prepcache

import (
	"sync"

	"cinderella/internal/ilp"
)

// outcomeStoreCap bounds the bytes of solved outcomes and count vectors one
// Cache keeps. An entry is a couple of hundred bytes, plus one float64 per
// LP variable for a count vector; the cap holds the outcomes of thousands
// of recent annotation texts across every resident program, far beyond
// the handful the interactive loop revisits. There is deliberately no
// option for it.
const outcomeStoreCap = 32 << 20

// Outcome is the solved result of one integer LP in one direction: optimal
// cycles, infeasibility, or — for a set a warm solve abandoned under an
// incumbent cutoff — the proven dual bound that showed it dominated.
type Outcome struct {
	Status ilp.Status
	Cycles int64
	// Bound is set for Dominated only: the set's optimum lies at or
	// inside it.
	Bound        float64
	RootIntegral bool
	// Certified marks an outcome backed by an exact rational check when it
	// was produced.
	Certified bool
}

// Reusable reports whether o answers a job of a run. An optimal or
// infeasible outcome always does, except that a certifying run takes only
// certified ones (an uncertified value would smuggle an unchecked claim
// into a certified report). A domination bound depends on the cutoff: it
// answers the job only when it proves the set strictly worse than the
// run's incumbent margin, by the same test the warm solve applies; a
// weaker incumbent, or a run without cutoffs, solves the set again.
func (o Outcome) Reusable(certify bool, sense ilp.Sense, margin float64, useCutoff bool) bool {
	if o.Status == ilp.Dominated {
		return useCutoff && ilp.DominatedBy(sense, o.Bound, margin)
	}
	return !certify || o.Certified
}

// outcomeKey separates the store's two entry kinds: per-set outcomes and
// the winners' count vectors.
type outcomeKey struct {
	counts bool
	key    Key
}

type outcomeVal struct {
	out    Outcome
	counts []float64
}

// Accounted bytes of one store entry beyond its count vector: the LRU node
// with its key and value, and the map slot.
const outcomeEntryBytes = 200

// OutcomeStats is a point-in-time snapshot of an outcome store: resident
// outcomes (Dominated of them domination bounds) and count vectors, their
// accounted bytes, lookups that found an entry (Hits) and that did not
// (Misses), and entries the byte cap evicted.
type OutcomeStats struct {
	Outcomes     int
	Dominated    int
	CountVectors int
	Bytes        int64
	Hits         int64
	Misses       int64
	Evictions    int64
}

// OutcomeStore holds solved LP outcomes keyed by the content of the LP
// they solve, shared by every session prepared against one Cache. A key
// is the SHA-256 of a byte-identical problem (ipet hashes a digest of the
// structural rows and objectives with the loop and set rows), so an entry
// is valid in any session that produces the same key: a resubmitted
// program, or an edit outside the root's call tree, answers without
// solving. It is a byte-accounted LRU with a fixed cap. Safe for
// concurrent use.
type OutcomeStore struct {
	mu        sync.Mutex
	lru       *lru[outcomeKey, outcomeVal]
	dominated int
	vectors   int
	hits      int64
	misses    int64
}

func newOutcomeStore() *OutcomeStore {
	s := &OutcomeStore{lru: newLRU[outcomeKey, outcomeVal](outcomeStoreCap)}
	s.lru.onEvict = s.forget
	return s
}

// forget keeps the kind counters in step with an entry leaving the LRU.
// Callers hold mu.
func (s *OutcomeStore) forget(k outcomeKey, v outcomeVal) {
	switch {
	case k.counts:
		s.vectors--
	case v.out.Status == ilp.Dominated:
		s.dominated--
	}
}

// Get returns the outcome stored under key; the caller decides with
// Outcome.Reusable whether it answers its job. Hits counts lookups that
// found an entry, so a domination bound found under too weak a cutoff
// still counts as one.
func (s *OutcomeStore) Get(key Key) (Outcome, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.lru.get(outcomeKey{key: key})
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return v.out, ok
}

// Store records a completed job's outcome under key. An optimal or
// infeasible outcome replaces what was there, except that an uncertified
// one never displaces a certified one. A domination bound never replaces
// an optimal or infeasible entry, and replaces an earlier bound only when
// it is tighter.
func (s *OutcomeStore) Store(key Key, sense ilp.Sense, o Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := outcomeKey{key: key}
	old, present := s.lru.get(k)
	if present {
		switch {
		case o.Status == ilp.Dominated:
			if old.out.Status != ilp.Dominated || !tighter(sense, o.Bound, old.out.Bound) {
				return
			}
		case old.out.Status != ilp.Dominated && old.out.Certified && !o.Certified:
			return
		}
		if old.out.Status == ilp.Dominated {
			s.dominated--
		}
	}
	if o.Status == ilp.Dominated {
		s.dominated++
	}
	s.lru.set(k, outcomeVal{out: o}, outcomeEntryBytes)
}

// tighter reports whether bound a lies strictly inside bound b: lower for
// a maximization, higher for a minimization.
func tighter(sense ilp.Sense, a, b float64) bool {
	if sense == ilp.Maximize {
		return a < b
	}
	return a > b
}

// Counts returns the count vector stored under key. The slice is shared
// and must not be mutated.
func (s *OutcomeStore) Counts(key Key) ([]float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.lru.get(outcomeKey{counts: true, key: key})
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return v.counts, ok
}

// PutCounts stores a winner's count vector under key. The store keeps the
// slice; the caller must not mutate it afterwards.
func (s *OutcomeStore) PutCounts(key Key, counts []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := outcomeKey{counts: true, key: key}
	if _, present := s.lru.get(k); !present {
		s.vectors++
	}
	s.lru.set(k, outcomeVal{counts: counts}, int64(len(counts))*8+outcomeEntryBytes)
}

// Stats returns the store's counters.
func (s *OutcomeStore) Stats() OutcomeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return OutcomeStats{
		Outcomes:     len(s.lru.m) - s.vectors,
		Dominated:    s.dominated,
		CountVectors: s.vectors,
		Bytes:        s.lru.bytes,
		Hits:         s.hits,
		Misses:       s.misses,
		Evictions:    s.lru.evictions,
	}
}

// Reset drops every entry and zeroes the counters.
func (s *OutcomeStore) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lru.clear()
	s.lru.evictions = 0
	s.dominated, s.vectors, s.hits, s.misses = 0, 0, 0, 0
}
