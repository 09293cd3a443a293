package main

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"cinderella/internal/cc"
	"cinderella/internal/constraint"
)

func take(w *workload, seed int64, n int) []request {
	st := w.newStream(w, seed)
	out := make([]request, n)
	for i := range out {
		out[i] = st.next()
	}
	return out
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for name, w := range workloads() {
		a, b := take(w, 1, 300), take(w, 1, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different streams", name)
		}
		if reflect.DeepEqual(a, take(w, 2, 300)) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", name)
		}
	}
}

func TestVariantsParseAndLoosen(t *testing.T) {
	for name, w := range workloads() {
		for i, r := range take(w, 3, 400) {
			if _, err := constraint.Parse(r.annots); err != nil {
				t.Fatalf("%s request %d: %v\n%s", name, i, err, r.annots)
			}
			if name != "edits" && r.annots == w.programs[r.prog].annots {
				t.Fatalf("%s request %d repeats the base annotations", name, i)
			}
		}
	}
}

func TestHalfOrMoreOfTheRequestsRepeat(t *testing.T) {
	for name, w := range workloads() {
		seen := map[request]bool{}
		repeats := 0
		reqs := take(w, 4, 2000)
		for _, r := range reqs {
			if seen[r] {
				repeats++
			}
			seen[r] = true
		}
		if ratio := float64(repeats) / float64(len(reqs)); ratio < 0.45 || ratio > 0.75 {
			t.Errorf("%s: repeat ratio %.3f, want one half to two thirds", name, ratio)
		}
	}
}

func TestEditsCompileAndResubmitOnlyEvicted(t *testing.T) {
	w := workloads()["edits"]
	seen := map[string]bool{}
	resident := lru{cap: w.maxSessions}
	for i, r := range take(w, 5, 200) {
		if !strings.Contains(r.source, "int edit_") {
			t.Fatalf("request %d carries no edit", i)
		}
		if slices.Contains(resident.keys, r.source) {
			t.Fatalf("request %d resubmits a resident edit", i)
		}
		if !seen[r.source] && len(seen) < 10 {
			if _, _, err := cc.Build(r.source); err != nil {
				t.Fatalf("request %d: edited %s does not compile: %v", i, w.programs[r.prog].name, err)
			}
		}
		seen[r.source] = true
		resident.touch(r.source)
	}
}

func TestLRUEvictsTheLeastRecent(t *testing.T) {
	l := lru{cap: 2}
	for _, k := range []string{"a", "b"} {
		if out := l.touch(k); out != nil {
			t.Fatalf("touch %s evicted %v", k, out)
		}
	}
	l.touch("a")
	if out := l.touch("c"); !reflect.DeepEqual(out, []string{"b"}) {
		t.Fatalf("touch c evicted %v, want [b]", out)
	}
	if !reflect.DeepEqual(l.keys, []string{"c", "a"}) {
		t.Fatalf("order %v, want [c a]", l.keys)
	}
}
