package cache

import (
	"sync"
	"testing"
)

func TestKeyedBasics(t *testing.T) {
	k := NewKeyed[string, int]()
	if _, ok := k.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	k.Put("a", 1)
	if v, ok := k.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	v, hit := k.GetOrCompute("a", func() int { t.Fatal("computed despite hit"); return 0 })
	if !hit || v != 1 {
		t.Fatalf("GetOrCompute hit = %d, %v", v, hit)
	}
	v, hit = k.GetOrCompute("b", func() int { return 2 })
	if hit || v != 2 {
		t.Fatalf("GetOrCompute miss = %d, %v", v, hit)
	}
	if k.Len() != 2 {
		t.Fatalf("Len = %d", k.Len())
	}
	k.Clear()
	if k.Len() != 0 {
		t.Fatalf("Len after Clear = %d", k.Len())
	}
}

func TestKeyedConcurrent(t *testing.T) {
	k := NewKeyed[int, int]()
	var wg sync.WaitGroup
	computed := make([]int, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				key := i % 16
				k.GetOrCompute(key, func() int {
					computed[key]++
					return key * key
				})
			}
		}()
	}
	wg.Wait()
	for key := 0; key < 16; key++ {
		if v, ok := k.Get(key); !ok || v != key*key {
			t.Fatalf("key %d: %d, %v", key, v, ok)
		}
		if computed[key] != 1 {
			t.Fatalf("key %d computed %d times", key, computed[key])
		}
	}
}
