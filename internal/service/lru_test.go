package service

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"amdahlyd/internal/core"
	"amdahlyd/internal/optimize"
)

// TestLRUHoldsExactlyItsCapacity: a cache of capacity n keeps n entries
// without evicting, and the (n+1)-th add evicts exactly the least
// recently used one.
func TestLRUHoldsExactlyItsCapacity(t *testing.T) {
	for _, n := range []int{2, 3, 16, 100} {
		c := newLRU[int](n)
		for i := 0; i < n; i++ {
			c.Add(fmt.Sprint("k", i), i)
		}
		if st := c.Stats(); st.Capacity != n || st.Entries != n || st.Evictions != 0 {
			t.Fatalf("n=%d: after %d adds: %+v, want capacity and entries %d, no evictions", n, n, st, n)
		}
		c.Get([]byte("k0")) // k1 is now the least recently used
		c.Add("new", n)
		if st := c.Stats(); st.Entries != n || st.Evictions != 1 {
			t.Fatalf("n=%d: after the (n+1)-th add: %+v, want %d entries, 1 eviction", n, st, n)
		}
		if _, ok := c.Get([]byte("k1")); ok {
			t.Errorf("n=%d: least recently used entry k1 survived", n)
		}
		for i := 0; i < n; i++ {
			if _, ok := c.Get([]byte(fmt.Sprint("k", i))); !ok && i != 1 {
				t.Errorf("n=%d: k%d evicted in place of k1", n, i)
			}
		}
	}
}

// TestLRUHotIsMostRecentlyUsedOrder: Hot lists entries exactly from the
// most to the least recently used, and reading it moves no entry's
// recency and counts no hit or miss.
func TestLRUHotIsMostRecentlyUsedOrder(t *testing.T) {
	c := newLRU[int](5)
	for i, k := range []string{"a", "b", "c", "d", "e"} {
		c.Add(k, i)
	}
	c.Get([]byte("b"))
	c.Add("a", 10) // a refresh counts as a use
	want := []string{"a", "b", "e", "d", "c"}
	wantVal := map[string]int{"a": 10, "b": 1, "c": 2, "d": 3, "e": 4}
	for _, limit := range []int{0, 2, 5, 9} {
		keys, vals := c.Hot(limit)
		w := want[:min(limit, len(want))]
		if !slices.Equal(keys, w) {
			t.Errorf("Hot(%d) = %v, want %v", limit, keys, w)
		}
		for i, k := range keys {
			if vals[i] != wantVal[k] {
				t.Errorf("Hot(%d): %s carries %d, want %d", limit, k, vals[i], wantVal[k])
			}
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Errorf("Hot moved the hit/miss counters: %+v", st)
	}
	c.Add("f", 5) // c is still the least recently used
	if keys, _ := c.Hot(5); !slices.Equal(keys, []string{"f", "a", "b", "e", "d"}) {
		t.Errorf("after an eviction Hot = %v, want [f a b e d]", keys)
	}
}

// TestLRUConcurrentUse drives Get, Add, Hot and Stats from several
// goroutines (run it under -race); the counters must then add up
// exactly: every Get is one hit or one miss, and every add of a new key
// past the capacity is one eviction.
func TestLRUConcurrentUse(t *testing.T) {
	const (
		workers  = 4
		perWork  = 200
		capacity = 50
	)
	c := newLRU[int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWork; i++ {
				k := fmt.Sprintf("w%d-%d", w, i)
				c.Add(k, i)
				if v, ok := c.Get([]byte(k)); ok && v != i {
					t.Errorf("%s holds %d, want %d", k, v, i)
				}
				c.Get([]byte(fmt.Sprintf("w%d-%d", (w+1)%workers, i/2)))
				if keys, vals := c.Hot(8); len(keys) != len(vals) || len(keys) > 8 {
					t.Errorf("Hot(8) returned %d keys and %d values", len(keys), len(vals))
				}
				if st := c.Stats(); st.Entries > capacity {
					t.Errorf("%d entries in a cache of %d", st.Entries, capacity)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Capacity != capacity || st.Entries != capacity {
		t.Errorf("capacity %d with %d entries, want both %d", st.Capacity, st.Entries, capacity)
	}
	if got := st.Hits + st.Misses; got != 2*workers*perWork {
		t.Errorf("hits+misses = %d, want %d Gets", got, 2*workers*perWork)
	}
	if want := uint64(workers*perWork - capacity); st.Evictions != want {
		t.Errorf("evictions = %d, want %d", st.Evictions, want)
	}
	keys, _ := c.Hot(2 * capacity)
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			t.Errorf("Hot lists %s twice", k)
		}
		seen[k] = true
	}
	if len(keys) != capacity {
		t.Errorf("Hot(%d) = %d keys, want %d", 2*capacity, len(keys), capacity)
	}
}

// BenchmarkLRUGetParallel probes one optimize-result cache from
// b.RunParallel goroutines over 250 real optimize keys, all hits — the
// lookup every warm optimize pays. Run it at -cpu 1,2,8 to see what the
// one cache lock costs under contention.
func BenchmarkLRUGetParallel(b *testing.B) {
	base := heraModel(b)
	c := newLRU[optimize.PatternResult](1024)
	models := make([]core.Model, 250)
	for i := range models {
		models[i] = base
		models[i].LambdaInd *= 1 + float64(i)*1e-3
	}
	keys, err := sweepKeys(models, "", true, appendOptionsKey(nil, optimize.PatternOptions{}))
	if err != nil {
		b.Fatal(err)
	}
	for _, key := range keys {
		c.Add(key, optimize.PatternResult{})
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := c.Get([]byte(keys[i%len(keys)])); !ok {
				b.Error("warm probe missed")
				return
			}
			i++
		}
	})
}
