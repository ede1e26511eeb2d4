package fleet

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like real model keys: long common prefix, short varying
		// tail — the case the ring hash finisher exists for.
		keys[i] = fmt.Sprintf("m1|hera|s1|a=0.1|d=3600|l=%d", i)
	}
	return keys
}

func TestRingSpreadsKeysRoughlyEvenly(t *testing.T) {
	r := NewRing()
	peers := []string{"p1", "p2", "p3"}
	for _, p := range peers {
		r.Add(p)
	}
	counts := map[string]int{}
	keys := testKeys(9000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	for _, p := range peers {
		share := float64(counts[p]) / float64(len(keys))
		if share < 0.15 || share > 0.55 {
			t.Fatalf("peer %s owns %.1f%% of the keyspace; want a rough third", p, 100*share)
		}
	}
}

// TestRingRemovalOnlyMovesTheRemovedPeersKeys is the consistent-hashing
// property the fleet's failover and warm-fill cost model rests on:
// evicting a peer must not reshuffle keys between the survivors.
func TestRingRemovalOnlyMovesTheRemovedPeersKeys(t *testing.T) {
	r := NewRing()
	for _, p := range []string{"p1", "p2", "p3", "p4"} {
		r.Add(p)
	}
	keys := testKeys(4000)
	before := make([]string, len(keys))
	for i, k := range keys {
		before[i] = r.Owner(k)
	}
	r.Remove("p3")
	for i, k := range keys {
		after := r.Owner(k)
		if before[i] != "p3" && after != before[i] {
			t.Fatalf("key %q moved %s → %s although p3 was removed", k, before[i], after)
		}
		if after == "p3" {
			t.Fatalf("key %q still owned by removed peer", k)
		}
	}
	// And re-adding restores the original placement exactly (vnode hashes
	// are deterministic).
	r.Add("p3")
	for i, k := range keys {
		if got := r.Owner(k); got != before[i] {
			t.Fatalf("key %q owned by %s after rejoin; was %s", k, got, before[i])
		}
	}
}

func TestRingOwnersDistinctAndOrdered(t *testing.T) {
	r := NewRing()
	for _, p := range []string{"a", "b", "c"} {
		r.Add(p)
	}
	for _, k := range testKeys(200) {
		owners := r.Owners(k, 3)
		if len(owners) != 3 {
			t.Fatalf("Owners(%q, 3) = %v; want 3 distinct peers", k, owners)
		}
		seen := map[string]bool{}
		for _, p := range owners {
			if seen[p] {
				t.Fatalf("Owners(%q, 3) repeats %s: %v", k, p, owners)
			}
			seen[p] = true
		}
		if owners[0] != r.Owner(k) {
			t.Fatalf("Owners[0] %s != Owner %s", owners[0], r.Owner(k))
		}
	}
	if got := r.Owners("x", 10); len(got) != 3 {
		t.Fatalf("Owners with n beyond membership = %v; want all 3", got)
	}
	if got := NewRing().Owner("x"); got != "" {
		t.Fatalf("empty ring Owner = %q; want empty", got)
	}
}

func TestRingNeighbourIsWarmFillDonor(t *testing.T) {
	r := NewRing()
	r.Add("p1")
	r.Add("p2")
	// Member case: the neighbour is another member.
	if n := r.Neighbour("p1"); n != "p2" {
		t.Fatalf("Neighbour(p1) = %q; want p2", n)
	}
	// Joiner case: a peer not (yet) in the ring still has a donor — the
	// member owning its keyspace right now.
	if n := r.Neighbour("p9"); n == "" || n == "p9" {
		t.Fatalf("Neighbour of absent joiner = %q; want a member", n)
	}
	// Single-member ring: the lone member is every joiner's donor, and
	// has no donor itself.
	r.Remove("p2")
	if n := r.Neighbour("p2"); n != "p1" {
		t.Fatalf("Neighbour of rejoining p2 = %q; want p1", n)
	}
	if n := r.Neighbour("p1"); n != "" {
		t.Fatalf("lone member's Neighbour = %q; want none", n)
	}
}

func TestRequestClass(t *testing.T) {
	cases := map[string]string{
		"/v1/optimize":            "optimize",
		"/v1/sweep":               "sweep",
		"/v1/multilevel/optimize": "multilevel",
		"/v1/hetero/simulate":     "hetero",
		"/v1/cache/fill":          "cache",
		"/readyz":                 "readyz",
		"/healthz":                "healthz",
		"/":                       "*",
	}
	for path, want := range cases {
		if got := RequestClass(path); got != want {
			t.Errorf("RequestClass(%q) = %q; want %q", path, got, want)
		}
	}
}
