package fleet

import (
	"fmt"
	"sort"
	"sync"
)

// vnodesPerPeer is the virtual-node count per peer. 64 points per peer
// keeps the keyspace split within a few percent of even for small fleets
// while the ring stays tiny (a ten-peer fleet is 640 points).
const vnodesPerPeer = 64

// Ring is a consistent-hash ring over the canonical model-key space: a
// request's shard key (core.Model.CacheKey and friends — already stable,
// versioned, representation-independent) hashes to a point, and the
// first peer clockwise owns it. Peers join and leave (health-driven)
// without reshuffling the rest of the keyspace: only the keys adjacent
// to the moved virtual nodes change owner, which is what makes failover
// and warm-fill cheap.
type Ring struct {
	mu     sync.RWMutex
	points []ringPoint
	peers  map[string]bool
}

type ringPoint struct {
	hash uint64
	peer string
}

// NewRing builds an empty ring; peers join via Add (normally driven by
// the health checker, so the ring only ever contains ready peers).
func NewRing() *Ring {
	return &Ring{peers: make(map[string]bool)}
}

// ringHash is FNV-1a 64 with a final splitmix64-style finisher: FNV alone
// clusters on short common-prefix strings (every model key opens with its
// version tag), and the finisher spreads those over the ring.
func ringHash(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// Add inserts a peer's virtual nodes; adding a present peer is a no-op.
func (r *Ring) Add(peer string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.peers[peer] {
		return
	}
	r.peers[peer] = true
	for i := 0; i < vnodesPerPeer; i++ {
		r.points = append(r.points, ringPoint{
			hash: ringHash(fmt.Sprintf("%s#%d", peer, i)),
			peer: peer,
		})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Remove deletes a peer's virtual nodes; removing an absent peer is a
// no-op.
func (r *Ring) Remove(peer string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.peers[peer] {
		return
	}
	delete(r.peers, peer)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.peer != peer {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports peer membership.
func (r *Ring) Has(peer string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.peers[peer]
}

// Peers returns the current members in sorted order, so callers that
// render or serialize the membership (the router's /v1/stats, logs) get
// identical bytes for identical membership.
func (r *Ring) Peers() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.peers))
	for p := range r.peers {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.peers)
}

// Owners returns up to n distinct peers for the key in ring order: the
// owner first, then the successors a hedged or failed-over request
// escalates to. With fewer than n members it returns them all.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.peer] {
			seen[p.peer] = true
			out = append(out, p.peer)
		}
	}
	return out
}

// Neighbour returns the peer that owns most of peer's keyspace in its
// absence: the first distinct peer after peer's first virtual node. It
// is the warm-fill donor for a joining peer — the member that has been
// answering (and caching) the joiner's keys while it was away — and it
// works whether or not peer is currently a member, because a joiner
// asks *before* it is added to the ring.
func (r *Ring) Neighbour(peer string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(fmt.Sprintf("%s#%d", peer, 0))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash > h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if p.peer != peer {
			return p.peer
		}
	}
	return ""
}
