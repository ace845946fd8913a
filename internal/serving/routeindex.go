package serving

import "math"

// routeIndex answers an argmin router's pick in O(1) and absorbs each
// replica change in O(log R): a tournament tree over (load key,
// replica ID) whose internal nodes hold the winning leaf of their
// subtree. An ineligible replica carries key +Inf, so the root is the
// lowest-ID eligible replica with the minimal key — exactly the pick
// of the router's linear scan, which keeps the first strict minimum.
type routeIndex struct {
	key   func(*fleetReplica) float64
	nodes []routeNode // nodes[size+i] is leaf i; nodes[j] wins over 2j, 2j+1
	size  int         // leaf count, a power of two; padding leaves stay +Inf
}

// routeNode is one tournament entry. Internal nodes copy their winning
// leaf, key included, so a repair reads sibling pairs that share a
// cache line instead of chasing leaf keys. The key is stored as
// orderedKey bits, so choosing a winner is an integer compare the
// compiler turns into a conditional move; ties and near-ties make that
// choice unpredictable for a branch.
type routeNode struct {
	key uint64
	id  int32
}

// orderedKey maps a load to bits whose unsigned order is the float
// order, +Inf last. Adding zero folds -0 into +0, which it equals.
func orderedKey(k float64) uint64 {
	b := math.Float64bits(k + 0)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// newRouteIndex returns the tree for the bundled argmin routers, or nil
// for every other router — including a wrapped bundled one, which the
// fleet cannot see through and serves on the slice path. Each key is
// the load the router's scan compares, read from the replica's state.
func newRouteIndex(r Router, n int) *routeIndex {
	var key func(*fleetReplica) float64
	switch r.(type) {
	case leastOutstanding:
		key = func(r *fleetReplica) float64 { return float64(len(r.queue) + len(r.inflight)) }
	case jsq:
		key = func(r *fleetReplica) float64 { return float64(len(r.queue)) }
	case kvRouter:
		key = func(r *fleetReplica) float64 { return r.kvQueued + r.kvInflight }
	default:
		return nil
	}
	size := 1
	for size < n {
		size *= 2
	}
	x := &routeIndex{key: key, nodes: make([]routeNode, 2*size), size: size}
	for i := 0; i < size; i++ {
		x.nodes[size+i] = routeNode{key: orderedKey(math.Inf(1)), id: int32(i)}
	}
	for j := size - 1; j >= 1; j-- {
		x.nodes[j] = x.nodes[2*j]
	}
	return x
}

// set re-keys replica r (+Inf when ineligible) and replays its
// leaf-to-root path, stopping at the first node whose winner is
// unchanged: every ancestor then compares the same entries as before.
func (x *routeIndex) set(r *fleetReplica, eligible bool) {
	k := math.Inf(1)
	if eligible {
		k = x.key(r)
	}
	nodes := x.nodes
	i := uint(x.size + r.id)
	key := orderedKey(k)
	if nodes[i].key == key {
		return
	}
	nodes[i].key = key
	for i > 1 {
		c := i &^ 1
		if nodes[c|1].key < nodes[c].key {
			c |= 1
		}
		w := nodes[c]
		i >>= 1
		if nodes[i] == w {
			return
		}
		nodes[i] = w
	}
}

// pick is the winning replica; the caller guarantees one is eligible.
func (x *routeIndex) pick() int { return int(x.nodes[1].id) }
