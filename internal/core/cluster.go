package core

import (
	"math"
	"math/rand"
	"sort"

	"bytebrain/internal/dedup"
)

// bnode is a clustering-tree node under construction, before flattening
// into model Nodes.
type bnode struct {
	members    []*dedup.Unique
	template   []string
	saturation float64
	depth      int
	children   []*bnode
	weight     int // duplicate-weighted count
}

// buildTree hierarchically clusters one initial group into a tree (§4.3).
// rng must be dedicated to this group; training is deterministic because
// each group derives its generator from the seed and the group key.
func buildTree(members []*dedup.Unique, o *Options, rng *rand.Rand) *bnode {
	return buildNode(members, o, rng, 0, -1, &scratch{})
}

// buildNode creates the node for members and recursively splits it while
// saturation can still improve. parentSat is the saturation of the parent
// node (-1 at the root, so any score counts as an improvement). sc is the
// tree's scratch; the node is done with it before any child is built.
func buildNode(members []*dedup.Unique, o *Options, rng *rand.Rand, depth int, parentSat float64, sc *scratch) *bnode {
	st := sc.code(members)
	sat := st.saturation(o)
	// Clamp to keep the root-to-leaf saturation sequence non-decreasing,
	// the invariant query-time rollup relies on (§3: "strictly increases
	// with tree depth").
	if sat < parentSat {
		sat = parentSat
	}
	n := &bnode{
		members:    members,
		template:   st.template(members[0].Tokens),
		saturation: sat,
		depth:      depth,
		weight:     st.weight,
	}
	if sat >= 1 || depth >= o.MaxDepth || len(members) <= 1 {
		return n
	}

	parts := splitNode(members, sc, sat, o, rng)
	if len(parts) <= 1 {
		// The clustering process failed to separate the members and no
		// positional fallback applies: accept the node as a leaf.
		return n
	}
	for _, p := range parts {
		n.children = append(n.children, buildNode(p, o, rng, depth+1, sat, sc))
	}
	return n
}

// splitNode partitions members into sub-clusters, applying the early-stop
// shortcuts of §4.7 before running the full clustering process. sc must
// hold the coding and statistics of members.
func splitNode(members []*dedup.Unique, sc *scratch, parentSat float64, o *Options, rng *rand.Rand) [][]*dedup.Unique {
	if !o.NoEarlyStop {
		// Rule 1: two (unique) logs form their own clusters.
		if len(members) == 2 {
			return [][]*dedup.Unique{{members[0]}, {members[1]}}
		}
		// Rule 3: every unresolved position is fully distinct — the logs
		// are inherently dissimilar; each forms its own cluster.
		if allUnresolvedDistinct(&sc.st) {
			parts := make([][]*dedup.Unique, len(members))
			for i, u := range members {
				parts[i] = []*dedup.Unique{u}
			}
			return parts
		}
	}
	parts := clusterOnce(members, sc, parentSat, o, rng)
	if len(parts) <= 1 {
		parts = positionalFallback(members, &sc.st)
	}
	return parts
}

// allUnresolvedDistinct reports whether every unresolved position has a
// different token in every member (n_u(i) == n). Duplicated streams
// (NoDedup) can never satisfy this, which is intended: early stop is one of
// the dedup-dependent optimizations.
func allUnresolvedDistinct(st *posStats) bool {
	any := false
	for _, nu := range st.nu {
		if nu == 1 {
			continue
		}
		any = true
		if int(nu) != st.n {
			return false
		}
	}
	return any
}

// cluster is one cluster of a clustering process: the statistics of its
// members, the Eq.-2 weights they imply, and the similarity of every
// member of the node to it. Membership moves update the statistics in
// place; w, den and sim are recomputed only when stale, that is after the
// membership changed.
type cluster struct {
	posStats
	w     []float64
	den   float64
	sim   []float64
	stale bool
}

// refresh recomputes a stale cluster's weights and similarity column.
func (c *cluster) refresh(cd *coding, o *Options) {
	if !c.stale {
		return
	}
	c.den = c.weights(c.w, o.NoPositionImportance)
	c.similarities(cd, c.w, c.den, c.sim)
	c.stale = false
}

// clusterOnce is the single clustering process of §4.4: K-means-style
// iterative assignment under positional similarity, with K-means++ seeding,
// balanced tie-breaking and saturation-guided cluster injection. sc must
// hold the coding of members.
//
// Cluster statistics are kept incrementally: after each pass only the
// members that moved are removed from their old cluster and added to their
// new one, and only the clusters that changed recompute their similarity
// column. Every floating-point value and every rng draw is the one a full
// per-pass recount would produce, in the same order.
func clusterOnce(members []*dedup.Unique, sc *scratch, parentSat float64, o *Options, rng *rand.Rand) [][]*dedup.Unique {
	n := len(members)
	if n < 2 {
		return [][]*dedup.Unique{members}
	}
	cd := &sc.cd

	clusters := make([]*cluster, 0, 2+o.MaxIters)
	assign := zeroed(sc.assign, n)
	sc.assign = assign
	for i := range assign {
		assign[i] = -1
	}
	// join moves member j into cluster c, opening c if it is new.
	join := func(j, c int) {
		if c == len(clusters) {
			clusters = append(clusters, sc.open(c))
		}
		if old := assign[j]; old >= 0 {
			clusters[old].remove(cd, j, members[j].Count)
			clusters[old].stale = true
		}
		clusters[c].add(cd, j, members[j].Count)
		clusters[c].stale = true
		assign[j] = c
	}

	// Seed two clusters. First centroid random; second the member
	// farthest from (least similar to) the first, unless the ablation
	// asks for fully random centroids.
	first := rng.Intn(n)
	join(first, 0)
	var second int
	if o.RandomCentroids {
		second = rng.Intn(n - 1)
		if second >= first {
			second++
		}
	} else {
		clusters[0].refresh(cd, o)
		best, bestSim := -1, 2.0
		for i, sim := range clusters[0].sim {
			if i == first {
				continue
			}
			if sim < bestSim {
				bestSim, best = sim, i
			}
		}
		second = best
	}
	join(second, 1)

	next := zeroed(sc.next, n)
	sc.next = next
	ties := make([]int, 0, 4)
	for iter := 0; iter < o.MaxIters; iter++ {
		for _, c := range clusters {
			c.refresh(cd, o)
		}
		for i := range members {
			bestSim := -1.0
			ties = ties[:0]
			for c, cl := range clusters {
				if cl.n == 0 {
					continue
				}
				sim := cl.sim[i]
				switch {
				case sim > bestSim+simEps:
					bestSim = sim
					ties = append(ties[:0], c)
				case sim > bestSim-simEps:
					ties = append(ties, c)
				}
			}
			choice := ties[0]
			if len(ties) > 1 && !o.NoBalancedGrouping {
				// Balanced grouping (§4.6): uniform among equals.
				choice = ties[rng.Intn(len(ties))]
			}
			next[i] = choice
		}
		changed := false
		for i, c := range next {
			if c != assign[i] {
				join(i, c)
				changed = true
			}
		}

		grew := false
		if k := len(clusters); !o.NoEnsureSaturationIncrease && k < n {
			// If some cluster failed to improve on the parent, inject a
			// new cluster seeded with the member farthest from every
			// existing cluster (§4.4).
			for _, cl := range clusters {
				if cl.n == 0 {
					continue
				}
				if cl.n == n || cl.saturation(o) <= parentSat+satEps {
					for _, c := range clusters {
						c.refresh(cd, o)
					}
					join(farthestMember(clusters), k)
					grew = true
					break
				}
			}
		}
		if !changed && !grew {
			break
		}
	}

	parts := make([][]*dedup.Unique, len(clusters))
	for i, u := range members {
		c := assign[i]
		parts[c] = append(parts[c], u)
	}
	out := parts[:0]
	for _, p := range parts {
		if len(p) > 0 {
			out = append(out, p)
		}
	}
	return out
}

const (
	simEps = 1e-12
	satEps = 1e-12
)

// farthestMember returns the index of the member whose highest similarity
// to any non-empty cluster is lowest, the first such member on ties. Sole
// occupants of a cluster are not skipped: a singleton scores 1.0 against
// its own cluster, so it is picked only when no member scores lower.
// Every cluster's similarity column must be fresh.
func farthestMember(clusters []*cluster) int {
	best, bestScore := -1, 2.0
	for i := range clusters[0].sim {
		maxSim := -1.0
		for _, cl := range clusters {
			if cl.n == 0 {
				continue
			}
			if sim := cl.sim[i]; sim > maxSim {
				maxSim = sim
			}
		}
		if maxSim < bestScore {
			bestScore, best = maxSim, i
		}
	}
	return best
}

// positionalFallback splits members by their token at the lowest-cardinality
// unresolved position. It guarantees progress (each part gains a constant
// position) when the clustering process degenerates to a single cluster.
func positionalFallback(members []*dedup.Unique, st *posStats) [][]*dedup.Unique {
	pos := -1
	bestCard := int32(math.MaxInt32)
	for i, nu := range st.nu {
		if nu > 1 && nu < bestCard {
			bestCard, pos = nu, i
		}
	}
	if pos < 0 {
		return [][]*dedup.Unique{members}
	}
	byTok := make(map[uint64][]*dedup.Unique)
	var order []uint64
	for _, u := range members {
		code := u.Enc[pos]
		if _, ok := byTok[code]; !ok {
			order = append(order, code)
		}
		byTok[code] = append(byTok[code], u)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	parts := make([][]*dedup.Unique, 0, len(order))
	for _, code := range order {
		parts = append(parts, byTok[code])
	}
	return parts
}
