package core

import (
	"math"

	"bytebrain/internal/dedup"
)

// coding recodes the members of one node into dense per-position local
// token IDs: at position i the distinct tokens are numbered 0, 1, … in
// order of first appearance, and they index the slots [off[i], off[i+1])
// of a flat count table. Every count the clusterer keeps over these
// members is then a []int32 indexed without hashing — the dense frequency
// tables of Logram's n-gram dictionaries and AWSOM-LP's token counts.
type coding struct {
	n, m int
	// ids[i*n+j] is the local ID of member j's token at position i.
	ids []int32
	// off[i] is the first count-table slot of position i; off[m] is the
	// table size (the node's total vocabulary).
	off []int32
}

// scratch holds the buffers one tree's clustering reuses from node to
// node: the current node's coding and statistics, and the clusters of its
// clustering process. A node is done with all of them once its members are
// split, before any child is coded, so one set serves the whole
// depth-first build.
type scratch struct {
	tab          codeTable
	cd           coding
	st           posStats
	clusters     []*cluster
	assign, next []int
}

// zeroed returns s resized to n zero elements, reusing its array when it
// is large enough.
func zeroed[T int | int32 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// codeTable is an open-addressing map from token code to local ID, reused
// across positions and nodes: reset empties it in O(1) by advancing the
// generation stamp that marks live slots. A Go map, reused and cleared
// per position, made a whole Train ~30% slower.
type codeTable struct {
	slots []codeSlot
	mask  uint64
	shift uint
	gen   uint32
}

type codeSlot struct {
	code uint64
	id   int32
	gen  uint32
}

// reset empties the table and sizes it for up to n distinct codes at a
// load factor of at most one half.
func (t *codeTable) reset(n int) {
	bits := uint(3)
	for 1<<bits < 2*n {
		bits++
	}
	if size := 1 << bits; len(t.slots) < size {
		t.slots = make([]codeSlot, size)
		t.gen = 0
	}
	t.mask = 1<<bits - 1
	t.shift = 64 - bits
	t.gen++
	if t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}

// id returns code's local ID, assigning next when code is new (fresh).
func (t *codeTable) id(code uint64, next int32) (id int32, fresh bool) {
	h := (code * 0x9E3779B97F4A7C15) >> t.shift
	for {
		s := &t.slots[h]
		if s.gen != t.gen {
			*s = codeSlot{code: code, id: next, gen: t.gen}
			return next, true
		}
		if s.code == code {
			return s.id, false
		}
		h = (h + 1) & t.mask
	}
}

// code recodes members (all of identical length) into sc.cd and returns
// the statistics of the whole node, held in sc.st. Both stay valid until
// the next call.
func (sc *scratch) code(members []*dedup.Unique) *posStats {
	n, m := len(members), 0
	if n > 0 {
		m = len(members[0].Enc)
	}
	cd, st := &sc.cd, &sc.st
	cd.n, cd.m = n, m
	cd.ids = zeroed(cd.ids, n*m)
	cd.off = zeroed(cd.off, m+1)
	st.cnt = st.cnt[:0]
	st.nu = zeroed(st.nu, m)
	st.n, st.weight = n, 0
	for _, u := range members {
		st.weight += u.Count
	}
	for i := 0; i < m; i++ {
		sc.tab.reset(n)
		ids := cd.ids[i*n : (i+1)*n]
		base := len(st.cnt)
		var nu int32
		for j, u := range members {
			id, fresh := sc.tab.id(u.Enc[i], nu)
			if fresh {
				nu++
				st.cnt = append(st.cnt, 0)
			}
			ids[j] = id
			st.cnt[base+int(id)]++
		}
		st.nu[i] = nu
		cd.off[i+1] = cd.off[i] + nu
	}
	return st
}

// open returns cluster c of a clustering process over sc.cd, empty and
// stale, reusing the buffers of an earlier process's cluster c.
func (sc *scratch) open(c int) *cluster {
	if c == len(sc.clusters) {
		sc.clusters = append(sc.clusters, &cluster{})
	}
	cd, cl := &sc.cd, sc.clusters[c]
	cl.cnt = zeroed(cl.cnt, int(cd.off[cd.m]))
	cl.nu = zeroed(cl.nu, cd.m)
	cl.n, cl.weight = 0, 0
	cl.w = zeroed(cl.w, cd.m)
	cl.sim = zeroed(cl.sim, cd.n)
	cl.stale = true
	return cl
}

// posStats summarizes per-position token distributions over a set of
// members of one coding. It backs both the positional-similarity distance
// (Eq. 2) and the saturation score (Eq. 3).
type posStats struct {
	// cnt[off[i]+id] is the number of members carrying local token id at
	// position i. Members are unique (deduplicated) logs; each counts 1.
	cnt []int32
	// nu[i] is n_u(i), the number of distinct tokens at position i.
	nu []int32
	// n is the number of member logs.
	n int
	// weight is the duplicate-weighted member count (Σ Count).
	weight int
}

// add incorporates member j of cd, of duplicate weight count.
func (st *posStats) add(cd *coding, j, count int) {
	for i := 0; i < cd.m; i++ {
		p := cd.off[i] + cd.ids[i*cd.n+j]
		if st.cnt[p] == 0 {
			st.nu[i]++
		}
		st.cnt[p]++
	}
	st.n++
	st.weight += count
}

// remove is the inverse of add.
func (st *posStats) remove(cd *coding, j, count int) {
	for i := 0; i < cd.m; i++ {
		p := cd.off[i] + cd.ids[i*cd.n+j]
		st.cnt[p]--
		if st.cnt[p] == 0 {
			st.nu[i]--
		}
	}
	st.n--
	st.weight -= count
}

// positions returns the token count m.
func (st *posStats) positions() int { return len(st.nu) }

// weights returns the Eq.-2 position weights w_i = 1/(n_i − 1), capped at
// 2 for constant positions where the paper's formula divides by zero, or
// all 1 under the NoPositionImportance ablation; and their sum Σw_i,
// accumulated in position order.
func (st *posStats) weights(w []float64, noPositionImportance bool) float64 {
	var den float64
	for i, ni := range st.nu {
		if noPositionImportance {
			w[i] = 1
		} else {
			d := float64(ni) - 1
			if d < 0.5 {
				d = 0.5
			}
			w[i] = 1 / d
		}
		den += w[i]
	}
	return den
}

// similarities computes the positional similarity of Eq. 2 between every
// member j of cd and the cluster summarized by st, writing it to sim[j]:
//
//	sim(L,C) = Σ w_i · f_i(L,C) / Σ w_i
//
// where f_i is the relative frequency of L's token at position i among the
// cluster members and w, den are st.weights. Values lie in [0,1]; the
// paper's "distance" is 1 − similarity, and logs are assigned to the most
// similar cluster. Each member's terms are summed in position order.
func (st *posStats) similarities(cd *coding, w []float64, den float64, sim []float64) {
	clear(sim)
	if st.n == 0 || den == 0 {
		return
	}
	inv := 1.0 / float64(st.n)
	for i := 0; i < cd.m; i++ {
		wi := w[i]
		cnt := st.cnt[cd.off[i]:cd.off[i+1]]
		for j, id := range cd.ids[i*cd.n : (i+1)*cd.n] {
			f := float64(cnt[id]) * inv
			sim[j] += wi * f
		}
	}
	for j := range sim {
		sim[j] /= den
	}
}

// Variable declaration thresholds: a position whose distinct-token count
// reaches both bounds is a "likely variable" (§4.5: saturation "considers
// both confirmed constants and likely variables") and counts as resolved.
// The minimum-evidence guard keeps tiny nodes — like the three-log sets of
// Fig. 5 — in the conservative regime where only structure, not
// statistics, can resolve a position. Table 4 shows the effect at scale:
// high-cardinality positions (lock, uid, pid) stay wildcards at every
// precision level while low-cardinality positions (name, ws) keep
// refining.
const (
	declareMinDistinct = 10
	declareAbsolute    = 32
	declareRatio       = 0.3
)

// declaredVariable reports whether position i is statistically resolved as
// a variable: at least declareMinDistinct distinct tokens, and either a
// large absolute vocabulary (bounded variables like ports and PIDs stay
// below any fixed fraction of n once n is large) or a high distinct ratio
// (small nodes where most members disagree at the position).
func (st *posStats) declaredVariable(i int) bool {
	nu := int(st.nu[i])
	if nu < declareMinDistinct {
		return false
	}
	return nu >= declareAbsolute || float64(nu) >= declareRatio*float64(st.n)
}

// fullyDistinctVariable reports whether a position with nu distinct tokens
// qualifies for the small-node fully-distinct rule (Fig. 5 Set 1): nearly
// every member carries its own value, and members are barely duplicated. A
// handful of unique values carrying heavy duplicate weight is categorical
// evidence, not variable sampling, hence the weight guard.
func (st *posStats) fullyDistinctVariable(nu int) bool {
	if st.weight > 3*st.n || st.n < 3 {
		return false
	}
	if nu == st.n {
		return true
	}
	// Larger nodes tolerate one repeated value.
	return st.n >= 6 && nu >= st.n-1
}

// saturation computes s(C) per Eq. 3. This reading of the equation
// reproduces every value of Fig. 5 and the Table-4 refinement behaviour.
// Positions are classified:
//
//   - constant: n_u = 1;
//   - declared variable: statistically variable — n_u ≥ declareMinDistinct
//     (10) and either n_u ≥ declareAbsolute (32) or n_u ≥ declareRatio·n
//     (0.3·n), see declaredVariable — the "likely variables" of §4.5;
//   - fully distinct: nearly every member carries its own token (n_u = n,
//     or n_u ≥ n−1 once n ≥ 6) in a barely duplicated node of n ≥ 3 (the
//     Fig.-5 Set-1 case, see fullyDistinctVariable);
//   - ambiguous: everything else — a mid-cardinality position that could
//     be a pooled variable or a categorical constant; only further
//     splitting (Table 4: name → android, ws → null) can tell.
//
// Then with resolved = constants + declared, plus the fully distinct
// positions when no position is ambiguous:
//
//	f_c = resolved/m
//	f_v = min_i ln(n_u(i))/ln(weight)   over unresolved positions, capped at 1
//	p_c = 1/2^(m−resolved−1)            confidence in the unresolved evidence
//	s   = (f_v·p_c + (1−p_c)) · f_c
//
// where weight is the duplicate-weighted member count (Σ Count), and
// s = 1 when nothing is unresolved (or the node has ≤ 1 member).
// Fully-distinct positions are suspended from declaration when ambiguous
// positions coexist — Fig. 5 Set 2's point that apparent variables may be
// structurally correlated with unresolved structure.
func (st *posStats) saturation(o *Options) float64 {
	m := st.positions()
	if st.n <= 1 || m == 0 {
		return 1
	}
	noVar := o != nil && o.NoVariableSaturation
	constants := 0
	declared := 0
	fullyDistinct := 0
	ambiguous := 0
	for i := range st.nu {
		nu := int(st.nu[i])
		switch {
		case nu == 1:
			constants++
		case st.declaredVariable(i):
			declared++
		case st.fullyDistinctVariable(nu):
			fullyDistinct++
		default:
			ambiguous++
		}
	}
	if noVar {
		// Ablation: only confirmed constants count (s = f_c).
		return float64(constants) / float64(m)
	}
	resolved := constants + declared
	if ambiguous == 0 {
		resolved += fullyDistinct
	}
	if resolved == m {
		return 1
	}
	// Unresolved = ambiguous plus any suspended fully-distinct positions.
	// The variability scale divides by the *total* (duplicate-weighted)
	// log count, per the paper's "let n be the total number of logs": a
	// position with six values over six barely-duplicated logs is highly
	// variable, the same six values over six hundred logs are categorical.
	minFv := math.Inf(1)
	logN := math.Log(float64(st.weight))
	for i := range st.nu {
		nu := int(st.nu[i])
		if nu == 1 || st.declaredVariable(i) {
			continue
		}
		if logN > 0 {
			fv := math.Log(float64(nu)) / logN
			if fv < minFv {
				minFv = fv
			}
		}
	}
	fc := float64(resolved) / float64(m)
	fv := minFv
	if math.IsInf(fv, 1) {
		fv = 0
	}
	if fv > 1 {
		fv = 1
	}
	if o != nil && o.NoConfidenceFactor {
		return fv * fc
	}
	pc := math.Pow(2, -float64(m-resolved-1))
	return (fv*pc + (1 - pc)) * fc
}

// template renders the node template: constant positions keep their token
// from rep, all others become the wildcard.
func (st *posStats) template(rep []string) []string {
	t := make([]string, st.positions())
	for i, nu := range st.nu {
		if nu == 1 {
			t[i] = rep[i]
		} else {
			t[i] = Wildcard
		}
	}
	return t
}
