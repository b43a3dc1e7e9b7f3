package core

import (
	"fmt"
	"math/rand"
	"testing"

	"bytebrain/internal/datagen"
	"bytebrain/internal/dedup"
	"bytebrain/internal/encode"
	"bytebrain/internal/grouping"
)

// This file keeps the clustering process as it was before cluster
// statistics became incremental — per-position token maps, rebuilt from
// scratch after every pass — as the oracle the incremental clusterOnce is
// checked against. Only the names changed; saturation is the production
// formula, fed the oracle's distinct counts.

// refStats is the map-based posStats of the oracle.
type refStats struct {
	counts []map[uint64]int
	rep    []string
	n      int
	weight int
}

func newRefStats(members []*dedup.Unique) *refStats {
	if len(members) == 0 {
		return &refStats{}
	}
	m := len(members[0].Tokens)
	st := &refStats{
		counts: make([]map[uint64]int, m),
		rep:    members[0].Tokens,
		n:      len(members),
	}
	for i := 0; i < m; i++ {
		st.counts[i] = make(map[uint64]int, 4)
	}
	for _, u := range members {
		st.weight += u.Count
		for i, code := range u.Enc {
			st.counts[i][code]++
		}
	}
	return st
}

func (st *refStats) similarity(enc []uint64, noPositionImportance bool) float64 {
	if st.n == 0 || len(enc) != len(st.counts) {
		return 0
	}
	var num, den float64
	inv := 1.0 / float64(st.n)
	for i, code := range enc {
		var w float64
		if noPositionImportance {
			w = 1
		} else {
			ni := len(st.counts[i])
			d := float64(ni) - 1
			if d < 0.5 {
				d = 0.5
			}
			w = 1 / d
		}
		f := float64(st.counts[i][code]) * inv
		num += w * f
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func (st *refStats) add(u *dedup.Unique) {
	if st.counts == nil {
		m := len(u.Tokens)
		st.counts = make([]map[uint64]int, m)
		for i := range st.counts {
			st.counts[i] = make(map[uint64]int, 4)
		}
		st.rep = u.Tokens
	}
	for i, code := range u.Enc {
		st.counts[i][code]++
	}
	st.n++
	st.weight += u.Count
}

// saturation scores the oracle's statistics with the one production
// formula.
func (st *refStats) saturation(o *Options) float64 {
	ps := posStats{nu: make([]int32, len(st.counts)), n: st.n, weight: st.weight}
	for i := range st.counts {
		ps.nu[i] = int32(len(st.counts[i]))
	}
	return ps.saturation(o)
}

func refClusterOnce(members []*dedup.Unique, parentSat float64, o *Options, rng *rand.Rand) [][]*dedup.Unique {
	n := len(members)
	if n < 2 {
		return [][]*dedup.Unique{members}
	}

	first := rng.Intn(n)
	var second int
	if o.RandomCentroids {
		second = rng.Intn(n - 1)
		if second >= first {
			second++
		}
	} else {
		seedStats := newRefStats(members[first : first+1])
		best, bestSim := -1, 2.0
		for i, u := range members {
			if i == first {
				continue
			}
			sim := seedStats.similarity(u.Enc, o.NoPositionImportance)
			if sim < bestSim {
				bestSim, best = sim, i
			}
		}
		second = best
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	assign[first], assign[second] = 0, 1
	k := 2

	var clusterStats []*refStats
	rebuild := func() {
		clusterStats = make([]*refStats, k)
		for c := 0; c < k; c++ {
			clusterStats[c] = &refStats{}
		}
		for i, u := range members {
			if assign[i] >= 0 {
				clusterStats[assign[i]].add(u)
			}
		}
	}
	rebuild()

	ties := make([]int, 0, 4)
	for iter := 0; iter < o.MaxIters; iter++ {
		changed := false
		next := make([]int, n)
		for i, u := range members {
			bestSim := -1.0
			ties = ties[:0]
			for c := 0; c < k; c++ {
				if clusterStats[c].n == 0 {
					continue
				}
				sim := clusterStats[c].similarity(u.Enc, o.NoPositionImportance)
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
				choice = ties[rng.Intn(len(ties))]
			}
			next[i] = choice
			if next[i] != assign[i] {
				changed = true
			}
		}
		assign = next
		rebuild()

		grew := false
		if !o.NoEnsureSaturationIncrease && k < n {
			for c := 0; c < k; c++ {
				if clusterStats[c].n == 0 {
					continue
				}
				if clusterStats[c].n == n || clusterStats[c].saturation(o) <= parentSat+satEps {
					far := refFarthestMember(members, clusterStats, o)
					if far >= 0 {
						assign[far] = k
						k++
						rebuild()
						grew = true
					}
					break
				}
			}
		}
		if !changed && !grew {
			break
		}
	}

	parts := make([][]*dedup.Unique, k)
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

func refFarthestMember(members []*dedup.Unique, stats []*refStats, o *Options) int {
	best, bestScore := -1, 2.0
	for i, u := range members {
		maxSim := -1.0
		for _, st := range stats {
			if st.n == 0 {
				continue
			}
			if sim := st.similarity(u.Enc, o.NoPositionImportance); sim > maxSim {
				maxSim = sim
			}
		}
		if maxSim < bestScore {
			bestScore, best = maxSim, i
		}
	}
	return best
}

// parityVariants are the option sets the differential test runs under:
// the defaults and every ablation that changes the clustering process.
func parityVariants() map[string]Options {
	return map[string]Options{
		"default":                    {},
		"NoPositionImportance":       {NoPositionImportance: true},
		"NoBalancedGrouping":         {NoBalancedGrouping: true},
		"RandomCentroids":            {RandomCentroids: true},
		"NoEnsureSaturationIncrease": {NoEnsureSaturationIncrease: true},
		"NoVariableSaturation":       {NoVariableSaturation: true},
		"NoConfidenceFactor":         {NoConfidenceFactor: true},
		"NoEarlyStop+NoDedup":        {NoEarlyStop: true, NoDedup: true},
	}
}

// checkClusterParity runs the incremental clusterer and the oracle on the
// same group from the same seed, with the parent saturation production
// would pass (the group's own), and reports the first difference in the
// parts or in the generator state left behind. sc may carry the buffers
// of earlier groups, as it does in a tree build.
func checkClusterParity(members []*dedup.Unique, o *Options, seed int64, sc *scratch) error {
	parentSat := sc.code(members).saturation(o)
	gotRng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got := clusterOnce(members, sc, parentSat, o, gotRng)
	want := refClusterOnce(members, parentSat, o, refRng)
	if len(got) != len(want) {
		return fmt.Errorf("%d parts, reference %d", len(got), len(want))
	}
	for p := range want {
		if len(got[p]) != len(want[p]) {
			return fmt.Errorf("part %d has %d members, reference %d", p, len(got[p]), len(want[p]))
		}
		for i := range want[p] {
			if got[p][i] != want[p][i] {
				return fmt.Errorf("part %d member %d differs from the reference", p, i)
			}
		}
	}
	if a, b := gotRng.Int63(), refRng.Int63(); a != b {
		return fmt.Errorf("next rng draw %d, reference %d: the draw sequence diverged", a, b)
	}
	return nil
}

// randomGroup builds n members of m tokens over a vocabulary of v words,
// drawn with the given skew (0 = uniform, larger = more repeats of the
// first words), with digit-bearing words and random duplicate weights.
func randomGroup(r *rand.Rand, n, m, v int, skew float64, unique bool) []*dedup.Unique {
	vocab := make([]string, v)
	for i := range vocab {
		if i%3 == 2 {
			vocab[i] = fmt.Sprintf("id%d", i)
		} else {
			vocab[i] = fmt.Sprintf("w%c%d", 'a'+i%26, i/26)
		}
	}
	draw := func() string {
		if skew > 0 && r.Float64() < skew {
			return vocab[r.Intn(1+v/8)]
		}
		return vocab[r.Intn(v)]
	}
	seen := make(map[string]bool)
	var members []*dedup.Unique
	for tries := 0; len(members) < n && tries < 20*n; tries++ {
		toks := make([]string, m)
		for i := range toks {
			toks[i] = draw()
		}
		key := fmt.Sprint(toks)
		if unique && seen[key] {
			continue
		}
		seen[key] = true
		u := &dedup.Unique{Tokens: toks, Enc: encode.HashEncoder{}.Encode(nil, toks), Count: 1}
		if r.Intn(3) == 0 {
			u.Count = 1 + r.Intn(50)
		}
		members = append(members, u)
	}
	return members
}

// loghubGroups returns the initial groups Train would cluster for every
// datagen LogHub cut under o.
func loghubGroups(t *testing.T, o Options) [][]*dedup.Unique {
	t.Helper()
	p := New(o)
	var groups [][]*dedup.Unique
	for _, name := range datagen.Names() {
		ds, err := datagen.LogHub(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		records := p.preprocess(ds.Lines)
		var dd dedup.Result
		if p.opts.NoDedup {
			dd = dedup.Passthrough(records, encode.HashEncoder{})
		} else {
			dd = dedup.Collapse(records, encode.HashEncoder{})
		}
		for _, g := range grouping.Split(dd.Uniques, p.opts.PrefixLen) {
			groups = append(groups, g.Records)
		}
	}
	return groups
}

func TestClusterOnceMatchesReference(t *testing.T) {
	for name, v := range parityVariants() {
		t.Run(name, func(t *testing.T) {
			o := v.withDefaults()
			r := rand.New(rand.NewSource(int64(len(name))))
			sc := &scratch{}
			for iter := 0; iter < 150; iter++ {
				n := 2 + r.Intn(60)
				m := r.Intn(9)
				members := randomGroup(r, n, m, 2+r.Intn(40), r.Float64(), !o.NoDedup)
				if len(members) < 2 {
					continue
				}
				if err := checkClusterParity(members, &o, int64(iter), sc); err != nil {
					t.Fatalf("random group %d (n=%d, m=%d): %v", iter, len(members), m, err)
				}
			}
			if testing.Short() {
				return
			}
			for gi, g := range loghubGroups(t, o) {
				if len(g) < 2 {
					continue
				}
				if err := checkClusterParity(g, &o, int64(gi), sc); err != nil {
					t.Fatalf("LogHub group %d (n=%d, m=%d): %v", gi, len(g), len(g[0].Tokens), err)
				}
			}
		})
	}
}

// FuzzClusterParity checks the incremental clusterer against the oracle
// on fuzzer-shaped groups: the input bytes pick the group's shape, its
// tokens, the options and the seed.
func FuzzClusterParity(f *testing.F) {
	f.Add([]byte("\x05\x03\x04abcabcabcabcabc"), int64(1), uint16(0))
	f.Add([]byte("\x10\x02\x02\x00\x01\x00\x01\x01\x01\x00\x00"), int64(7), uint16(0x1ff))
	f.Add([]byte("\x20\x06\x10the quick brown fox jumps over the lazy dog 0123456789"), int64(3), uint16(0x41))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, flags uint16) {
		if len(data) < 3 {
			return
		}
		n, m, v := 2+int(data[0])%62, int(data[1])%10, 1+int(data[2])%32
		data = data[3:]
		o := Options{
			NoPositionImportance:       flags&1 != 0,
			NoBalancedGrouping:         flags&2 != 0,
			RandomCentroids:            flags&4 != 0,
			NoEnsureSaturationIncrease: flags&8 != 0,
			NoVariableSaturation:       flags&16 != 0,
			NoConfidenceFactor:         flags&32 != 0,
			NoEarlyStop:                flags&128 != 0,
			NoDedup:                    flags&256 != 0,
		}.withDefaults()
		at := func(k int) int {
			if len(data) == 0 {
				return k
			}
			return int(data[k%len(data)])
		}
		members := make([]*dedup.Unique, n)
		for j := range members {
			toks := make([]string, m)
			for i := range toks {
				toks[i] = fmt.Sprintf("t%d", at(j*m+i)%v)
			}
			members[j] = &dedup.Unique{Tokens: toks, Enc: encode.HashEncoder{}.Encode(nil, toks), Count: 1 + at(n*m+j)%4}
		}
		if err := checkClusterParity(members, &o, seed, &scratch{}); err != nil {
			t.Fatalf("n=%d m=%d v=%d flags=%#x: %v", n, m, v, flags, err)
		}
	})
}
