package core

import (
	"math"
	"math/rand"
	"testing"

	"bytebrain/internal/dedup"
	"bytebrain/internal/encode"
)

func uniq(tokens ...string) *dedup.Unique {
	return &dedup.Unique{
		Tokens: tokens,
		Enc:    encode.HashEncoder{}.Encode(nil, tokens),
		Count:  1,
	}
}

// coded returns a scratch holding members coded as one node.
func coded(members []*dedup.Unique) *scratch {
	sc := &scratch{}
	sc.code(members)
	return sc
}

// statsOf returns the statistics of members as one node.
func statsOf(members []*dedup.Unique) *posStats { return &coded(members).st }

// similarity returns the Eq.-2 similarity of probe to the cluster formed
// by members (all of probe's length).
func similarity(members []*dedup.Unique, probe *dedup.Unique, noPositionImportance bool) float64 {
	sc := coded(append(members[:len(members):len(members)], probe))
	cl := sc.open(0)
	for j, u := range members {
		cl.add(&sc.cd, j, u.Count)
	}
	cl.refresh(&sc.cd, &Options{NoPositionImportance: noPositionImportance})
	return cl.sim[len(members)]
}

// Fig. 5, Set 1: "UserService createUser token=<v> success" with three token
// values. The only unresolved position is the token value, so the node is
// fully resolved (saturation 1.0 as printed in the figure).
func fig5Set1() []*dedup.Unique {
	return []*dedup.Unique{
		uniq("UserService", "createUser", "token", "abc123", "success"),
		uniq("UserService", "createUser", "token", "xyz789", "success"),
		uniq("UserService", "createUser", "token", "def456", "success"),
	}
}

// Fig. 5, Set 2: action and status vary alongside the token value.
func fig5Set2() []*dedup.Unique {
	return []*dedup.Unique{
		uniq("UserService", "createUser", "token", "abc123", "success"),
		uniq("UserService", "deleteUser", "token", "xyz789", "failed"),
		uniq("UserService", "queryUser", "token", "def456", "success"),
	}
}

func TestSaturationFig5Set1(t *testing.T) {
	st := statsOf(fig5Set1())
	if got := st.saturation(&Options{}); got != 1.0 {
		t.Errorf("Set 1 saturation = %v, want 1.0 (single unresolved position is a declared variable)", got)
	}
}

func TestSaturationFig5Set2Root(t *testing.T) {
	st := statsOf(fig5Set2())
	got := st.saturation(&Options{})
	// f_c = 2/5, f_v = min(1, 1, ln2/ln3) = 0.6309, p_c = 1/4:
	// s = (0.6309·0.25 + 0.75)·0.4 = 0.3631 — printed as 0.4 in Fig. 5.
	want := (math.Log(2)/math.Log(3)*0.25 + 0.75) * 0.4
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Set 2 saturation = %v, want %v", got, want)
	}
	if math.Abs(got-0.4) > 0.05 {
		t.Errorf("Set 2 saturation = %v, too far from the figure's 0.4", got)
	}
}

func TestSaturationFig5Subset46(t *testing.T) {
	// {4,6}: createUser/queryUser and abc123/def456 vary, status constant.
	st := statsOf([]*dedup.Unique{
		uniq("UserService", "createUser", "token", "abc123", "success"),
		uniq("UserService", "queryUser", "token", "def456", "success"),
	})
	got := st.saturation(&Options{})
	// Both unresolved positions fully distinct → f_v = 1 → s = f_c = 0.6,
	// exactly the figure's printed value.
	if math.Abs(got-0.6) > 1e-12 {
		t.Errorf("{4,6} saturation = %v, want 0.6", got)
	}
}

func TestSaturationSingletonIsOne(t *testing.T) {
	st := statsOf([]*dedup.Unique{uniq("UserService", "deleteUser", "token", "xyz789", "failed")})
	if got := st.saturation(&Options{}); got != 1.0 {
		t.Errorf("singleton saturation = %v, want 1.0", got)
	}
}

func TestSaturationAllConstantIsOne(t *testing.T) {
	st := statsOf([]*dedup.Unique{
		uniq("a", "b"), uniq("a", "b"),
	})
	if got := st.saturation(&Options{}); got != 1.0 {
		t.Errorf("all-constant saturation = %v, want 1.0", got)
	}
}

func TestSaturationNoConstantsIsZero(t *testing.T) {
	// f_c = 0 forces s = 0 regardless of variability.
	st := statsOf([]*dedup.Unique{
		uniq("a", "x"), uniq("b", "y"), uniq("a", "z"),
	})
	got := st.saturation(&Options{})
	if got != 0 {
		t.Errorf("saturation = %v, want 0 when no position is constant", got)
	}
}

func TestSaturationAblationVariants(t *testing.T) {
	members := fig5Set2()
	st := statsOf(members)
	base := st.saturation(&Options{})

	noVar := st.saturation(&Options{NoVariableSaturation: true})
	if noVar != 0.4 {
		t.Errorf("NoVariableSaturation = %v, want f_c = 0.4", noVar)
	}
	noConf := st.saturation(&Options{NoConfidenceFactor: true})
	wantNoConf := math.Log(2) / math.Log(3) * 0.4
	if math.Abs(noConf-wantNoConf) > 1e-12 {
		t.Errorf("NoConfidenceFactor = %v, want f_v·f_c = %v", noConf, wantNoConf)
	}
	if base == noVar || base == noConf {
		t.Error("ablation variants did not change the score")
	}
}

func TestSaturationInUnitInterval(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	vocab := []string{"a", "b", "c", "d", "e", "f"}
	for iter := 0; iter < 500; iter++ {
		n := 1 + r.Intn(12)
		m := 1 + r.Intn(6)
		members := make([]*dedup.Unique, n)
		for i := range members {
			toks := make([]string, m)
			for j := range toks {
				toks[j] = vocab[r.Intn(len(vocab))]
			}
			members[i] = uniq(toks...)
		}
		for _, o := range []*Options{
			{}, {NoVariableSaturation: true}, {NoConfidenceFactor: true},
		} {
			s := statsOf(members).saturation(o)
			if s < 0 || s > 1 {
				t.Fatalf("saturation %v out of [0,1] (opts %+v)", s, o)
			}
		}
	}
}

func TestSimilarityProperties(t *testing.T) {
	members := fig5Set2()
	for _, u := range members {
		sim := similarity(members, u, false)
		if sim <= 0 || sim > 1 {
			t.Errorf("member similarity %v out of (0,1]", sim)
		}
	}
	// A log sharing only the constant positions scores lower than a
	// member but higher than a completely alien log.
	partial := uniq("UserService", "dropUser", "token", "zzz", "pending")
	alien := uniq("x", "y", "z", "w", "v")
	sp := similarity(members, partial, false)
	sa := similarity(members, alien, false)
	sm := similarity(members, members[0], false)
	if !(sm > sp && sp > sa) {
		t.Errorf("similarity ordering broken: member %v, partial %v, alien %v", sm, sp, sa)
	}
	if sa != 0 {
		t.Errorf("alien similarity = %v, want 0", sa)
	}
}

func TestSimilarityPositionImportance(t *testing.T) {
	// One cluster with a stable position 0 and a noisy position 1. A
	// probe agreeing on the stable position must beat a probe agreeing
	// on the noisy position by a wider margin when importance weighting
	// is on.
	members := []*dedup.Unique{
		uniq("op", "x1"), uniq("op", "x2"), uniq("op", "x3"),
	}
	agreeStable := uniq("op", "zzz")
	agreeNoisy := uniq("other", "x1")
	withW := similarity(members, agreeStable, false) - similarity(members, agreeNoisy, false)
	withoutW := similarity(members, agreeStable, true) - similarity(members, agreeNoisy, true)
	if withW <= withoutW {
		t.Errorf("position importance did not emphasize stable positions: with=%v without=%v", withW, withoutW)
	}
}

func TestTemplateRendering(t *testing.T) {
	members := fig5Set2()
	tmpl := statsOf(members).template(members[0].Tokens)
	want := []string{"UserService", Wildcard, "token", Wildcard, Wildcard}
	for i := range want {
		if tmpl[i] != want[i] {
			t.Errorf("template[%d] = %q, want %q", i, tmpl[i], want[i])
		}
	}
}

func TestUnresolvedPositions(t *testing.T) {
	st := statsOf(fig5Set2())
	var got []int
	for i, nu := range st.nu {
		if nu > 1 {
			got = append(got, i)
		}
	}
	want := []int{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("unresolved = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("unresolved = %v, want %v", got, want)
		}
	}
}

// TestPosStatsAddMatchesBatch checks the incremental updates the
// clusterer relies on: statistics built by adding members one by one, and
// by removing members again, equal a batch count of the members left.
func TestPosStatsAddMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	vocab := []string{"a", "b7", "c", "/d", "e", "f9"}
	for iter := 0; iter < 200; iter++ {
		n, m := 1+r.Intn(12), r.Intn(6)
		members := make([]*dedup.Unique, n)
		for j := range members {
			toks := make([]string, m)
			for i := range toks {
				toks[i] = vocab[r.Intn(len(vocab))]
			}
			members[j] = uniq(toks...)
			members[j].Count = 1 + r.Intn(5)
		}
		sc := coded(members)
		inc := sc.open(0)
		for j, u := range members {
			inc.add(&sc.cd, j, u.Count)
		}
		assertSameStats(t, &inc.posStats, &sc.st)

		keep := r.Intn(n + 1)
		for j := keep; j < n; j++ {
			inc.remove(&sc.cd, j, members[j].Count)
		}
		rest := statsOf(members[:keep])
		if inc.n != rest.n || inc.weight != rest.weight {
			t.Fatalf("after removals: n=%d weight=%d, want %d, %d", inc.n, inc.weight, rest.n, rest.weight)
		}
		if keep == 0 {
			continue
		}
		for i := 0; i < m; i++ {
			if inc.nu[i] != rest.nu[i] {
				t.Fatalf("after removals, position %d: nu %d, want %d", i, inc.nu[i], rest.nu[i])
			}
		}
		for _, o := range []*Options{{}, {NoConfidenceFactor: true}} {
			if a, b := inc.saturation(o), rest.saturation(o); a != b {
				t.Fatalf("after removals: saturation %v, want %v (opts %+v)", a, b, o)
			}
		}
	}
}

func assertSameStats(t *testing.T, got, want *posStats) {
	t.Helper()
	if got.n != want.n || got.weight != want.weight || len(got.cnt) != len(want.cnt) {
		t.Fatalf("incremental stats disagree with batch on shape: n %d/%d weight %d/%d", got.n, want.n, got.weight, want.weight)
	}
	for p := range want.cnt {
		if got.cnt[p] != want.cnt[p] {
			t.Fatalf("count slot %d: inc %d, batch %d", p, got.cnt[p], want.cnt[p])
		}
	}
	for i := range want.nu {
		if got.nu[i] != want.nu[i] {
			t.Fatalf("position %d: inc nu %d, batch %d", i, got.nu[i], want.nu[i])
		}
	}
}
