package experiments

import (
	"fmt"
	"strconv"

	"bytebrain/internal/core"
	"bytebrain/internal/datagen"
	"bytebrain/internal/encode"
	"bytebrain/internal/metrics"
	"bytebrain/internal/tokenize"
	"bytebrain/internal/vars"
)

// accuracyVariants are the Fig. 8 ablations.
func accuracyVariants(cfg Config) []struct {
	name string
	opts core.Options
} {
	base := core.Options{Seed: cfg.Seed, Parallelism: cfg.Parallelism}
	with := func(mod func(*core.Options)) core.Options {
		o := base
		mod(&o)
		return o
	}
	return []struct {
		name string
		opts core.Options
	}{
		{"ByteBrain", base},
		{"w/ naive match", with(func(o *core.Options) {})}, // handled specially below
		{"w/o variable in saturation", with(func(o *core.Options) { o.NoVariableSaturation = true })},
		{"w/o position importance", with(func(o *core.Options) { o.NoPositionImportance = true })},
		{"w/o confidence factor", with(func(o *core.Options) { o.NoConfidenceFactor = true })},
		{"random centroid selection", with(func(o *core.Options) { o.RandomCentroids = true })},
	}
}

// Fig8 reproduces the accuracy ablation: each variant's mean GA on the
// LogHub suite and on scaled LogHub-2.0.
func Fig8(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "fig8",
		Title:  "Accuracy ablation (mean GA)",
		Note:   "w/ naive match scores the clustering assignments directly instead of text matching (§5.4.1); the other variants disable one technique each.",
		Header: []string{"Variant", "LogHub", "LogHub-2.0"},
	}
	lh := datagen.Names()
	lh2 := datagen.LogHub2Names()
	for _, v := range accuracyVariants(cfg) {
		naive := v.name == "w/ naive match"
		var lhGAs, lh2GAs []float64
		for _, name := range lh {
			ds, err := datagen.LogHub(name, cfg.Seed)
			if err != nil {
				return nil, err
			}
			ga, err := variantGA(ds, v.opts, cfg.Threshold, naive)
			if err != nil {
				return nil, err
			}
			lhGAs = append(lhGAs, ga)
		}
		for _, name := range lh2 {
			ds, err := datagen.LogHub2(name, cfg.Scale/3, cfg.Seed)
			if err != nil {
				return nil, err
			}
			ga, err := variantGA(ds, v.opts, cfg.Threshold, naive)
			if err != nil {
				return nil, err
			}
			lh2GAs = append(lh2GAs, ga)
		}
		m1, _ := metrics.MeanStd(lhGAs)
		m2, _ := metrics.MeanStd(lh2GAs)
		t.Rows = append(t.Rows, []string{v.name, f3(m1), f3(m2)})
	}
	return t, nil
}

// variantGA scores one variant on one dataset; naive uses the training
// assignments instead of online matching.
func variantGA(ds *datagen.Dataset, opts core.Options, threshold float64, naive bool) (float64, error) {
	p := core.New(opts)
	res, err := p.Train(ds.Lines)
	if err != nil {
		return 0, err
	}
	pred := make([]int, len(ds.Lines))
	if naive {
		for i, id := range res.Assign {
			n, err := res.Model.TemplateAt(id, threshold)
			if err != nil {
				return 0, err
			}
			pred[i] = int(n.ID)
		}
	} else {
		matcher, err := p.NewMatcher(res.Model)
		if err != nil {
			return 0, err
		}
		for i, r := range matcher.MatchBatch(ds.Lines) {
			n, err := matcher.TemplateAt(r.NodeID, threshold)
			if err != nil {
				return 0, err
			}
			pred[i] = int(n.ID)
		}
	}
	return metrics.GroupingAccuracy(pred, ds.Truth)
}

// Fig9 reproduces the efficiency ablation: throughput of each variant on
// the four largest datasets, beside the variant's mean GA over them, so a
// variant that is faster only because it parses worse shows as such.
func Fig9(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	names := []string{"BGL", "HDFS", "Spark", "Thunderbird"}
	t := &Table{
		ID:     "fig9",
		Title:  "Efficiency ablation: throughput (logs/s) on the four largest datasets",
		Note:   "Each variant disables one efficiency technique; w/o deduplication also disables its dependent optimizations, as in the paper. Mean GA is over the same four datasets at the configured threshold.",
		Header: append(append([]string{"Variant"}, names...), "Mean GA"),
	}
	mk := func(mod func(*core.Options)) core.Options {
		o := core.Options{Seed: cfg.Seed, Parallelism: cfg.Parallelism}
		mod(&o)
		return o
	}
	rows := []struct {
		name string
		opts core.Options
	}{
		{"ByteBrain", mk(func(o *core.Options) {})},
		{"w/o early stopping", mk(func(o *core.Options) { o.NoEarlyStop = true })},
		{"w/o ensure saturation increase", mk(func(o *core.Options) { o.NoEnsureSaturationIncrease = true })},
		{"w/o position importance", mk(func(o *core.Options) { o.NoPositionImportance = true })},
		{"ordinal encoding", mk(func(o *core.Options) { o.OrdinalEncoding = true })},
		{"w/o balanced group", mk(func(o *core.Options) { o.NoBalancedGrouping = true })},
		{"w/o variable in saturation", mk(func(o *core.Options) { o.NoVariableSaturation = true })},
		{"w/o deduplication & related techs", mk(func(o *core.Options) { o.NoDedup = true; o.NoBalancedGrouping = true; o.NoEarlyStop = true })},
	}
	datasets := make([]*datagen.Dataset, len(names))
	for i, n := range names {
		ds, err := datagen.LogHub2(n, cfg.Scale/3, cfg.Seed)
		if err != nil {
			return nil, err
		}
		datasets[i] = ds
	}
	for _, v := range rows {
		row := []string{v.name}
		var gas []float64
		for _, ds := range datasets {
			r, err := runByteBrain(ds, v.opts, cfg.Threshold)
			if err != nil {
				return nil, err
			}
			row = append(row, sci(r.Throughput))
			gas = append(gas, r.GA)
		}
		mean, _ := metrics.MeanStd(gas)
		t.Rows = append(t.Rows, append(row, f3(mean)))
	}
	return t, nil
}

// Fig10 reproduces the storage study: the token→ID dictionary an ordinal
// encoding would need, per dataset, versus raw log bytes — the savings
// hash encoding realizes by needing no dictionary at all.
func Fig10(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "fig10",
		Title:  "Ordinal-encoding dictionary size vs. log size",
		Note:   "Hash encoding stores none of this: the dictionary column is pure savings.",
		Header: []string{"Dataset", "Log bytes", "Distinct tokens", "Dictionary bytes", "Dict/Log %"},
	}
	tok := tokenize.NewFast()
	repl := vars.Default()
	for _, name := range datagen.LogHub2Names() {
		ds, err := datagen.LogHub2(name, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		enc := encode.NewOrdinalEncoder()
		for _, l := range ds.Lines {
			toks := vars.CanonicalizeTokens(tok.Tokenize(repl.ReplaceTokenSafe(l)))
			for _, tkn := range toks {
				enc.EncodeToken(tkn)
			}
		}
		dict := enc.DictBytes()
		t.Rows = append(t.Rows, []string{
			name,
			strconv.FormatInt(ds.Bytes, 10),
			strconv.Itoa(enc.Len()),
			strconv.FormatInt(dict, 10),
			fmt.Sprintf("%.2f%%", 100*float64(dict)/float64(ds.Bytes)),
		})
	}
	return t, nil
}

// Fig11 reproduces the threshold-sensitivity sweep: GA at saturation
// thresholds 0.2–0.9 per dataset.
func Fig11(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	thresholds := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	header := []string{"Dataset"}
	for _, th := range thresholds {
		header = append(header, f2(th))
	}
	t := &Table{
		ID:     "fig11",
		Title:  "Group accuracy vs. saturation threshold",
		Note:   "One trained model per dataset, re-evaluated at each threshold (no retraining — the adaptivity claim).",
		Header: header,
	}
	for _, name := range []string{"Apache", "BGL", "HDFS", "HPC", "Hadoop", "HealthApp", "Mac", "OpenSSH", "OpenStack", "Spark", "Thunderbird", "Zookeeper"} {
		ds, err := datagen.LogHub(name, cfg.Seed)
		if err != nil {
			return nil, err
		}
		p := core.New(core.Options{Seed: cfg.Seed, Parallelism: cfg.Parallelism})
		res, err := p.Train(ds.Lines)
		if err != nil {
			return nil, err
		}
		matcher, err := p.NewMatcher(res.Model)
		if err != nil {
			return nil, err
		}
		matched := matcher.MatchBatch(ds.Lines)
		row := []string{name}
		for _, th := range thresholds {
			pred := make([]int, len(ds.Lines))
			for i, r := range matched {
				n, err := matcher.TemplateAt(r.NodeID, th)
				if err != nil {
					return nil, err
				}
				pred[i] = int(n.ID)
			}
			ga, err := metrics.GroupingAccuracy(pred, ds.Truth)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(ga))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
