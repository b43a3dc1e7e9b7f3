// Package core implements the ByteBrain hierarchical-clustering log parser:
// offline training (§4.1–§4.7 of the paper), the clustering-tree model, and
// online matching (§4.8).
//
// The offline pipeline is
//
//	raw lines → variable replacement → tokenization → hash encoding →
//	deduplication → initial grouping → per-group hierarchical clustering
//
// producing a forest of template nodes whose saturation score increases
// with depth. Query-time precision control walks node ancestry against a
// user threshold; online matching compares logs against template text in
// descending saturation order.
package core

import (
	"bytebrain/internal/tokenize"
	"bytebrain/internal/vars"
)

// Wildcard is the template placeholder for a variable position. It is
// shared with the variable replacer so replaced variables and discovered
// variables render identically.
const Wildcard = vars.Wildcard

// Options configures a Parser. The zero value is usable: every field has a
// production default, and the No*/Random* flags exist to reproduce the
// paper's ablation variants (Fig. 8 and Fig. 9).
type Options struct {
	// Tokenizer splits preprocessed lines into tokens. Defaults to the
	// fast Listing-1 scanner.
	Tokenizer tokenize.Tokenizer
	// Replacer rewrites obvious variables before tokenization. Defaults
	// to vars.Default(). Use vars.None() to disable.
	Replacer *vars.Replacer
	// PrefixLen is the k of initial grouping: logs whose first k tokens
	// differ are split into different groups. Default 0, as in the paper.
	PrefixLen int
	// Seed drives every randomized choice (centroid seeding, balanced
	// tie-breaking). Training is deterministic for a fixed seed.
	Seed int64
	// Parallelism bounds worker goroutines in training and batch
	// matching. Default 4, mirroring the paper's 1–5 core production
	// budget. Set 1 for the "ByteBrain Sequential" variant.
	Parallelism int
	// MaxDepth caps clustering-tree depth as a safety valve. Default 48.
	MaxDepth int
	// MaxIters caps reassignment iterations in one clustering process.
	// Default 12.
	MaxIters int
	// MergeThreshold is the template similarity above which retrained
	// templates merge into existing nodes (§3, model merging). Default
	// 0.8.
	MergeThreshold float64

	// Ablation switches. Each one disables exactly one proposed
	// technique, matching the variant names in §5.4.

	// NoVariableSaturation sets s(C) = f_c (drops the variable term).
	NoVariableSaturation bool
	// NoPositionImportance sets w_i = 1 in the positional similarity.
	NoPositionImportance bool
	// NoConfidenceFactor sets s(C) = f_v·f_c (drops p_c).
	NoConfidenceFactor bool
	// RandomCentroids picks both initial centroids uniformly instead of
	// the K-means++ farthest-point rule.
	RandomCentroids bool
	// NoEnsureSaturationIncrease never injects extra clusters when a
	// split fails to improve saturation.
	NoEnsureSaturationIncrease bool
	// NoBalancedGrouping breaks similarity ties by first cluster instead
	// of uniformly at random.
	NoBalancedGrouping bool
	// NoEarlyStop disables the three §4.7 shortcuts.
	NoEarlyStop bool
	// NoDedup feeds the raw duplicated stream to clustering.
	NoDedup bool
	// OrdinalEncoding replaces hash encoding with a dictionary encoder.
	OrdinalEncoding bool
	// LinearMatch disables the (length, first-token) match index and
	// scans templates sequentially, as the pre-optimization matcher did.
	LinearMatch bool
}

const (
	defaultParallelism    = 4
	defaultMaxDepth       = 48
	defaultMaxIters       = 12
	defaultMergeThreshold = 0.8
)

// withDefaults returns a copy of o with unset fields replaced by defaults.
func (o Options) withDefaults() Options {
	if o.Tokenizer == nil {
		o.Tokenizer = tokenize.NewFast()
	}
	if o.Replacer == nil {
		o.Replacer = vars.Default()
	}
	if o.Parallelism <= 0 {
		o.Parallelism = defaultParallelism
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = defaultMaxDepth
	}
	if o.MaxIters <= 0 {
		o.MaxIters = defaultMaxIters
	}
	if o.MergeThreshold <= 0 {
		o.MergeThreshold = defaultMergeThreshold
	}
	return o
}
