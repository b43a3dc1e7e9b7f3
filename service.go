package bytebrain

import (
	"bytebrain/internal/analytics"
	"bytebrain/internal/service"
)

// Cloud-service surface (§3 of the paper): topics, ingestion with online
// matching, periodic training with model merging, and query-time precision
// control, plus an HTTP handler for deployment.
type (
	// ServiceConfig tunes the log service (training triggers, sampling
	// cap, default query threshold).
	ServiceConfig = service.Config
	// Service manages log topics.
	Service = service.Service
	// TemplateRow is one grouped query-result row.
	TemplateRow = service.TemplateRow
	// TopicStats reports per-topic operational counters.
	TopicStats = service.Stats
	// TimeRange bounds a query to records with From <= Time <= To (both
	// inclusive; zero sides unbounded). A narrow range over a long
	// history is pushed down to sealed-segment metadata, so only blocks
	// overlapping the range are read.
	TimeRange = service.TimeRange
)

// NewService creates a log-parsing service.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// Analytics surface: the out-of-the-box analyses the paper's introduction
// describes on top of parsing results.
type (
	// TemplateCounts maps template IDs to occurrence counts in a window.
	TemplateCounts = analytics.Counts
	// TemplateChange is one detected anomaly between windows.
	TemplateChange = analytics.Change
	// FailureScenario names a set of templates indicating a known
	// failure.
	FailureScenario = analytics.Scenario
	// TemplateLibrary stores saved templates and failure scenarios.
	TemplateLibrary = analytics.Library
)

// CompareWindows diffs template counts between two time windows,
// reporting new, gone, surging and dropping templates — the paper's
// template-quantity anomaly detection.
func CompareWindows(before, after TemplateCounts, surgeFactor float64) []TemplateChange {
	return analytics.CompareWindows(before, after, surgeFactor)
}

// DistributionDivergence computes the Jensen–Shannon divergence between
// two windows' template distributions (0 = identical, ln 2 = disjoint).
func DistributionDivergence(a, b TemplateCounts) float64 {
	return analytics.JensenShannon(a, b)
}

// NewTemplateLibrary returns an empty template library.
func NewTemplateLibrary() *TemplateLibrary { return analytics.NewLibrary() }
