package main

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
)

// metricDef is one row of the benchmark's metric table — the single
// source of names, units, directions and bounds. BENCHMARK.json must
// agree with it (TestBenchmarkJSONMatchesTable).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // share of the parent's median it may worsen; 0 = per-layer, ungated
	// Moves says, for a per-layer metric, which end-to-end metric it
	// should move and on which workload; for an end-to-end metric, what
	// it measures on each workload.
	Moves string
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"parse-offline", "Train on 60% of HDFS/BGL/Thunderbird LogHub-2.0 cuts, MatchBatch the rest: only tokenize/vars/encode/dedup/core work; store and transports idle (the paper's Fig. 6)"},
	{"ingest-fresh", "Service.Ingest of streamed HDFS lines, ~95% distinct, trainer on: line-cache misses, so core.match and vars dominate and the durable store is a minor share"},
	{"ingest-repeat", "Service.Ingest of a reshuffled 8192-line BGL pool, trainer off: >99% line-cache hits, so WAL, seal and segment.encode dominate and the parser is idle"},
	{"ingest-tcp", "Cached pool lines in 8-line frames over one framed-TCP connection into an in-memory store: only netingest transport work is left"},
	{"ingest-http", "The same pool and store as ingest-tcp reached by one keep-alive HTTP connection, POST /logs with 8 lines: only net/http and the handler are left"},
	{"query-mixed", "Open-loop TCP writer at 20k lines/s beside a closed-loop HTTP reader cycling five query kinds on a sealed multi-block store: lock and seal contention between reads and writes"},
}

// endToEnd lists the gated metrics, measured with tracing off. Every
// workload reports every one of them; Moves gives the per-workload
// meaning.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"median of 3 full set-ups: generate inputs, open service/store, warm-up ingest, forced Train, preload, listeners"},
	{"logs_per_s", "1/s", "higher", 0.25,
		"lines per wall second through the write path: Train + MatchBatch over the three cuts, median over rounds (parse-offline); acked Service.Ingest lines (ingest-fresh, ingest-repeat); acked frames' lines (ingest-tcp); 200-answered POST lines (ingest-http); acked open-loop lines (query-mixed: the offered 20k/s unless a backlog grows)"},
	{"write_p50_ms", "ms", "lower", 0.25,
		"median latency of one write op: a 256-line MatchBatch call (parse-offline: median over rounds of the round's mean, so 256/this is the uncached match rate); a 256-line Service.Ingest call (ingest-fresh, ingest-repeat); an 8-line frame send-to-ack (ingest-tcp); an 8-line POST (ingest-http); a 64-line frame due-to-ack (query-mixed)"},
	{"alloc_bytes_per_line", "B/line", "lower", 0.15,
		"MemStats.TotalAlloc delta over the write phase per line written, generator allocation subtracted; on query-mixed over the preload, because the window's allocation is mostly the reader's"},
	{"grouping_accuracy", "ratio", "higher", 0.06,
		"strict grouping accuracy against generator truth: mean over the three cuts' Train assignments (parse-offline); stored template IDs of the first post-training lines, all matched by the first model generation (all others)"},
	{"stored_bytes_per_raw_byte", "ratio", "lower", 0.15,
		"bytes the configuration keeps per raw byte it was given: serialized models plus one 8-byte template ID per trained line (parse-offline), data dir after Compact (ingest-fresh, ingest-repeat, query-mixed), live heap after GC (ingest-tcp, ingest-http, whose store is in memory)"},
	{"query_cycle_ms", "ms", "lower", 0.25,
		"median wall time of one pass of the closed-loop reader over its query cycle: one roll-up of every cut's held-out template IDs to threshold 0.7 through Matcher.TemplateAt (parse-offline); the 16-query HTTP cycle (5 grouped, 4 range, 4 templates, 2 samples, 1 rare-token search) beside the writer (query-mixed) or on the store as set-up left it, before the write phase (all others)"},
}

// perLayer lists the ungated metrics of the traced run. A workload
// reports 0 for a layer it does not exercise.
var perLayer = []metricDef{
	// Tails and per-kind query latencies: reported, not gated, because
	// their spread over ten seeds on the calibration box is more than a
	// third of the widest bound the driver allows.
	{"write_p99_ms", "ms", "lower", 0, "median over 5 time-slices of the per-slice p99 write-op latency (the op of write_p50_ms)"},
	{"query_p99_ms", "ms", "lower", 0, "worst per-kind slice-median p99 over the query kinds the workload runs"},
	{"service.query.grouped.p50_ms", "ms", "lower", 0, "grouped query at threshold 0.7 -> query_cycle_ms (5 of the 16 queries of a cycle)"},
	{"service.query.range.p50_ms", "ms", "lower", 0, "grouped query over a 15-simulated-minute range -> query_cycle_ms, query_p99_ms; moved by segment pruning on query-mixed"},
	{"service.query.search.p50_ms", "ms", "lower", 0, "rare-token search -> query_cycle_ms (its largest share), query_p99_ms; moved by bloom screening and segment.decode on query-mixed"},
	{"service.query.templates.p50_ms", "ms", "lower", 0, "templates?id= with a range -> query_cycle_ms, query_p99_ms on query-mixed"},
	{"service.query.samples.p50_ms", "ms", "lower", 0, "query?samples=1 -> query_cycle_ms, query_p99_ms on query-mixed; moved by logstore.get_batch"},
	{"writer.late_p99_ms", "ms", "lower", 0, "how late the open-loop generator sent frames on query-mixed; large values mean the generator, not the service, set write latency"},

	// Parser layers, measured by direct calls on parse-offline.
	{"tokenize.fast.ns_per_line", "ns/line", "lower", 0, "-> logs_per_s, write_p50_ms on parse-offline; logs_per_s on ingest-fresh; no move on ingest-repeat, ingest-tcp, ingest-http, query-mixed"},
	{"vars.replace.ns_per_line", "ns/line", "lower", 0, "-> same as tokenize.fast; the largest share of an uncached match"},
	{"encode.hash.ns_per_line", "ns/line", "lower", 0, "-> logs_per_s on parse-offline (training is ~85% of a round)"},
	{"dedup.collapse.ns_per_line", "ns/line", "lower", 0, "-> logs_per_s on parse-offline (training is ~85% of a round)"},
	{"dedup.unique_ratio", "ratio", "lower", 0, "distinct token sequences / lines after variable masking; sets how much clustering work Train does"},
	{"core.preprocess.ns_per_line", "ns/line", "lower", 0, "vars + tokenize + canonicalize, as Train and Match run it -> logs_per_s on parse-offline and ingest-fresh"},
	{"core.train.ns_per_line", "ns/line", "lower", 0, "-> logs_per_s on parse-offline (training is ~85% of a round)"},
	{"core.train.templates", "count", "lower", 0, "model nodes after Train; moves grouping_accuracy and core.match"},
	{"core.match.ns_per_line", "ns/line", "lower", 0, "single uncached Matcher.Match -> logs_per_s on parse-offline and ingest-fresh"},
	{"core.match_batch.ns_per_line", "ns/line", "lower", 0, "256-line MatchBatch calls -> write_p50_ms on parse-offline, logs_per_s on ingest-fresh"},
	{"core.match.temp_ratio", "ratio", "lower", 0, "held-out lines landing in the temporary-template overlay / lines"},
	{"core.model.marshal_ms", "ms", "lower", 0, "Model.MarshalBinary -> train cycle time on ingest-fresh"},

	// Service layer, from counters the service already exposes.
	{"service.ingest.ns_per_line", "ns/line", "lower", 0, "-> logs_per_s on ingest-fresh and ingest-repeat"},
	{"service.line_cache.hit_ratio", "ratio", "higher", 0, "the regime check: <0.15 on ingest-fresh, >0.99 on ingest-repeat/tcp/http"},
	{"service.line_cache.evictions", "count", "lower", 0, "whole-generation evictions; non-zero only when distinct lines out-card the 64Ki cache (ingest-fresh)"},
	{"service.train_swaps", "count", "higher", 0, "model swaps published during the run; each drops the line cache (ingest-fresh)"},
	{"service.ingest.match_share", "ratio", "lower", 0, "bb_ingest_match_seconds / ingest wall: >0.6 on ingest-fresh, <0.4 on ingest-repeat"},
	{"service.ingest.append_share", "ratio", "lower", 0, "bb_ingest_append_seconds / ingest wall"},
	{"service.ingest.unattributed_share", "ratio", "lower", 0, "1 - match_share - append_share: the ROADMAP-1 reconciliation figure"},

	// Store and segment layers, direct calls with pre-resolved IDs.
	{"logstore.append_batch.mem.ns_per_line", "ns/line", "lower", 0, "-> logs_per_s on ingest-tcp, ingest-http"},
	{"logstore.append_batch.compacting.ns_per_line", "ns/line", "lower", 0, "-> logs_per_s, write_p50_ms on ingest-repeat; small on ingest-fresh; none on parse-offline"},
	{"logstore.append_batch.fsync8.ns_per_line", "ns/line", "lower", 0, "AppendBatch with FsyncEveryBatches 8: the price of a bounded unsynced window"},
	{"logstore.wal.bytes_per_raw_byte", "ratio", "lower", 0, "WAL bytes written per raw byte -> logs_per_s on ingest-repeat"},
	{"logstore.wal.fsyncs", "count", "lower", 0, "exact fsync count of the fsync8 pass"},
	{"logstore.seal.count", "count", "lower", 0, "blocks sealed during the measured phase"},
	{"logstore.seal.mean_ms", "ms", "lower", 0, "bb_store_seal_seconds mean -> write_p99_ms on ingest-repeat"},
	{"logstore.reopen.ms", "ms", "lower", 0, "reopen of the compacted data dir -> setup of a restarted service"},
	{"segment.encode.ns_per_record", "ns/record", "lower", 0, "-> logs_per_s, stored_bytes_per_raw_byte on ingest-repeat"},
	{"segment.encode.ratio", "ratio", "lower", 0, "encoded / raw bytes of one sealed block -> stored_bytes_per_raw_byte"},

	// Transports.
	{"netingest.append_frame.ns_per_line", "ns/line", "lower", 0, "client-side frame encode -> logs_per_s on ingest-tcp"},
	{"netingest.frame_decode.ns_per_line", "ns/line", "lower", 0, "ParseHeader + Frame.Decode + line walk -> logs_per_s on ingest-tcp, write_p50_ms on query-mixed"},
	{"netingest.frame.p50_ms", "ms", "lower", 0, "frame send-to-ack median on the traced connection"},
	{"netingest.busy_ratio", "ratio", "lower", 0, "BUSY acks / frames"},
	{"http.handler.ns_per_line", "ns/line", "lower", 0, "Handler().ServeHTTP of POST /logs on a recorder, no socket -> logs_per_s on ingest-http"},
	{"wire.tcp_overhead_ns_per_line", "ns/line", "lower", 0, "1/TCP rate - 1/in-process rate on the same pool and batch size"},
	{"wire.http_overhead_ns_per_line", "ns/line", "lower", 0, "1/HTTP rate - 1/in-process rate; larger than TCP's"},

	// Query path, quiescent direct calls on the workload's final store.
	{"logstore.grouped_counts.us", "us", "lower", 0, "-> service.query.grouped.p50_ms"},
	{"logstore.template_counts_range.us", "us", "lower", 0, "-> service.query.range.p50_ms"},
	{"logstore.search_range.us", "us", "lower", 0, "-> service.query.search.p50_ms"},
	{"logstore.by_template_range.us", "us", "lower", 0, "-> service.query.templates.p50_ms"},
	{"logstore.get_batch.us", "us", "lower", 0, "-> service.query.samples.p50_ms"},
	{"segment.decode.ns_per_record", "ns/record", "lower", 0, "Reader.Records on one sealed block -> search and range queries that cannot prune"},
	{"segment.open.us", "us", "lower", 0, "segment.Open (metadata parse) of one block -> logstore.reopen.ms"},
	{"segment.prune_ratio", "ratio", "higher", 0, "sealed-block query visits answered from metadata / all visits; >0 on query-mixed. Flat quiescent layer times while a query or write latency moves means contention, not work"},
	{"obs.render.us", "us", "lower", 0, "Registry().WritePrometheus"},

	{"trace_overhead_ratio", "ratio", "higher", 0, "traced / untraced logs_per_s in the same invocation"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// printList writes the metric table (the -list output).
func printList(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 2, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tWHY")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "%s\t%s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(tw, "\nEND-TO-END\tUNIT\tBETTER\tBOUND\tMEASURES")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.3g\t%s\n", m.Name, m.Unit, m.Better, m.Bound, m.Moves)
	}
	fmt.Fprintln(tw, "\nPER-LAYER\tUNIT\tBETTER\t\tSHOULD MOVE")
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s\t\t%s\n", m.Name, m.Unit, m.Better, m.Moves)
	}
	tw.Flush()
}

// runSeconds is how long one driver run measures (-seconds).
const runSeconds = 12

// manifestJSON renders BENCHMARK.json from the table (the -manifest
// output), so the file at the repository root is never written by hand.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []gated  `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, gated{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return append(data, '\n')
}
