// Logsvcd runs the cloud log-parsing service as an HTTP daemon (§3 of the
// paper): multi-topic ingestion with online matching, periodic retraining
// with model merging, and query-time precision control.
//
//	go run ./cmd/logsvcd -addr :8080 -train-volume 10000
//
//	curl -X PUT  localhost:8080/topics/app
//	curl -X POST localhost:8080/topics/app/logs --data-binary @app.log
//	curl -X POST localhost:8080/topics/app/train
//	curl 'localhost:8080/topics/app/query?threshold=0.7'
//	curl 'localhost:8080/topics/app/query?since=15m'
//	curl 'localhost:8080/topics/app/query?from=2026-07-26T12:00:00Z&to=2026-07-26T12:15:00Z'
//	curl localhost:8080/metrics
//
// With -debug-addr :6060, pprof profiles are served on a separate
// listener: `go tool pprof localhost:6060/debug/pprof/profile?seconds=10`.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bytebrain"
	"bytebrain/internal/segment"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		trainVolume  = flag.Int("train-volume", 10000, "retrain after this many new records")
		trainEvery   = flag.Duration("train-interval", 5*time.Minute, "retrain after this much time")
		sampleCap    = flag.Int("sample-cap", 50000, "training reservoir size (OOM guard)")
		threshold    = flag.Float64("threshold", 0.7, "default query threshold")
		parallel     = flag.Int("parallel", 4, "parser worker count")
		seed         = flag.Int64("seed", 1, "clustering seed")
		dataDir      = flag.String("data-dir", "", "persist topics (write-ahead log, sealed segments, model snapshots) under this directory; empty = sealed segments kept in memory")
		segmentBytes = flag.Int64("segment-bytes", 0, "seal hot blocks of this raw size into compressed columnar segments (0 = default 4 MiB)")
		segmentCodec = flag.String("segment-codec", "flate", "sealed-segment payload codec: flate or none")
		snapRetain   = flag.Int("snapshot-retain", 0, "with -data-dir, keep only this many newest model snapshots per topic (0 = keep all; without -data-dir a topic keeps only its live model)")
		snapCkpt     = flag.Int("snapshot-checkpoint-every", 0, "with -snapshot-retain, additionally keep every Nth snapshot as a checkpoint (0 = none)")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof profiles on this separate address (empty = disabled); keep it off the public listener")
		slowQuery    = flag.Duration("slow-query", 0, "log a structured line for queries at or over this duration (0 = disabled)")
		lineCacheCap = flag.Int("line-cache-cap", 0, "distinct lines memoized per model snapshot before a whole-generation eviction (0 = default 65536)")
		fsyncEveryN  = flag.Int("wal-fsync-every-n", 0, "fsync topic WALs every N append batches (0 = rely on OS flush; durability of the tail rides on the page cache)")
		fsyncEveryT  = flag.Duration("wal-fsync-every-t", 0, "fsync dirty topic WALs at least this often (0 = disabled; combines with -wal-fsync-every-n)")
		ingestAddr   = flag.String("ingest-addr", "", "serve the streaming TCP ingest protocol (framed/raw, see README wire-protocol spec) on this address (empty = disabled)")
	)
	flag.Parse()
	// Fail fast on a bad codec instead of 500ing every topic creation at
	// request time.
	if _, err := segment.ParseCodec(*segmentCodec); err != nil {
		log.Fatalf("logsvcd: -segment-codec: %v", err)
	}

	svc := bytebrain.NewService(bytebrain.ServiceConfig{
		Parser:                  bytebrain.Options{Seed: *seed, Parallelism: *parallel},
		TrainVolume:             *trainVolume,
		TrainInterval:           *trainEvery,
		SampleCap:               *sampleCap,
		DefaultThreshold:        *threshold,
		DataDir:                 *dataDir,
		SegmentBytes:            *segmentBytes,
		SegmentCodec:            *segmentCodec,
		SnapshotRetain:          *snapRetain,
		SnapshotCheckpointEvery: *snapCkpt,
		LineCacheCap:            *lineCacheCap,
		SlowQueryThreshold:      *slowQuery,
		WALFsyncEveryBatches:    *fsyncEveryN,
		WALFsyncInterval:        *fsyncEveryT,
	})

	if *ingestAddr != "" {
		naddr, err := svc.StartNetIngest(*ingestAddr)
		if err != nil {
			log.Fatalf("logsvcd: -ingest-addr: %v", err)
		}
		log.Printf("logsvcd TCP ingest listening on %s", naddr)
	}

	// The pprof endpoints live on their own listener so profiling access
	// can be firewalled separately from the service API.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Addr: *debugAddr, Handler: dmux}
		go func() {
			log.Printf("logsvcd pprof listening on %s", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("logsvcd: debug server: %v", err)
			}
		}()
	}

	// On SIGINT/SIGTERM: drain in-flight HTTP requests, then flush and
	// close the stores (segment WALs, buffered appends).
	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("logsvcd: shutdown: %v", err)
		}
		if debugSrv != nil {
			if err := debugSrv.Shutdown(ctx); err != nil {
				log.Printf("logsvcd: debug shutdown: %v", err)
			}
		}
	}()

	log.Printf("logsvcd listening on %s (data-dir=%q segment-bytes=%d segment-codec=%s)", *addr, *dataDir, *segmentBytes, *segmentCodec)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		log.Fatalf("logsvcd: close: %v", err)
	}
}
