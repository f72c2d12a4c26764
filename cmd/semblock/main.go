// Command semblock blocks a CSV dataset from the command line with LSH or
// SA-LSH and prints either quality metrics (when the CSV carries an
// entity_id ground-truth column) or the candidate pairs.
//
// Usage:
//
//	semblock -input records.csv -attrs title,authors -q 4 -k 4 -l 63
//	semblock -input voters.csv -attrs first_name,last_name -semantic voter
//	semblock -demo cora          # generate and block a synthetic dataset
//	semblock stream -demo cora -batch 64   # incremental/streaming blocking
//
// The -semantic flag enables SA-LSH with one of the built-in domain
// semantic functions ("cora": Table 1 missing-value patterns over
// journal/booktitle/institution; "voter": gender/race/ethnic code mapping).
//
// The "stream" subcommand feeds the dataset through the incremental
// indexer in mini-batches instead of one batch Block call, printing either
// the candidate pairs as they are discovered (-pairs) or a progress line
// per batch plus a final snapshot summary with insert throughput.
//
// The "pipeline" subcommand chains blocking → optional meta-blocking
// pruning → optional matching into one run and reports per-stage counts
// and timings:
//
//	semblock pipeline -demo cora -semantic cora -meta CBS/WEP \
//	    -match title=0.6,authors=0.4 -threshold 0.55
//	semblock pipeline -demo cora -match title=1 -stream -batch 128
//
// The "serve" subcommand runs the multi-tenant blocking service: named
// collections backed by sharded streaming indexes, an HTTP JSON API
// (create/ingest/candidates/snapshot/resolve/compact plus /healthz and
// /metrics), periodic snapshot checkpoints into -data-dir, automatic
// segment compaction once a chain crosses -compact-segments/-compact-bytes,
// restore-on-boot, and graceful shutdown (with a final checkpoint) on
// SIGINT/SIGTERM. Observability is built in: structured request logs
// (-log-format text|json, -log-level), per-request traces surfaced via the
// X-Semblock-Trace header and GET /debug/traces, slow-request warnings with
// a per-stage span breakdown (-slow-request-ms), and an optional pprof
// listener on a separate address (-debug-addr):
//
//	semblock serve -addr :8080 -data-dir /var/lib/semblock \
//	    -shards 4 -checkpoint 30s -compact-segments 32 \
//	    -log-format json -slow-request-ms 250 -debug-addr 127.0.0.1:6060
//
// The "compact" subcommand compacts persisted collections offline — the
// same rewrite the serve loop performs, for data directories of a server
// that is not running:
//
//	semblock compact -data-dir /var/lib/semblock            # all collections
//	semblock compact -data-dir /var/lib/semblock -collection pubs
//
// The "tail" subcommand prints a consumer group's candidate stream (SSE) as
// "left,right" lines. Load runs live in the bench/ module (bench/README.md).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"semblock"
	"semblock/internal/datagen"
	"semblock/internal/lsh"
	"semblock/internal/metablocking"
	"semblock/internal/obs"
	"semblock/internal/record"
)

// subcommands maps the first command-line word to its implementation; flags
// alone run the default batch blocker (runBlock).
var subcommands = map[string]func(args []string) error{
	"stream":   runStream,
	"pipeline": runPipeline,
	"serve":    runServe,
	"compact":  runCompact,
	"tail":     runTail,
}

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "semblock:", err)
		os.Exit(1)
	}
}

// dispatch runs the subcommand the arguments name. A first argument that is
// not a flag must be a subcommand: sending a mistyped one to the default
// blocker would answer "pass -input FILE" to "semblock serv".
func dispatch(args []string) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return runBlock(args)
	}
	run, ok := subcommands[args[0]]
	if !ok {
		return fmt.Errorf("unknown subcommand %q (want stream, pipeline, serve, compact or tail; flags alone run the batch blocker)", args[0])
	}
	return run(args[1:])
}

// blockFlags are the dataset and blocking-configuration flags the default,
// stream and pipeline subcommands share.
type blockFlags struct {
	input, demo, attrs string
	q, k, l, w         int
	mode, semantic     string
	seed               int64
	workers            int // bound to -workers by the subcommands that have one
}

// register declares the shared flags on fs.
func (f *blockFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.input, "input", "", "input CSV (header row; optional entity_id column)")
	fs.StringVar(&f.demo, "demo", "", "generate a synthetic dataset instead: 'cora' or 'voter'")
	fs.StringVar(&f.attrs, "attrs", "", "comma-separated blocking attributes")
	fs.IntVar(&f.q, "q", 2, "q-gram size")
	fs.IntVar(&f.k, "k", 4, "minhash functions per hash table")
	fs.IntVar(&f.l, "l", 16, "number of hash tables")
	fs.IntVar(&f.w, "w", 0, "w-way semantic hash width (0 = half the signature bits)")
	fs.StringVar(&f.mode, "mode", "or", "w-way composition: 'and' or 'or'")
	fs.StringVar(&f.semantic, "semantic", "", "semantic function: '', 'cora' or 'voter'")
	fs.Int64Var(&f.seed, "seed", 1, "random seed")
}

// config loads the dataset the parsed flags name and builds the blocking
// configuration over it. For SA-LSH the semhash schema is fixed up front from
// the full dataset — in streaming runs the analogue of deriving it from a
// reference sample.
func (f *blockFlags) config() (*record.Dataset, semblock.Config, error) {
	mode, err := lsh.ParseMode(f.mode)
	if err != nil {
		return nil, semblock.Config{}, err
	}
	d, attrs, err := loadDataset(f.input, f.demo)
	if err != nil {
		return nil, semblock.Config{}, err
	}
	if f.attrs != "" {
		attrs = strings.Split(f.attrs, ",")
	}
	if len(attrs) == 0 {
		return nil, semblock.Config{}, fmt.Errorf("no blocking attributes: pass -attrs")
	}
	cfg := semblock.Config{Attrs: attrs, Q: f.q, K: f.k, L: f.l, Seed: f.seed, Workers: f.workers}
	if f.semantic != "" {
		cfg.Semantic, err = semanticOption(f.semantic, d, f.w, mode)
		if err != nil {
			return nil, semblock.Config{}, err
		}
	}
	return d, cfg, nil
}

// runServe implements the "serve" subcommand: the long-lived multi-tenant
// blocking service over the streaming engine.
func runServe(args []string) error {
	fs := flag.NewFlagSet("semblock serve", flag.ExitOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		dataDir      = fs.String("data-dir", "", "snapshot persistence directory (empty = in-memory only)")
		shards       = fs.Int("shards", 1, "default table-shard count for collections that do not set one")
		checkpoint   = fs.Duration("checkpoint", 30*time.Second, "checkpoint interval (requires -data-dir; 0 = only on shutdown)")
		compactSegs  = fs.Int("compact-segments", 32, "auto-compact a collection once its chain exceeds this many segments (0 = never by count)")
		compactBytes = fs.Int64("compact-bytes", 0, "auto-compact a collection once the segments appended since its last compaction exceed this many bytes (0 = never by size)")
		logFormat    = fs.String("log-format", "text", "structured log format: text or json")
		logLevel     = fs.String("log-level", "info", "log level: debug, info, warn or error")
		slowMS       = fs.Int64("slow-request-ms", 0, "log requests slower than this at WARN with a span breakdown (0 = never)")
		debugAddr    = fs.String("debug-addr", "", "separate pprof/debug listener address, e.g. localhost:6060 (empty = disabled)")
		traceBuf     = fs.Int("trace-buffer", 0, "completed request traces retained for GET /debug/traces (0 = default 64)")
		hookTimeout  = fs.Duration("webhook-timeout", 0, "webhook delivery attempt timeout (0 = default 10s)")
		hookRetries  = fs.Int("webhook-retries", 0, "webhook redelivery attempts per batch beyond the first (0 = default 5)")
		hookBackoff  = fs.Duration("webhook-backoff", 0, "first webhook retry delay, doubling per retry (0 = default 100ms)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	// Library-level diagnostics (restore warnings etc.) flow through
	// slog.Default, so the configured handler sees everything.
	slog.SetDefault(logger)

	opts := []semblock.ServerOption{semblock.WithServerLogger(logger)}
	if *dataDir != "" {
		opts = append(opts, semblock.WithDataDir(*dataDir))
		opts = append(opts, semblock.WithCompaction(semblock.CompactionPolicy{
			MaxSegments: *compactSegs, MaxBytes: *compactBytes,
		}))
	}
	if *shards > 0 {
		opts = append(opts, semblock.WithDefaultShards(*shards))
	}
	if *slowMS > 0 {
		opts = append(opts, semblock.WithSlowRequestThreshold(time.Duration(*slowMS)*time.Millisecond))
	}
	if *traceBuf > 0 {
		opts = append(opts, semblock.WithTraceBuffer(*traceBuf))
	}
	if *hookTimeout > 0 || *hookRetries > 0 || *hookBackoff > 0 {
		opts = append(opts, semblock.WithWebhookDefaults(semblock.WebhookDefaults{
			Timeout: *hookTimeout, MaxRetries: *hookRetries, Backoff: *hookBackoff,
		}))
	}
	srv, err := semblock.NewServer(opts...)
	if err != nil {
		return err
	}
	if n := len(srv.List()); n > 0 {
		logger.Info("restored collections", "count", n, "data_dir", *dataDir, "collections", strings.Join(srv.List(), ", "))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		// The profiling endpoints live on their own listener so they can be
		// bound to localhost (or firewalled) independently of the API port.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
		defer debugSrv.Close()
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Bound how long a stalled client can hold a handler. WriteTimeout
		// caps the whole request (body read included), so it must leave
		// room for large bulk-JSONL ingests over slow links; it exists
		// mainly so a wedged candidates-drain response — which holds the
		// collection's fallible-drain slot and turns later drains into
		// 503s — cannot live forever.
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	stopCheckpoints := make(chan struct{})
	checkpointsDone := make(chan struct{})
	go func() {
		defer close(checkpointsDone)
		if *dataDir == "" {
			<-stopCheckpoints
			return
		}
		srv.CheckpointEvery(*checkpoint, stopCheckpoints, func(err error) {
			logger.Error("checkpoint failed", "err", err)
		})
	}()

	select {
	case err := <-errCh:
		close(stopCheckpoints)
		<-checkpointsDone
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	// Stop push delivery first: webhook workers finish their in-flight
	// attempt (the final checkpoint below captures their last acknowledged
	// cursors) and SSE/long-poll consumers are released, so the HTTP
	// drain below is not held open by intentionally-infinite streams.
	srv.StopDelivery()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(shutdownCtx)
	close(stopCheckpoints) // triggers the final checkpoint
	<-checkpointsDone
	if serveErr := <-errCh; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return shutdownErr
}

// runCompact implements the "compact" subcommand: offline segment-chain
// compaction of persisted collections. Each collection is restored from its
// directory — a full index replay, deliberately: the rewrite only happens
// after the chain has proven loadable end to end, which is the validation
// an operator wants before discarding the old generation (a faster
// records-only streaming rewrite would skip exactly that check). The
// server must not be running against the same data dir — offline
// compaction has no way to serialise with its checkpoints.
func runCompact(args []string) error {
	fs := flag.NewFlagSet("semblock compact", flag.ExitOnError)
	var (
		dataDir = fs.String("data-dir", "", "server data directory (required)")
		name    = fs.String("collection", "", "compact only this collection (default: every collection found)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("compact needs -data-dir DIR")
	}
	entries, err := os.ReadDir(*dataDir)
	if err != nil {
		return fmt.Errorf("read data dir: %w", err)
	}
	compacted := 0
	for _, e := range entries {
		if !e.IsDir() || (*name != "" && e.Name() != *name) {
			continue
		}
		dir := filepath.Join(*dataDir, e.Name())
		if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
			continue // not a collection directory
		}
		c, err := semblock.LoadCollection(dir)
		if err != nil {
			return fmt.Errorf("load %s: %w", e.Name(), err)
		}
		res, err := c.Compact(dir)
		if err != nil {
			return fmt.Errorf("compact %s: %w", e.Name(), err)
		}
		fmt.Printf("%s: %d records, %d segments (%d bytes) -> %d segments (%d bytes), generation %d, %v\n",
			res.Collection, res.Records, res.SegmentsBefore, res.BytesBefore,
			res.SegmentsAfter, res.BytesAfter, res.Generation,
			res.Duration.Round(time.Millisecond))
		compacted++
	}
	if *name != "" && compacted == 0 {
		return fmt.Errorf("no collection %q under %s", *name, *dataDir)
	}
	if compacted == 0 {
		fmt.Printf("no collections under %s\n", *dataDir)
	}
	return nil
}

// runTail implements the "tail" subcommand: a terminal SSE client for a
// consumer group's candidate stream. Each delivered pair is printed as
// "left,right" on its own line; the stream's delivery is acknowledged
// server-side as it is written, so re-running tail resumes at the group's
// durable cursor:
//
//	semblock tail -addr http://localhost:8080 -collection pubs -group etl -create
func runTail(args []string) error {
	fs := flag.NewFlagSet("semblock tail", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "http://localhost:8080", "server base URL")
		collection = fs.String("collection", "", "collection to tail (required)")
		group      = fs.String("group", "default", "consumer group to drain")
		create     = fs.Bool("create", false, "create the group first if it does not exist")
		from       = fs.String("from", "start", "where a -create'd group starts: 'start' replays everything, 'end' tails new pairs only")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *collection == "" {
		return errors.New("tail: -collection is required")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	base := strings.TrimRight(*addr, "/") + "/v1/collections/" + *collection + "/consumers"

	if *create {
		body := strings.NewReader(fmt.Sprintf(`{"group":%q,"from":%q}`, *group, *from))
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base, body)
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return fmt.Errorf("tail: create group: %w", err)
		}
		resp.Body.Close()
		// 409 means the group already exists — exactly what -create wants.
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
			return fmt.Errorf("tail: create group: server answered %s", resp.Status)
		}
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/"+*group+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("tail: connect: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("tail: server answered %s", resp.Status)
	}

	// Minimal SSE parse: accumulate "event:"/"data:" until the blank
	// frame terminator, print pairs, note cursor handshakes on stderr.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	event, data := "", ""
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			switch event {
			case "cursor":
				fmt.Fprintf(os.Stderr, "tail: subscribed %s/%s %s\n", *collection, *group, data)
			case "pairs":
				var batch struct {
					Pairs [][2]record.ID `json:"pairs"`
				}
				if err := json.Unmarshal([]byte(data), &batch); err != nil {
					return fmt.Errorf("tail: decode pairs event: %w", err)
				}
				for _, p := range batch.Pairs {
					fmt.Fprintf(out, "%d,%d\n", p[0], p[1])
				}
				out.Flush()
			}
			event, data = "", ""
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("tail: stream: %w", err)
	}
	return nil
}

// runBlock implements the default subcommand: one batch Block call over the
// dataset, printing quality metrics or the candidate pairs.
func runBlock(args []string) error {
	fs := flag.NewFlagSet("semblock", flag.ExitOnError)
	var bf blockFlags
	bf.register(fs)
	pairs := fs.Bool("pairs", false, "print candidate pairs instead of a summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, cfg, err := bf.config()
	if err != nil {
		return err
	}
	b, err := semblock.New(cfg)
	if err != nil {
		return err
	}
	res, err := b.Block(d)
	if err != nil {
		return err
	}

	if *pairs {
		for _, p := range res.CandidatePairs().Slice() {
			fmt.Printf("%d,%d\n", p.Left(), p.Right())
		}
		return nil
	}
	fmt.Printf("technique:        %s\n", res.Technique)
	fmt.Printf("records:          %d\n", d.Len())
	fmt.Printf("blocks:           %d (max size %d)\n", res.NumBlocks(), res.MaxBlockSize())
	fmt.Printf("candidate pairs:  %d of %d (RR %.6f)\n",
		res.CandidatePairs().Len(), d.TotalPairs(),
		1-float64(res.CandidatePairs().Len())/float64(d.TotalPairs()))
	if d.Labeled() {
		m, err := semblock.Evaluate(res, d)
		if err != nil {
			return err
		}
		fmt.Printf("PC=%.4f PQ=%.4f RR=%.4f FM=%.4f\n", m.PC, m.PQ, m.RR, m.FM)
	}
	return nil
}

// runStream implements the "stream" subcommand: the dataset is replayed
// through the incremental indexer in mini-batches, as if records were
// arriving from a live source.
func runStream(args []string) error {
	fs := flag.NewFlagSet("semblock stream", flag.ExitOnError)
	var bf blockFlags
	bf.register(fs)
	fs.IntVar(&bf.workers, "workers", 0, "signature workers / bucket shards (0 = GOMAXPROCS)")
	var (
		batch = fs.Int("batch", 64, "mini-batch size (1 = record-at-a-time)")
		pairs = fs.Bool("pairs", false, "print candidate pairs as they are discovered")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *batch < 1 {
		return fmt.Errorf("batch size must be >= 1, got %d", *batch)
	}
	d, cfg, err := bf.config()
	if err != nil {
		return err
	}
	ix, err := semblock.NewIndexer(cfg, semblock.WithWorkers(bf.workers))
	if err != nil {
		return err
	}

	start := time.Now()
	recs := d.Records()
	for lo := 0; lo < len(recs); lo += *batch {
		hi := lo + *batch
		if hi > len(recs) {
			hi = len(recs)
		}
		rows := make([]semblock.Row, 0, hi-lo)
		for _, r := range recs[lo:hi] {
			rows = append(rows, semblock.Row{Entity: r.Entity, Attrs: r.Attrs})
		}
		ix.InsertBatch(rows)
		if *pairs {
			for _, p := range ix.Candidates() {
				fmt.Printf("%d,%d\n", p.Left(), p.Right())
			}
			continue
		}
		fmt.Printf("inserted %6d/%d records, %d candidate pairs so far\n",
			hi, len(recs), ix.PairCount())
	}
	elapsed := time.Since(start)
	if *pairs {
		return nil
	}

	res := ix.Snapshot()
	fmt.Printf("technique:        %s (streaming, batch=%d)\n", res.Technique, *batch)
	fmt.Printf("records:          %d (%.0f inserts/sec)\n",
		d.Len(), float64(d.Len())/elapsed.Seconds())
	fmt.Printf("blocks:           %d (max size %d)\n", res.NumBlocks(), res.MaxBlockSize())
	fmt.Printf("candidate pairs:  %d of %d (RR %.6f)\n",
		res.CandidatePairs().Len(), d.TotalPairs(),
		1-float64(res.CandidatePairs().Len())/float64(d.TotalPairs()))
	if d.Labeled() {
		m, err := semblock.Evaluate(res, d)
		if err != nil {
			return err
		}
		fmt.Printf("PC=%.4f PQ=%.4f RR=%.4f FM=%.4f\n", m.PC, m.PQ, m.RR, m.FM)
	}
	return nil
}

// runPipeline implements the "pipeline" subcommand: one composable
// blocking → pruning → matching run, batch or streaming.
func runPipeline(args []string) error {
	fs := flag.NewFlagSet("semblock pipeline", flag.ExitOnError)
	var bf blockFlags
	bf.register(fs)
	fs.IntVar(&bf.workers, "workers", 0, "table-build / scoring workers (0 = GOMAXPROCS)")
	var (
		meta      = fs.String("meta", "", "meta-blocking pruning stage SCHEME/ALGO, e.g. CBS/WEP (schemes: ARCS CBS ECBS JS EJS; algos: WEP CEP WNP CNP)")
		match     = fs.String("match", "", "matching stage attr=weight list, e.g. title=0.6,authors=0.4")
		threshold = fs.Float64("threshold", 0.5, "match classification threshold in [0,1]")
		streamed  = fs.Bool("stream", false, "run in streaming mode through an incremental index")
		batch     = fs.Int("batch", 256, "pair-batch / row mini-batch size")
		budget    = fs.Int64("budget", 0, "max pair comparisons in the matching stage (0 = unlimited); budgeted pairs are scored best-first by edge weight")
		deadline  = fs.Duration("deadline", 0, "max matching wall time, e.g. 500ms (0 = none); the run truncates, never errors")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, cfg, err := bf.config()
	if err != nil {
		return err
	}
	b, err := semblock.New(cfg)
	if err != nil {
		return err
	}

	opts := []semblock.PipelineOption{semblock.WithPipelineWorkers(bf.workers), semblock.WithBatchSize(*batch)}
	if *meta != "" {
		scheme, algo, err := parseMeta(*meta)
		if err != nil {
			return err
		}
		opts = append(opts, semblock.WithPruning(scheme, algo))
	}
	if *match != "" {
		m, err := parseMatcher(*match, *threshold)
		if err != nil {
			return err
		}
		opts = append(opts, semblock.WithMatcher(m))
	}
	if *budget > 0 || *deadline > 0 {
		opts = append(opts, semblock.WithBudget(*budget, *deadline))
	}
	p, err := semblock.NewPipeline(b, opts...)
	if err != nil {
		return err
	}

	var out *semblock.PipelineResult
	if *streamed {
		ix, err := semblock.NewIndexer(cfg)
		if err != nil {
			return err
		}
		rows := make(chan semblock.Row)
		go func() {
			defer close(rows)
			for _, r := range d.Records() {
				rows <- semblock.Row{Entity: r.Entity, Attrs: r.Attrs}
			}
		}()
		out, err = p.RunStream(ix, rows)
		if err != nil {
			return err
		}
	} else {
		out, err = p.Run(d)
		if err != nil {
			return err
		}
	}

	modeName := "batch"
	if *streamed {
		modeName = "streaming"
	}
	fmt.Printf("pipeline:          %s (%s)\n", out.Blocks.Technique, modeName)
	fmt.Printf("records:           %d\n", out.Stats.Records)
	fmt.Printf("blocking:          %d blocks, %d comparisons (%v)\n",
		out.Stats.Blocks, out.Stats.Comparisons, out.Stats.BlockTime.Round(time.Microsecond))
	if out.Pruned != nil {
		fmt.Printf("pruning:           %d -> %d comparisons (%v)\n",
			out.Stats.Comparisons, out.Stats.PrunedComparisons, out.Stats.PruneTime.Round(time.Microsecond))
	}
	if out.Matches != nil || out.Stats.PairsScored > 0 {
		fmt.Printf("matching:          %d of %d scored pairs matched (%v)\n",
			out.Stats.Matches, out.Stats.PairsScored, out.Stats.MatchTime.Round(time.Microsecond))
	}
	if out.Stats.Truncated {
		fmt.Printf("budget:            truncated after %d comparisons (best-first)\n",
			out.Stats.ComparisonsUsed)
	}
	if out.Resolution != nil {
		fmt.Printf("clusters:          %d\n", out.Resolution.NumClusters)
		if d.Labeled() {
			quality, err := out.Resolution.Evaluate(d)
			if err != nil {
				return err
			}
			fmt.Printf("resolution:        P=%.4f R=%.4f F1=%.4f\n",
				quality.Precision, quality.Recall, quality.F1)
		}
	}
	if d.Labeled() {
		m, err := semblock.Evaluate(out.Final, d)
		if err != nil {
			return err
		}
		fmt.Printf("blocking quality:  PC=%.4f PQ=%.4f RR=%.4f FM=%.4f\n", m.PC, m.PQ, m.RR, m.FM)
	}
	return nil
}

// parseMeta parses a SCHEME/ALGO pruning spec like "CBS/WEP".
func parseMeta(s string) (semblock.WeightScheme, semblock.PruneAlgo, error) {
	parts := strings.SplitN(s, "/", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("meta spec %q: want SCHEME/ALGO, e.g. CBS/WEP", s)
	}
	scheme, err := metablocking.ParseScheme(parts[0])
	if err != nil {
		return 0, 0, err
	}
	algo, err := metablocking.ParseAlgo(parts[1])
	return scheme, algo, err
}

// parseMatcher parses an attr=weight list like "title=0.6,authors=0.4".
func parseMatcher(s string, threshold float64) (*semblock.Matcher, error) {
	var weights []semblock.AttrWeight
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		w := 1.0
		if len(kv) == 2 {
			parsed, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
			if err != nil {
				return nil, fmt.Errorf("match weight %q: %v", part, err)
			}
			w = parsed
		}
		attr := strings.TrimSpace(kv[0])
		if attr == "" {
			return nil, fmt.Errorf("match spec %q has an empty attribute", s)
		}
		weights = append(weights, semblock.AttrWeight{Attr: attr, Weight: w})
	}
	return semblock.NewMatcher(weights, threshold)
}

// loadDataset reads the CSV or generates a demo dataset, returning default
// blocking attributes for the demo domains.
func loadDataset(input, demo string) (*record.Dataset, []string, error) {
	switch {
	case input != "" && demo != "":
		return nil, nil, fmt.Errorf("pass either -input or -demo, not both")
	case input != "":
		f, err := os.Open(input)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		d, err := semblock.ReadCSV(f, input)
		return d, nil, err
	case demo == "cora":
		cfg := datagen.DefaultCoraConfig()
		return datagen.Cora(cfg), []string{"authors", "title"}, nil
	case demo == "voter":
		cfg := datagen.DefaultVoterConfig()
		return datagen.Voter(cfg), []string{"first_name", "last_name"}, nil
	case demo != "":
		return nil, nil, fmt.Errorf("unknown demo dataset %q (want cora or voter)", demo)
	default:
		return nil, nil, fmt.Errorf("pass -input FILE or -demo {cora,voter}")
	}
}

// semanticOption builds the SA-LSH option for a named domain function.
func semanticOption(name string, d *record.Dataset, w int, mode lsh.Mode) (*semblock.SemanticOption, error) {
	var fn semblock.SemanticFunction
	var err error
	switch name {
	case "cora":
		fn, err = semblock.NewCoraSemantics(semblock.BibliographicTaxonomy())
	case "voter":
		fn, err = semblock.NewVoterSemantics(semblock.VoterTaxonomy())
	default:
		return nil, fmt.Errorf("unknown semantic function %q (want cora or voter)", name)
	}
	if err != nil {
		return nil, err
	}
	schema, err := semblock.BuildSchema(fn, d)
	if err != nil {
		return nil, err
	}
	if w <= 0 {
		w = (schema.Bits() + 1) / 2
	}
	return &semblock.SemanticOption{Schema: schema, W: w, Mode: mode}, nil
}
