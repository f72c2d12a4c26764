package main

// metricDef is one named metric of the benchmark: the single catalogue
// BENCHMARK.json, the printed report, the README glossary and the tests are
// all checked against.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the parent's median it may worsen by
	What   string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them: setup_s, records_per_s, peak_rss_mb and the
// three quality ratios mean the same thing everywhere; op_ms, result_ms,
// persist_s and cold_start_s are slots whose concrete meaning each workload
// states (workload.Slots) — an ingest ack on a serve workload, a blocking
// pass on a batch one.
//
// The bounds are about three times the widest interquartile spread any
// workload showed over ten seeds on the reference host in a quiet period,
// capped at the contract's 0.25: wider than ISSUE 11's (8-15 %), which
// assumed 20-second runs on one seed — the driver's time cap allows
// 10-second runs, and it varies the seed, which moves every quality ratio
// and everything that depends on the pair count. The README has the
// measured spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "wall from workload start to the first timed operation, median of the run's set-ups (go build of cmd/semblock excluded)"},
	{"records_per_s", "rec/s", "higher", 0.20, "records through the workload's main path per second"},
	{"op_ms_p50", "ms", "lower", 0.20, "median latency of the workload's write or compute operation, from its due time"},
	{"op_ms_p90", "ms", "lower", 0.25, "90th percentile of the same"},
	{"result_ms_p50", "ms", "lower", 0.20, "median time until the result a caller is after is in hand: a pair delivered, a resolve answered, a pipeline finished"},
	{"result_ms_p90", "ms", "lower", 0.25, "90th percentile of the same"},
	{"persist_s", "s", "lower", 0.25, "making the workload's state durable"},
	{"cold_start_s", "s", "lower", 0.25, "from nothing running to serving or holding the first complete result over the persisted state"},
	{"peak_rss_mb", "MB", "lower", 0.25, "peak resident set of the process doing the work"},
	{"pc", "ratio", "higher", 0.10, "pair completeness of the blocking output (eval.Evaluate)"},
	{"pq", "ratio", "higher", 0.15, "pair quality of the blocking output (eval.Evaluate)"},
	{"f1", "ratio", "higher", 0.15, "pairwise F1 of the resolution after CBS/WEP pruning, matching and clustering (Resolution.Evaluate)"},
}

// perLayer are the metrics of single layers, named <module>.<metric>. They
// come from the traced in-process pass (--trace 1), which replays the first
// ledgerRows records of the workload's generated input through each layer's
// public functions; every workload reports every one, measured on its own
// records and configuration, so a layer the workload's traffic bypasses
// still shows what it would cost on that input.
var perLayer = []metricDef{
	{"record.decode_ns_per_record", "ns/record", "lower", 0, "json.Unmarshal of the POST bodies into []record.JSONLRecord"},
	{"record.body_bytes_per_record", "bytes/record", "lower", 0, "request body size"},
	{"textual.shingle_ns_per_record", "ns/record", "lower", 0, "lsh.Signer.AppendKeyHashes: blocking key, q-grams, base hashes"},
	{"textual.shingles_per_record", "count", "lower", 0, "q-gram shingles per record"},
	{"semantic.semhash_ns_per_record", "ns/record", "lower", 0, "lsh.Signer.AppendSemSign: interpretation and semhash signature"},
	{"minhash.sign_ns_per_record", "ns/record", "lower", 0, "lsh.Signer.SignStagedInto over all k*l components"},
	{"minhash.hash_evals_per_record", "count", "lower", 0, "shingles x k*l hash evaluations"},
	{"lsh.bucket_keys_ns_per_record", "ns/record", "lower", 0, "lsh.Signer.BucketKeys over all l tables"},
	{"lsh.keys_per_record", "count", "lower", 0, "bucket keys a record files under, all tables"},
	{"engine.insert_ns_per_record", "ns/record", "lower", 0, "engine.Table.Insert of every key, collision pairs collected"},
	{"engine.buckets", "count", "lower", 0, "distinct buckets over all tables after the replay"},
	{"engine.max_bucket", "count", "lower", 0, "members of the largest bucket"},
	{"record.dedup_ns_per_record", "ns/record", "lower", 0, "StripedPairSet.AddPair over the raw collision pairs"},
	{"record.sort_ns_per_record", "ns/record", "lower", 0, "record.SortPairs of each record's fresh group"},
	{"record.raw_pairs_per_record", "count", "lower", 0, "collision pairs before dedup"},
	{"record.pairs_per_record", "count", "lower", 0, "distinct candidate pairs"},
	{"record.dedup_useful_ratio", "ratio", "higher", 0, "distinct pairs / raw collision pairs"},
	{"stream.stage_ns_per_record", "ns/record", "lower", 0, "SharedLog.Append, wall of the parallel call"},
	{"stream.insert_staged_ns_per_record", "ns/record", "lower", 0, "Indexer.InsertStaged on every shard at once, wall"},
	{"stream.replay_staged_ns_per_record", "ns/record", "lower", 0, "Indexer.ReplayStaged on every shard at once, wall"},
	{"stream.snapshot_ms", "ms", "lower", 0, "Indexer.Snapshot of every shard"},
	{"server.ingest_ns_per_record", "ns/record", "lower", 0, "Collection.Ingest, wall"},
	{"server.merge_self_ns_per_record", "ns/record", "lower", 0, "Collection.Ingest minus the stage and insert_staged spans of the same batches: the canonical merge, lock and wake-up"},
	{"server.http_overhead_ns_per_record", "ns/record", "lower", 0, "untraced closed-loop POST /records per record over loopback minus untraced in-process Collection.Ingest"},
	{"server.drain_ns_per_pair", "ns/pair", "lower", 0, "Collection.DrainConsumer after every batch"},
	{"server.sse_bytes_per_pair", "bytes/pair", "lower", 0, "SSE wire bytes per delivered pair"},
	{"server.dataset_copy_ms", "ms", "lower", 0, "Collection.Dataset"},
	{"server.snapshot_ms", "ms", "lower", 0, "Collection.Snapshot"},
	{"server.resolve_ms", "ms", "lower", 0, "Collection.ResolveContext with CBS/WEP pruning and matching"},
	{"server.save_ms", "ms", "lower", 0, "Collection.Save of the whole log"},
	{"server.load_ms", "ms", "lower", 0, "server.LoadCollection of that checkpoint"},
	{"server.compact_ms", "ms", "lower", 0, "Collection.Compact"},
	{"server.segment_bytes_per_record", "bytes/record", "lower", 0, "segment file size"},
	{"blocking.candidate_pairs_ms", "ms", "lower", 0, "Result.CandidatePairs of the collection snapshot"},
	{"lsh.block_ms", "ms", "lower", 0, "lsh.Blocker.Block"},
	{"pipeline.run_ms", "ms", "lower", 0, "Pipeline.Run, wall"},
	{"pipeline.block_ms", "ms", "lower", 0, "Pipeline.Run's Stats.BlockTime"},
	{"pipeline.prune_ms", "ms", "lower", 0, "Pipeline.Run's Stats.PruneTime"},
	{"pipeline.match_ms", "ms", "lower", 0, "Pipeline.Run's Stats.MatchTime"},
	{"metablocking.build_graph_ms", "ms", "lower", 0, "metablocking.BuildGraph under CBS"},
	{"metablocking.prune_ms", "ms", "lower", 0, "Graph.Prune with WEP"},
	{"metablocking.edges", "count", "lower", 0, "edges of the blocking graph"},
	{"er.featurize_ns_per_record", "ns/record", "lower", 0, "er.Kernel.Featurize"},
	{"er.score_ns_per_pair", "ns/pair", "lower", 0, "er.Kernel.Score, CPU time: wall of the parallel loop x workers"},
	{"er.pairs_scored", "count", "lower", 0, "pairs surviving pruning"},
	{"blocking.blocks", "count", "lower", 0, "blocks of the batch result"},
	{"blocking.comparisons", "count", "lower", 0, "redundant comparisons of the batch result"},
	{"eval.evaluate_ms", "ms", "lower", 0, "eval.Evaluate of the batch result"},
	{"host.nproc", "count", "higher", 0, "CPUs"},
	{"host.gomaxprocs", "count", "higher", 0, "GOMAXPROCS"},
	{"host.spin_cv", "ratio", "lower", 0, "coefficient of variation of a fixed spin kernel over one second: host noise"},
	{"bench.build_s", "s", "lower", 0, "go build ./cmd/semblock"},
	{"bench.trace_overhead_pct", "%", "lower", 0, "traced minus untraced in-process ingest wall, as a share of the untraced"},
	{"bench.ingest_coverage_pct", "%", "higher", 0, "stage + insert_staged + merge spans as a share of the Collection.Ingest spans of the same batches"},
	{"bench.pipeline_coverage_pct", "%", "higher", 0, "block + build_graph + prune + pruned pairs + featurize + score + cluster spans as a share of the Pipeline.Run span"},
}
