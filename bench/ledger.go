package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"
)

// ledgerRows caps, at the reference run length, how many records of a
// workload's input the traced pass replays. Per-record layer costs barely
// depend on the corpus size past a few thousand records, and the pass runs
// every record through every layer several times over.
const ledgerRows = 40_000

// runLedger is the traced pass (--trace 1): it replays the workload's
// generated input in-process, without the child server — the fine-grained
// single-threaded layer replay, then composite spans around the stream,
// server and batch layers' public calls — and derives the per-layer
// metrics. Three independent paths to the candidate pairs (layer replay,
// shard family, served collection over in-process HTTP) are checked against
// the batch oracle on the way.
func runLedger(ctx context.Context, env *runEnv, w *workload, buildS float64) (*runResult, error) {
	res := newResult(w.Name)
	in, err := w.input(env)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(in.spec, in.rows)
	if err != nil {
		return nil, err
	}
	n := float64(len(in.rows))
	rows := streamRows(in.rows)
	tr := newTracer(w.Name)
	out := ledger{}

	replayed, err := replayLayers(tr, in, out)
	if err != nil {
		return nil, err
	}
	res.verify("layer replay equals the batch oracle", replayed == o.Pairs, "replay %v, batch %v", replayed, o.Pairs)

	merged, err := replayStream(tr, in, rows)
	if err != nil {
		return nil, err
	}
	res.verify("shard family equals the batch oracle", merged == o.Pairs, "shards %v, batch %v", merged, o.Pairs)

	untraced, err := ingestUntraced(in, rows)
	if err != nil {
		return nil, err
	}
	srv, err := replayServer(ctx, tr, in, rows, out)
	if err != nil {
		return nil, err
	}
	res.verify("drained pairs equal the batch oracle", srv.Delivered == o.Pairs, "drained %v, batch %v", srv.Delivered, o.Pairs)
	res.verify("collection counts", srv.Records == len(in.rows) && uint64(srv.Pairs) == o.Pairs.N && srv.Restored == srv.Records,
		"%d records, %d pairs, %d records restored", srv.Records, srv.Pairs, srv.Restored)

	wire, err := replayHTTP(ctx, in)
	if err != nil {
		return nil, err
	}
	res.verify("pairs over in-process HTTP equal the batch oracle", wire.sum == o.Pairs, "wire %v, batch %v", wire.sum, o.Pairs)

	batch, err := replayBatch(tr, in)
	if err != nil {
		return nil, err
	}
	res.verify("Blocker.Block repeats", batch.Pairs == o.Pairs, "second run %v, first %v", batch.Pairs, o.Pairs)

	t := tr.totals()
	per := func(name string) float64 { return float64(t[name].Total) / n }
	msOf := func(name string) float64 { return ms(t[name].Total) }
	for metric, spanName := range map[string]string{
		"record.decode_ns_per_record":        "record.decode",
		"textual.shingle_ns_per_record":      "textual.shingle",
		"semantic.semhash_ns_per_record":     "semantic.semhash",
		"minhash.sign_ns_per_record":         "minhash.sign",
		"lsh.bucket_keys_ns_per_record":      "lsh.bucket_keys",
		"engine.insert_ns_per_record":        "engine.insert",
		"record.dedup_ns_per_record":         "record.dedup",
		"record.sort_ns_per_record":          "record.sort",
		"stream.stage_ns_per_record":         "stream.stage",
		"stream.insert_staged_ns_per_record": "stream.insert_staged",
		"stream.replay_staged_ns_per_record": "stream.replay_staged",
		"server.ingest_ns_per_record":        "server.ingest",
		"er.featurize_ns_per_record":         "er.featurize",
	} {
		out[metric] = per(spanName)
	}
	for metric, spanName := range map[string]string{
		"stream.snapshot_ms":          "stream.snapshot",
		"server.dataset_copy_ms":      "server.dataset_copy",
		"server.snapshot_ms":          "server.snapshot",
		"server.resolve_ms":           "server.resolve",
		"server.save_ms":              "server.save",
		"server.load_ms":              "server.load",
		"server.compact_ms":           "server.compact",
		"blocking.candidate_pairs_ms": "blocking.candidate_pairs",
		"lsh.block_ms":                "lsh.block",
		"metablocking.build_graph_ms": "metablocking.build_graph",
		"metablocking.prune_ms":       "metablocking.prune",
		"eval.evaluate_ms":            "eval.evaluate",
		"pipeline.run_ms":             "pipeline.run",
	} {
		out[metric] = msOf(spanName)
	}
	ingest := t["server.ingest"].Total
	out["server.merge_self_ns_per_record"] = float64(ingest-t["stream.stage"].Total-t["stream.insert_staged"].Total) / n
	out["server.http_overhead_ns_per_record"] = wire.nsPerRecord - float64(untraced)/n
	out["server.drain_ns_per_pair"] = float64(t["server.drain"].Total) / float64(o.Pairs.N)
	out["server.sse_bytes_per_pair"] = wire.bytesPerPair
	out["pipeline.block_ms"] = ms(batch.Stats.BlockTime)
	out["pipeline.prune_ms"] = ms(batch.Stats.PruneTime)
	out["pipeline.match_ms"] = ms(batch.Stats.MatchTime)
	out["metablocking.edges"] = float64(batch.Edges)
	out["er.pairs_scored"] = float64(batch.Scored)
	out["er.score_ns_per_pair"] = float64(t["er.score"].Total) * float64(runtime.GOMAXPROCS(0)) / float64(batch.Scored)
	out["blocking.blocks"] = float64(batch.Blocks)
	out["blocking.comparisons"] = float64(batch.Comparisons)
	out["host.nproc"] = float64(runtime.NumCPU())
	out["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	out["host.spin_cv"] = spinCV(time.Second)
	out["bench.build_s"] = buildS
	out["bench.trace_overhead_pct"] = 100 * float64(ingest-untraced) / float64(untraced)
	out["bench.ingest_coverage_pct"] = 100 * float64(t["stream.stage"].Total+t["stream.insert_staged"].Total+t["record.merge"].Total) / float64(ingest)
	parts := t["lsh.block"].Total + t["metablocking.build_graph"].Total + t["metablocking.prune"].Total +
		t["blocking.pruned_pairs"].Total + t["er.featurize"].Total + t["er.score"].Total + t["er.cluster"].Total
	out["bench.pipeline_coverage_pct"] = 100 * float64(parts) / float64(t["pipeline.run"].Total)

	for _, d := range perLayer {
		v, ok := out[d.Name]
		if !ok {
			return nil, fmt.Errorf("the traced pass produced no %s", d.Name)
		}
		res.Metrics[d.Name] = v
	}
	res.Attempted += len(tr.spans)
	res.Exact["pairs"] = o.Pairs.String()
	for _, name := range []string{"record.pairs_per_record", "textual.shingles_per_record", "engine.buckets", "blocking.blocks"} {
		res.Exact[name] = fmt.Sprint(out[name])
	}
	path := filepath.Join(env.out, "trace-"+w.Name+".json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	env.logf("%d spans written to %s", len(tr.spans), path)
	return res, nil
}

// wirePass is what the in-process HTTP pass measured.
type wirePass struct {
	nsPerRecord  float64
	bytesPerPair float64
	sum          pairSum
}

// replayHTTP serves the program's own handler on a loopback listener inside
// this process and drives it like the firehose: one connection POSTs every
// body back to back, a second reads the consumer stream. The difference to
// the in-process Collection.Ingest loop over the same batches is what HTTP,
// JSON and the middleware cost per record.
func replayHTTP(ctx context.Context, in *ledgerInput) (wirePass, error) {
	var w wirePass
	handler, release, err := inprocHandler()
	if err != nil {
		return w, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return w, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		hs.Serve(ln) // returns http.ErrServerClosed at Close below
		close(served)
	}()
	defer func() {
		release()
		hs.Close()
		<-served
	}()

	a := &api{base: "http://" + ln.Addr().String(), hc: newConn()}
	spec := in.spec
	spec.Name = collectionName
	if err := a.postJSON(ctx, a.base+"/v1/collections", spec, nil); err != nil {
		return w, err
	}
	group := map[string]string{"group": consumerGroup, "from": "start"}
	if err := a.postJSON(ctx, a.path("/consumers"), group, nil); err != nil {
		return w, err
	}
	rd, err := startPairReader(ctx, newConn(), a.base, &pairReader{batch: in.batch})
	if err != nil {
		return w, err
	}
	defer rd.stop()
	if err := rd.waitReady(10 * time.Second); err != nil {
		return w, err
	}
	t0 := time.Now()
	for _, body := range in.bodies {
		if err := a.send(ctx, a.path("/records"), body); err != nil {
			return w, err
		}
	}
	w.nsPerRecord = float64(time.Since(t0)) / float64(len(in.rows))
	var st collectionStats
	if err := a.getJSON(ctx, a.path(""), &st); err != nil {
		return w, err
	}
	if err := rd.waitCursor(int64(st.Pairs), 60*time.Second); err != nil {
		return w, err
	}
	rd.stop()
	if rd.err != nil {
		return w, rd.err
	}
	w.sum = rd.sum
	if rd.sum.N > 0 {
		w.bytesPerPair = float64(rd.bytes) / float64(rd.sum.N)
	}
	return w, nil
}
