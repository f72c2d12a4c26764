package main

// surface.go is the benchmark's only binding to the program's Go packages:
// no other file of this module imports semblock/internal/*. It deliberately
// uses the narrow set of entry points the ROADMAP's collapse items keep —
// the staged signer flow (NewSigner, AppendKeyHashes, AppendSemSign,
// StageAppend, SignStagedInto, BucketKeys), engine.Table, StripedPairSet,
// SharedLog / InsertStaged / ReplayStaged / Snapshot, the server's
// New / Create / Ingest / DrainConsumer / Save / LoadCollection /
// ResolveContext, lsh.New, pipeline.New, metablocking, er.Kernel, eval and
// datagen — and none of the paths slated for deletion (the root facade,
// GET /candidates, Collection.Candidates, Indexer.Insert/InsertBatch,
// Signer.Sign*/SignComponents*, the minhash.Signature* variants), because
// later changes may not edit the benchmark.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"semblock/internal/blocking"
	"semblock/internal/datagen"
	"semblock/internal/engine"
	"semblock/internal/er"
	"semblock/internal/eval"
	"semblock/internal/lsh"
	"semblock/internal/metablocking"
	"semblock/internal/pipeline"
	"semblock/internal/record"
	"semblock/internal/semantic"
	"semblock/internal/server"
	"semblock/internal/stream"
	"semblock/internal/taxonomy"
)

// Row is one generated record in the program's JSON wire form
// ({"entity":N,"attrs":{...}}), as POSTed to /records and stored in
// segments.
type Row struct {
	Entity int32             `json:"entity"`
	Attrs  map[string]string `json:"attrs"`
}

// semanticSpec, collectionSpec, matchAttr, pruneSpec and resolveSpec are
// the request bodies of POST /v1/collections and POST .../resolve; the
// in-process passes convert them to the server's own types so both sides
// of every comparison run one configuration.
type semanticSpec struct {
	Domain string `json:"domain"`
	W      int    `json:"w"`
	Mode   string `json:"mode"`
}

type collectionSpec struct {
	Name     string        `json:"name"`
	Attrs    []string      `json:"attrs"`
	Q        int           `json:"q"`
	K        int           `json:"k"`
	L        int           `json:"l"`
	Seed     int64         `json:"seed"`
	Shards   int           `json:"shards"`
	Semantic *semanticSpec `json:"semantic,omitempty"`
}

type matchAttr struct {
	Attr   string  `json:"attr"`
	Weight float64 `json:"weight"`
}

type pruneSpec struct {
	Scheme string `json:"scheme"`
	Algo   string `json:"algo"`
}

type resolveSpec struct {
	Match     []matchAttr `json:"match"`
	Threshold float64     `json:"threshold"`
	Pruning   *pruneSpec  `json:"pruning,omitempty"`
}

// genCorpus generates n labelled records from the seed. "salted-cora" is
// the Cora-like generator with the entity tag appended to title and authors
// exactly as experiments.LoadBench does: the generator draws from fixed
// pools, so without the salt unrelated entities become textually identical
// at scale and the pair count grows quadratically; with it pairs per record
// stay near 8 at any size. "cora" is the unsalted generator the paper's
// quality tables use, "voter" the NC-Voter-like one.
func genCorpus(kind string, n int, seed int64) ([]Row, error) {
	var d *record.Dataset
	switch kind {
	case "salted-cora", "cora":
		cfg := datagen.DefaultCoraConfig()
		cfg.Records, cfg.Seed = n, seed
		d = datagen.Cora(cfg)
	case "voter":
		cfg := datagen.DefaultVoterConfig()
		cfg.Records, cfg.Seed = n, seed
		d = datagen.Voter(cfg)
	default:
		return nil, fmt.Errorf("unknown corpus kind %q", kind)
	}
	rows := make([]Row, d.Len())
	for i, r := range d.Records() {
		if kind == "salted-cora" {
			salt := fmt.Sprintf(" c%d", r.Entity)
			r.Attrs["title"] += salt
			r.Attrs["authors"] += salt
		}
		rows[i] = Row{Entity: int32(r.Entity), Attrs: r.Attrs}
	}
	return rows, nil
}

// schemas caches the semhash schema of each built-in semantic domain; the
// voter reference dataset alone is 30,000 generated records.
var schemas sync.Map // domain -> *semantic.Schema

// domainSchema builds the schema of a semantic domain the way the server's
// collection config does — from the domain's default-configuration
// reference dataset — so an in-process signer and a served collection
// created from the same collectionSpec file records into identical buckets.
func domainSchema(domain string) (*semantic.Schema, error) {
	if s, ok := schemas.Load(domain); ok {
		return s.(*semantic.Schema), nil
	}
	var (
		fn  semantic.Function
		ref *record.Dataset
		err error
	)
	switch domain {
	case "cora":
		fn, err = semantic.NewCoraFunction(taxonomy.Bibliographic())
		ref = datagen.Cora(datagen.DefaultCoraConfig())
	case "voter":
		fn, err = semantic.NewVoterFunction(taxonomy.Voter())
		ref = datagen.Voter(datagen.DefaultVoterConfig())
	default:
		return nil, fmt.Errorf("unknown semantic domain %q", domain)
	}
	if err != nil {
		return nil, err
	}
	schema, err := semantic.BuildSchema(fn, ref)
	if err != nil {
		return nil, err
	}
	schemas.Store(domain, schema)
	return schema, nil
}

// lshConfig is the blocking configuration a collectionSpec describes.
func lshConfig(spec collectionSpec) (lsh.Config, error) {
	cfg := lsh.Config{Attrs: spec.Attrs, Q: spec.Q, K: spec.K, L: spec.L, Seed: spec.Seed}
	if spec.Semantic == nil {
		return cfg, nil
	}
	schema, err := domainSchema(spec.Semantic.Domain)
	if err != nil {
		return lsh.Config{}, err
	}
	mode := lsh.ModeOR
	if strings.EqualFold(spec.Semantic.Mode, "and") {
		mode = lsh.ModeAND
	}
	cfg.Semantic = &lsh.SemanticOption{Schema: schema, W: spec.Semantic.W, Mode: mode}
	return cfg, nil
}

func serverSpec(spec collectionSpec) server.CollectionSpec {
	out := server.CollectionSpec{
		Name: spec.Name, Attrs: spec.Attrs, Q: spec.Q, K: spec.K, L: spec.L,
		Seed: spec.Seed, Shards: spec.Shards,
	}
	if s := spec.Semantic; s != nil {
		out.Semantic = &server.SemanticSpec{Domain: s.Domain, W: s.W, Mode: s.Mode}
	}
	return out
}

func serverResolve(rs resolveSpec) server.ResolveRequest {
	req := server.ResolveRequest{Threshold: rs.Threshold}
	for _, m := range rs.Match {
		req.Match = append(req.Match, server.MatchAttr{Attr: m.Attr, Weight: m.Weight})
	}
	if rs.Pruning != nil {
		req.Pruning = &server.PruneSpec{Scheme: rs.Pruning.Scheme, Algo: rs.Pruning.Algo}
	}
	return req
}

// matcherOf builds the er.Matcher and the pruning constants of a resolveSpec.
func matcherOf(rs resolveSpec) (*er.Matcher, metablocking.WeightScheme, metablocking.PruneAlgo, error) {
	weights := make([]er.AttrWeight, len(rs.Match))
	for i, m := range rs.Match {
		weights[i] = er.AttrWeight{Attr: m.Attr, Weight: m.Weight}
	}
	m, err := er.NewMatcher(weights, rs.Threshold)
	if err != nil {
		return nil, 0, 0, err
	}
	if rs.Pruning == nil || rs.Pruning.Scheme != "CBS" || rs.Pruning.Algo != "WEP" {
		return nil, 0, 0, fmt.Errorf("the benchmark prunes with CBS/WEP only, got %+v", rs.Pruning)
	}
	return m, metablocking.CBS, metablocking.WEP, nil
}

func datasetOf(name string, rows []Row) *record.Dataset {
	d := record.NewDataset(name)
	for _, r := range rows {
		d.Append(record.EntityID(r.Entity), r.Attrs)
	}
	return d
}

func streamRows(rows []Row) []stream.Row {
	out := make([]stream.Row, len(rows))
	for i, r := range rows {
		out[i] = stream.Row{Entity: record.EntityID(r.Entity), Attrs: r.Attrs}
	}
	return out
}

func sumPairs(ps record.PairSet) pairSum {
	var s pairSum
	for p := range ps {
		s.add(int32(p.Left()), int32(p.Right()))
	}
	return s
}

// writeJSONL stores rows as a JSON Lines dataset file (the program's
// segment and dataset format) and makes it durable; it returns the size.
func writeJSONL(path string, rows []Row) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := record.WriteJSONL(f, datasetOf("corpus", rows)); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return st.Size(), f.Close()
}

// oracle is the reference result of one record sequence: a batch
// lsh.Blocker.Block over exactly the records a serve workload ingested (or
// a layer replay filed), its candidate-pair digest and its quality. Every
// other path to those pairs — SSE delivery over the wire, the in-process
// collection, the hand-rolled layer replay — must reproduce Pairs exactly:
// batch/stream parity is the program's central invariant.
type oracle struct {
	d      *record.Dataset
	blocks *blocking.Result

	Pairs  pairSum
	PC, PQ float64
}

func newOracle(spec collectionSpec, rows []Row) (*oracle, error) {
	cfg, err := lshConfig(spec)
	if err != nil {
		return nil, err
	}
	b, err := lsh.New(cfg)
	if err != nil {
		return nil, err
	}
	o := &oracle{d: datasetOf("oracle", rows)}
	if o.blocks, err = b.Block(o.d); err != nil {
		return nil, err
	}
	return o, o.finish()
}

// finish derives the digest and the quality from o.blocks.
func (o *oracle) finish() error {
	o.Pairs = sumPairs(o.blocks.CandidatePairs())
	m, err := eval.Evaluate(o.blocks, o.d)
	if err != nil {
		return err
	}
	o.PC, o.PQ = m.PC, m.PQ
	return nil
}

// f1 scores a set of matched pairs (as /resolve returns them) against the
// ground truth: transitive clustering, then pairwise F1 over the
// cluster-implied pairs — Resolution.Evaluate.
func (o *oracle) f1(matches [][2]int32) (float64, error) {
	pairs := make([]record.Pair, len(matches))
	for i, m := range matches {
		pairs[i] = record.MakePair(record.ID(m[0]), record.ID(m[1]))
	}
	q, err := er.NewResolution(o.d.Len(), pairs, int64(len(pairs))).Evaluate(o.d)
	return q.F1, err
}

// fixedBlocker hands an already computed block collection to the pipeline,
// so pruning and matching run over it without blocking again.
type fixedBlocker struct{ res *blocking.Result }

func (f fixedBlocker) Name() string { return f.res.Technique }

func (f fixedBlocker) Block(*record.Dataset) (*blocking.Result, error) { return f.res, nil }

// batchJob is the in-process batch engine over one dataset file: the
// paper's pipeline (SA-LSH blocking, CBS/WEP pruning, matching, clustering)
// or its blocking stage alone.
type batchJob struct {
	d       *record.Dataset
	blocker *lsh.Blocker
	pipe    *pipeline.Pipeline
	rs      resolveSpec

	last   *pipeline.Result // most recent runPipeline result
	blocks *blocking.Result // most recent block collection
}

// loadBatchJob reads the JSONL dataset — the batch job's input file — and
// builds the blocker and pipeline. It is a cold start: nothing is warm.
func loadBatchJob(spec collectionSpec, rs resolveSpec, path string) (*batchJob, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := record.ReadJSONL(bufio.NewReaderSize(f, 1<<20), filepath.Base(path))
	if err != nil {
		return nil, err
	}
	cfg, err := lshConfig(spec)
	if err != nil {
		return nil, err
	}
	j := &batchJob{d: d, rs: rs}
	if j.blocker, err = lsh.New(cfg); err != nil {
		return nil, err
	}
	m, scheme, algo, err := matcherOf(rs)
	if err != nil {
		return nil, err
	}
	j.pipe, err = pipeline.New(j.blocker, pipeline.WithPruning(scheme, algo), pipeline.WithMatcher(m))
	return j, err
}

// runPipeline is one Pipeline.Run; it returns the blocking stage's wall
// time as the pipeline itself clocks it.
func (j *batchJob) runPipeline() (block time.Duration, err error) {
	if j.last, err = j.pipe.Run(j.d); err != nil {
		return 0, err
	}
	j.blocks = j.last.Blocks
	return j.last.Stats.BlockTime, nil
}

// runBlock is one Blocker.Block; pairs then materialises the distinct
// candidate pairs of the result, the form a downstream matcher consumes.
func (j *batchJob) runBlock() (err error) {
	j.blocks, err = j.blocker.Block(j.d)
	return err
}

func (j *batchJob) pairs() int { return j.blocks.CandidatePairs().Len() }

// batchQuality is what a batch workload's verification reports.
type batchQuality struct {
	PC, PQ, F1 float64
	Pairs      pairSum
	Records    int
}

// quality evaluates the latest block collection (eval.Evaluate) and the
// resolution (Resolution.Evaluate). A job that only blocked gets its F1
// from one pruning+matching pass over those blocks.
func (j *batchJob) quality() (batchQuality, error) {
	o := &oracle{d: j.d, blocks: j.blocks}
	if err := o.finish(); err != nil {
		return batchQuality{}, err
	}
	res := j.last
	if res == nil {
		m, scheme, algo, err := matcherOf(j.rs)
		if err != nil {
			return batchQuality{}, err
		}
		p, err := pipeline.New(fixedBlocker{j.blocks}, pipeline.WithPruning(scheme, algo), pipeline.WithMatcher(m))
		if err != nil {
			return batchQuality{}, err
		}
		if res, err = p.Run(j.d); err != nil {
			return batchQuality{}, err
		}
	}
	q, err := res.Resolution.Evaluate(j.d)
	if err != nil {
		return batchQuality{}, err
	}
	return batchQuality{PC: o.PC, PQ: o.PQ, F1: q.F1, Pairs: o.Pairs, Records: j.d.Len()}, nil
}

// inprocHandler is the program's HTTP handler on a fresh in-memory server,
// for the traced pass's transport measurement: same routes, middleware and
// JSON as the child process, without process or checkpoint effects. release
// disconnects the SSE streams so the listener serving it can shut down.
func inprocHandler() (h http.Handler, release func(), err error) {
	srv, err := server.New()
	if err != nil {
		return nil, nil, err
	}
	return srv.Handler(), srv.StopDelivery, nil
}

// ledgerInput is one workload's generated input as the traced pass replays
// it: the records in ingest order, the request bodies that carried them,
// and the configuration they were blocked under.
type ledgerInput struct {
	workload string
	spec     collectionSpec
	resolve  resolveSpec
	rows     []Row
	bodies   [][]byte // JSON array bodies, batch rows each (last may be short)
	batch    int
	dir      string // scratch directory for the persistence spans
}

func (in *ledgerInput) batches() int { return (len(in.rows) + in.batch - 1) / in.batch }

func (in *ledgerInput) bounds(b int) (lo, hi int) {
	lo = b * in.batch
	hi = lo + in.batch
	if hi > len(in.rows) {
		hi = len(in.rows)
	}
	return lo, hi
}

// ledger collects per-layer metrics by name.
type ledger map[string]float64

// replayLayers is the fine-grained pass: every batch goes through the
// layers' public functions one stage at a time, on one goroutine — decode,
// shingle, semhash, sign, bucket keys, table insert, pair dedup, sort —
// with one span per stage per batch, so the timer is read twice per stage
// per batch rather than per record. The pass builds real tables and a real
// pair ledger; the digest of the pairs it discovers is returned and must
// equal the batch oracle's.
func replayLayers(tr *tracer, in *ledgerInput, out ledger) (pairSum, error) {
	cfg, err := lshConfig(in.spec)
	if err != nil {
		return pairSum{}, err
	}
	signer, err := lsh.NewSigner(cfg)
	if err != nil {
		return pairSum{}, err
	}
	var (
		d      = record.NewDataset("replay")
		tables = make([]*engine.Table, cfg.L)
		seen   record.StripedPairSet
		size   = cfg.K * cfg.L
		sigs   = make([]uint64, in.batch*size)
		stages = make([]lsh.Stage, in.batch)
		recs   = make([]*record.Record, 0, in.batch)

		hashes, semWords, arena, keys []uint64
		keyOff, rawOff, freshOff      []int
		raw, fresh                    []record.Pair

		sum                           pairSum
		bodyBytes, shingles, nKeys    int
		rawPairs, freshPairs, records int
	)
	for t := range tables {
		tables[t] = engine.NewTable(0)
	}
	root := tr.begin("replay", -1)
	for b := 0; b < in.batches(); b++ {
		body := in.bodies[b]
		bodyBytes += len(body)

		id := tr.begin("record.decode", b)
		var wire []record.JSONLRecord
		if err := json.Unmarshal(body, &wire); err != nil {
			return pairSum{}, fmt.Errorf("decode batch %d: %w", b, err)
		}
		tr.end(id)

		recs = recs[:0]
		for _, w := range wire {
			entity, attrs := w.Fields()
			recs = append(recs, d.Append(entity, attrs))
		}
		records += len(recs)

		id = tr.begin("textual.shingle", b)
		hashes = hashes[:0]
		for _, r := range recs {
			hashes = signer.AppendKeyHashes(r, hashes)
		}
		tr.end(id)
		shingles += len(hashes)

		id = tr.begin("semantic.semhash", b)
		semWords = semWords[:0]
		for _, r := range recs {
			_, semWords = signer.AppendSemSign(r, semWords)
		}
		tr.end(id)

		// The stage values SignStagedInto consumes: the two stages above
		// computed once more, untimed, into the form the signer hands out.
		arena = arena[:0]
		for i, r := range recs {
			stages[i], arena = signer.StageAppend(r, arena)
		}

		id = tr.begin("minhash.sign", b)
		for i := range recs {
			signer.SignStagedInto(&stages[i], nil, sigs[i*size:(i+1)*size])
		}
		tr.end(id)

		id = tr.begin("lsh.bucket_keys", b)
		keys, keyOff = keys[:0], keyOff[:0]
		for i := range recs {
			sig, sem := sigs[i*size:(i+1)*size], stages[i].Sem()
			for t := 0; t < cfg.L; t++ {
				keyOff = append(keyOff, len(keys))
				keys = signer.BucketKeys(t, sig, sem, keys)
			}
		}
		keyOff = append(keyOff, len(keys))
		tr.end(id)
		nKeys += len(keys)

		id = tr.begin("engine.insert", b)
		raw, rawOff = raw[:0], append(rawOff[:0], 0)
		for i, r := range recs {
			for t := 0; t < cfg.L; t++ {
				for _, key := range keys[keyOff[i*cfg.L+t]:keyOff[i*cfg.L+t+1]] {
					for _, other := range tables[t].Insert(key, r.ID) {
						raw = append(raw, record.MakePair(other, r.ID))
					}
				}
			}
			rawOff = append(rawOff, len(raw))
		}
		tr.end(id)
		rawPairs += len(raw)

		id = tr.begin("record.dedup", b)
		fresh, freshOff = fresh[:0], append(freshOff[:0], 0)
		for i := range recs {
			for _, p := range raw[rawOff[i]:rawOff[i+1]] {
				if seen.AddPair(p) {
					fresh = append(fresh, p)
				}
			}
			freshOff = append(freshOff, len(fresh))
		}
		tr.end(id)
		freshPairs += len(fresh)

		id = tr.begin("record.sort", b)
		for i := range recs {
			record.SortPairs(fresh[freshOff[i]:freshOff[i+1]])
		}
		tr.end(id)

		for _, p := range fresh {
			sum.add(int32(p.Left()), int32(p.Right()))
		}
	}
	tr.end(root)

	buckets, maxBucket := 0, 0
	for _, t := range tables {
		buckets += t.Len()
		t.Buckets(func(_ uint64, ids []record.ID) {
			if len(ids) > maxBucket {
				maxBucket = len(ids)
			}
		})
	}
	n := float64(records)
	out["record.body_bytes_per_record"] = float64(bodyBytes) / n
	out["textual.shingles_per_record"] = float64(shingles) / n
	out["minhash.hash_evals_per_record"] = float64(shingles) * float64(size) / n
	out["lsh.keys_per_record"] = float64(nKeys) / n
	out["engine.buckets"] = float64(buckets)
	out["engine.max_bucket"] = float64(maxBucket)
	out["record.raw_pairs_per_record"] = float64(rawPairs) / n
	out["record.pairs_per_record"] = float64(freshPairs) / n
	if rawPairs > 0 {
		out["record.dedup_useful_ratio"] = float64(freshPairs) / float64(rawPairs)
	}
	return sum, nil
}

// shardFamily builds the table-sharded indexers of one collection over a
// shared log, partitioned as the server does: shard i owns tables t with
// t mod n == i, and the shards split the CPUs between them.
func shardFamily(cfg lsh.Config, log *stream.SharedLog, n int) ([]*stream.Indexer, error) {
	workers := runtime.NumCPU() / n
	if workers < 1 {
		workers = 1
	}
	shards := make([]*stream.Indexer, n)
	for i := range shards {
		var tables []int
		for t := i; t < cfg.L; t += n {
			tables = append(tables, t)
		}
		ix, err := stream.NewIndexer(cfg, stream.WithTables(tables...),
			stream.WithWorkers(workers), stream.WithSharedLog(log))
		if err != nil {
			return nil, err
		}
		shards[i] = ix
	}
	return shards, nil
}

// eachShard runs fn on every shard concurrently and waits.
func eachShard(shards []*stream.Indexer, fn func(i int, ix *stream.Indexer)) {
	var wg sync.WaitGroup
	for i, ix := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, ix)
		}()
	}
	wg.Wait()
}

// replayStream is the composite pass over the stream layer: the shared log
// stages each batch once, a shard family files it with InsertStaged and the
// per-record groups are merged into one deduplicated ledger — the three
// steps Collection.Ingest is made of, timed from outside as wall time of
// the parallel call — and a second family files the same staged batch with
// ReplayStaged, the restore path. Returns the digest of the merged pairs.
func replayStream(tr *tracer, in *ledgerInput, rows []stream.Row) (pairSum, error) {
	cfg, err := lshConfig(in.spec)
	if err != nil {
		return pairSum{}, err
	}
	log, err := stream.NewSharedLog("replay", cfg, 0)
	if err != nil {
		return pairSum{}, err
	}
	live, err := shardFamily(cfg, log, in.spec.Shards)
	if err != nil {
		return pairSum{}, err
	}
	restored, err := shardFamily(cfg, log, in.spec.Shards)
	if err != nil {
		return pairSum{}, err
	}
	var (
		seen   record.StripedPairSet
		sum    pairSum
		groups = make([]stream.PairGroups, len(live))
	)
	for b := 0; b < in.batches(); b++ {
		lo, hi := in.bounds(b)

		id := tr.begin("stream.stage", b)
		staged := log.Append(rows[lo:hi])
		tr.end(id)

		id = tr.begin("stream.insert_staged", b)
		eachShard(live, func(i int, ix *stream.Indexer) { groups[i] = ix.InsertStaged(staged) })
		tr.end(id)

		id = tr.begin("record.merge", b)
		fresh := make([][]record.Pair, hi-lo)
		chunks(hi-lo, runtime.NumCPU(), func(from, to int) {
			for i := from; i < to; i++ {
				var g []record.Pair
				for s := range groups {
					for _, p := range groups[s].Group(i) {
						if seen.AddPair(p) {
							g = append(g, p)
						}
					}
				}
				record.SortPairs(g)
				fresh[i] = g
			}
		})
		tr.end(id)
		for _, g := range fresh {
			for _, p := range g {
				sum.add(int32(p.Left()), int32(p.Right()))
			}
		}

		id = tr.begin("stream.replay_staged", b)
		eachShard(restored, func(_ int, ix *stream.Indexer) { ix.ReplayStaged(staged) })
		tr.end(id)
	}
	id := tr.begin("stream.snapshot", -1)
	for _, ix := range restored {
		ix.Snapshot()
	}
	tr.end(id)
	return sum, nil
}

// chunks splits [0,n) into up to workers contiguous ranges and runs fn on
// each concurrently.
func chunks(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	size := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// ingestUntraced ingests every batch into a fresh collection with no span
// and no drain, and returns the wall time of the loop: the untraced
// reference both the tracing overhead and the transport overhead are taken
// against.
func ingestUntraced(in *ledgerInput, rows []stream.Row) (time.Duration, error) {
	srv, err := server.New()
	if err != nil {
		return 0, err
	}
	c, err := srv.Create(serverSpec(in.spec))
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for b := 0; b < in.batches(); b++ {
		lo, hi := in.bounds(b)
		if _, err := c.Ingest(rows[lo:hi]); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// serverPassResult is what the traced server pass found.
type serverPassResult struct {
	Delivered pairSum // pairs handed to the bench consumer group
	Records   int
	Pairs     int // Collection.PairCount after the last batch
	Restored  int // records of the collection LoadCollection rebuilt
}

// replayServer is the composite pass over the serving layer: one collection
// ingests every batch (Collection.Ingest) and a consumer group drains after
// each (DrainConsumer), then the read and persistence paths run once each
// over the full collection — Dataset, Snapshot, CandidatePairs,
// ResolveContext, Save, LoadCollection, Compact.
func replayServer(ctx context.Context, tr *tracer, in *ledgerInput, rows []stream.Row, out ledger) (serverPassResult, error) {
	var res serverPassResult
	srv, err := server.New()
	if err != nil {
		return res, err
	}
	c, err := srv.Create(serverSpec(in.spec))
	if err != nil {
		return res, err
	}
	if _, err := c.CreateConsumer(consumerGroup, false); err != nil {
		return res, err
	}
	deliver := func(b server.ConsumerBatch) error {
		for _, p := range b.Pairs {
			res.Delivered.add(int32(p.Left()), int32(p.Right()))
		}
		return nil
	}
	for b := 0; b < in.batches(); b++ {
		lo, hi := in.bounds(b)
		id := tr.begin("server.ingest", b)
		_, err := c.Ingest(rows[lo:hi])
		tr.end(id)
		if err != nil {
			return res, err
		}
		id = tr.begin("server.drain", b)
		_, err = c.DrainConsumer(consumerGroup, deliver)
		tr.end(id)
		if err != nil {
			return res, err
		}
	}
	res.Records, res.Pairs = c.Len(), c.PairCount()

	id := tr.begin("server.dataset_copy", -1)
	c.Dataset()
	tr.end(id)

	id = tr.begin("server.snapshot", -1)
	snap := c.Snapshot()
	tr.end(id)

	id = tr.begin("blocking.candidate_pairs", -1)
	snap.CandidatePairs()
	tr.end(id)

	id = tr.begin("server.resolve", -1)
	_, err = c.ResolveContext(ctx, serverResolve(in.resolve))
	tr.end(id)
	if err != nil {
		return res, err
	}

	dir := filepath.Join(in.dir, "ledger-"+in.spec.Name)
	id = tr.begin("server.save", -1)
	err = c.Save(dir)
	tr.end(id)
	if err != nil {
		return res, err
	}
	var segBytes int64
	segs, err := filepath.Glob(filepath.Join(dir, "segment-*.jsonl"))
	if err != nil {
		return res, err
	}
	for _, s := range segs {
		st, err := os.Stat(s)
		if err != nil {
			return res, err
		}
		segBytes += st.Size()
	}
	out["server.segment_bytes_per_record"] = float64(segBytes) / float64(res.Records)

	id = tr.begin("server.load", -1)
	loaded, err := server.LoadCollection(dir)
	tr.end(id)
	if err != nil {
		return res, err
	}
	res.Restored = loaded.Len()

	id = tr.begin("server.compact", -1)
	_, err = c.Compact(dir)
	tr.end(id)
	return res, err
}

// batchPassResult is what the traced batch pass found.
type batchPassResult struct {
	Pairs       pairSum // digest of Blocker.Block's candidate pairs
	Blocks      int
	Comparisons int64
	Edges       int
	Scored      int
	Stats       pipeline.Stats
	RunWall     time.Duration
}

// replayBatch is the composite pass over the batch engine: Blocker.Block,
// then the pipeline's later stages one public call at a time — BuildGraph,
// Prune, the pruned pair set, Kernel.Featurize, Kernel.Score on as many
// goroutines as the pipeline's scoring pool, clustering, eval.Evaluate —
// and finally one whole Pipeline.Run to account the parts against.
func replayBatch(tr *tracer, in *ledgerInput) (batchPassResult, error) {
	var res batchPassResult
	cfg, err := lshConfig(in.spec)
	if err != nil {
		return res, err
	}
	blocker, err := lsh.New(cfg)
	if err != nil {
		return res, err
	}
	matcher, scheme, algo, err := matcherOf(in.resolve)
	if err != nil {
		return res, err
	}
	d := datasetOf("batch", in.rows)

	id := tr.begin("lsh.block", -1)
	blocks, err := blocker.Block(d)
	tr.end(id)
	if err != nil {
		return res, err
	}
	res.Blocks, res.Comparisons = blocks.NumBlocks(), blocks.Comparisons()

	id = tr.begin("metablocking.build_graph", -1)
	g := metablocking.BuildGraph(blocks, scheme)
	tr.end(id)
	res.Edges = g.NumEdges()

	id = tr.begin("metablocking.prune", -1)
	pruned := g.Prune(algo)
	tr.end(id)

	id = tr.begin("blocking.pruned_pairs", -1)
	pairs := pruned.CandidatePairs().Slice()
	tr.end(id)
	res.Scored = len(pairs)

	kern := er.NewKernel(matcher, d.Len())
	id = tr.begin("er.featurize", -1)
	for _, r := range d.Records() {
		kern.Featurize(r)
	}
	tr.end(id)

	workers := runtime.GOMAXPROCS(0)
	matched := make([][]record.Pair, workers)
	id = tr.begin("er.score", -1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(pairs); i += workers {
				if p := pairs[i]; kern.Score(p.Left(), p.Right()) >= matcher.Threshold() {
					matched[w] = append(matched[w], p)
				}
			}
		}()
	}
	wg.Wait()
	tr.end(id)

	var all []record.Pair
	for _, m := range matched {
		all = append(all, m...)
	}
	id = tr.begin("er.cluster", -1)
	er.NewResolution(d.Len(), all, int64(len(pairs)))
	tr.end(id)

	id = tr.begin("eval.evaluate", -1)
	_, err = eval.Evaluate(blocks, d)
	tr.end(id)
	if err != nil {
		return res, err
	}
	res.Pairs = sumPairs(blocks.CandidatePairs())

	p, err := pipeline.New(blocker, pipeline.WithPruning(scheme, algo), pipeline.WithMatcher(matcher))
	if err != nil {
		return res, err
	}
	t0 := time.Now()
	id = tr.begin("pipeline.run", -1)
	run, err := p.Run(d)
	tr.end(id)
	res.RunWall = time.Since(t0)
	if err != nil {
		return res, err
	}
	res.Stats = run.Stats
	return res, nil
}

// shape renders the deterministic counts of the latest iteration's output;
// two iterations over one dataset must agree on it.
func (j *batchJob) shape() string {
	matches := -1
	if j.last != nil {
		matches = j.last.Stats.Matches
	}
	return fmt.Sprintf("blocks=%d comparisons=%d matches=%d", j.blocks.NumBlocks(), j.blocks.Comparisons(), matches)
}
