package semblock_test

// One benchmark per table and figure of the paper's evaluation section
// (§6), dispatching through the experiment registry, plus ablation benches
// for the design choices called out in DESIGN.md §4.
//
// The experiment benches use reduced dataset sizes so `go test -bench=.`
// completes in minutes; run `go run ./cmd/experiments -run all` (optionally
// with -full) for paper-scale output. Each bench reports the headline
// metric of its artifact via b.ReportMetric so regressions in *quality*
// (not only speed) are visible in bench diffs.

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"strconv"
	"testing"

	"semblock"
	"semblock/internal/blocking"
	"semblock/internal/datagen"
	"semblock/internal/er"
	"semblock/internal/experiments"
	"semblock/internal/metablocking"
	"semblock/internal/obs"
)

// benchConfig mirrors experiments.DefaultConfig at bench-friendly scale.
func benchConfig() experiments.Config {
	return experiments.Config{
		CoraRecords:   1000,
		VoterRecords:  4000,
		TimingRecords: 2000,
		ScaleSizes:    []int{4000, 8000},
		Repetitions:   2,
		Seed:          1,
	}
}

// runExperiment is the common bench body: run the driver b.N times.
func runExperiment(b *testing.B, id string) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkTable1(b *testing.B) { runExperiment(b, "tab1") }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "tab2") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "tab3") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runExperiment(b, "fig13") }

// --- Core-operation micro-benchmarks -----------------------------------

// coraFixture builds the shared Cora-scale blocking fixture once.
func coraFixture(b *testing.B) (*semblock.Dataset, *semblock.Schema) {
	b.Helper()
	d := datagen.Cora(datagen.DefaultCoraConfig())
	fn, err := semblock.NewCoraSemantics(semblock.BibliographicTaxonomy())
	if err != nil {
		b.Fatal(err)
	}
	schema, err := semblock.BuildSchema(fn, d)
	if err != nil {
		b.Fatal(err)
	}
	return d, schema
}

// BenchmarkBlockLSH measures plain LSH blocking over the full Cora-like
// dataset at the published parameters (k=4, l=63, q=4).
func BenchmarkBlockLSH(b *testing.B) {
	d, _ := coraFixture(b)
	blk, err := semblock.New(semblock.Config{
		Attrs: []string{"authors", "title"}, Q: 4, K: 4, L: 63, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blk.Block(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockSALSH measures SA-LSH blocking at the same parameters,
// quantifying the semantic augmentation's overhead.
func BenchmarkBlockSALSH(b *testing.B) {
	d, schema := coraFixture(b)
	blk, err := semblock.New(semblock.Config{
		Attrs: []string{"authors", "title"}, Q: 4, K: 4, L: 63, Seed: 1,
		Semantic: &semblock.SemanticOption{Schema: schema, W: 3, Mode: semblock.ModeOR},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blk.Block(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockVoterSALSH measures SA-LSH blocking in the paper's NC Voter
// setting — 20,000 voter records, q=2 k=9 l=15, w=12 OR over the full
// signature — where short keys make table build and the OR keying, not
// signing, the bulk of the work.
func BenchmarkBlockVoterSALSH(b *testing.B) {
	cfg := datagen.DefaultVoterConfig()
	cfg.Records = 20_000
	d := datagen.Voter(cfg)
	fn, err := semblock.NewVoterSemantics(semblock.VoterTaxonomy())
	if err != nil {
		b.Fatal(err)
	}
	schema, err := semblock.BuildSchema(fn, d)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := semblock.New(semblock.Config{
		Attrs: []string{"first_name", "last_name"}, Q: 2, K: 9, L: 15, Seed: 1,
		Semantic: &semblock.SemanticOption{Schema: schema, W: 12, Mode: semblock.ModeOR},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blk.Block(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSemhashSignatures measures Algorithm 1 signature generation
// over the full dataset.
func BenchmarkSemhashSignatures(b *testing.B) {
	d, schema := coraFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = schema.SignatureMatrix(d)
	}
}

// --- Streaming indexer benches ------------------------------------------

// streamConfig is the SA-LSH configuration the streaming benches index
// with, matching BenchmarkBlockSALSH for batch-vs-stream comparison.
func streamConfig(schema *semblock.Schema) semblock.Config {
	return semblock.Config{
		Attrs: []string{"authors", "title"}, Q: 4, K: 4, L: 63, Seed: 1,
		Semantic: &semblock.SemanticOption{Schema: schema, W: 3, Mode: semblock.ModeOR},
	}
}

// BenchmarkIndexerInsert measures streaming throughput record-at-a-time:
// one iteration is one Insert plus a Candidates drain. The index is reset
// after each full pass over the dataset so bucket sizes stay Cora-scale.
func BenchmarkIndexerInsert(b *testing.B) {
	d, schema := coraFixture(b)
	cfg := streamConfig(schema)
	recs := d.Records()
	var ix *semblock.Indexer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(recs) == 0 {
			var err error
			if ix, err = semblock.NewIndexer(cfg); err != nil {
				b.Fatal(err)
			}
		}
		r := recs[i%len(recs)]
		ix.Insert(r.Entity, r.Attrs)
		ix.Candidates()
	}
}

// BenchmarkIndexerInsertBatch measures mini-batch streaming throughput:
// one iteration is one InsertBatch of 256 records plus a drain, exercising
// the sharded worker pool.
func BenchmarkIndexerInsertBatch(b *testing.B) {
	const batch = 256
	d, schema := coraFixture(b)
	cfg := streamConfig(schema)
	recs := d.Records()
	var rows [][]semblock.Row
	for lo := 0; lo < len(recs); lo += batch {
		hi := lo + batch
		if hi > len(recs) {
			hi = len(recs)
		}
		chunk := make([]semblock.Row, 0, hi-lo)
		for _, r := range recs[lo:hi] {
			chunk = append(chunk, semblock.Row{Entity: r.Entity, Attrs: r.Attrs})
		}
		rows = append(rows, chunk)
	}
	var ix *semblock.Indexer
	var inserted int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(rows) == 0 {
			var err error
			if ix, err = semblock.NewIndexer(cfg); err != nil {
				b.Fatal(err)
			}
		}
		inserted += len(ix.InsertBatch(rows[i%len(rows)]))
		ix.Candidates()
	}
	b.ReportMetric(float64(inserted)/float64(b.N), "records/op")
}

// BenchmarkServerIngest measures the serving layer's bulk-ingest path end
// to end: one iteration is one HTTP POST of a 256-record JSONL batch into a
// collection, through the real handler stack (httptest transport), with the
// shard count as the sub-benchmark axis. Comparing shards=1 against
// shards=4 isolates the cost/benefit of the table-sharded fan-out; the
// candidate results are identical by construction either way.
func BenchmarkServerIngest(b *testing.B) {
	const batch = 256
	d, _ := coraFixture(b)
	recs := d.Records()
	var batches [][]byte
	var batchRows []int
	for lo := 0; lo < len(recs); lo += batch {
		hi := lo + batch
		if hi > len(recs) {
			hi = len(recs)
		}
		part := semblock.NewDataset("batch")
		for _, r := range recs[lo:hi] {
			part.Append(r.Entity, r.Attrs)
		}
		var buf bytes.Buffer
		if err := semblock.WriteJSONL(&buf, part); err != nil {
			b.Fatal(err)
		}
		batches = append(batches, buf.Bytes())
		batchRows = append(batchRows, hi-lo)
	}

	for _, shards := range []int{1, 4} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			srv, err := semblock.NewServer()
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			cl := ts.Client()
			spec := semblock.CollectionSpec{
				Attrs: []string{"authors", "title"}, Q: 4, K: 4, L: 63, Seed: 1, Shards: shards,
			}
			var url string
			newCollection := func(gen int) {
				if gen > 0 {
					// Drop the previous pass's collection so memory stays
					// bounded at one dataset worth of index.
					if err := srv.Delete("bench" + strconv.Itoa(gen-1)); err != nil {
						b.Fatal(err)
					}
				}
				s := spec
				s.Name = "bench" + strconv.Itoa(gen)
				if _, err := srv.Create(s); err != nil {
					b.Fatal(err)
				}
				url = ts.URL + "/v1/collections/" + s.Name + "/records"
			}
			inserted := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(batches) == 0 {
					// Fresh collection each pass over the dataset, so the
					// index never grows beyond one dataset worth of records.
					b.StopTimer()
					newCollection(i / len(batches))
					b.StartTimer()
				}
				payload := batches[i%len(batches)]
				resp, err := cl.Post(url, "application/x-ndjson", bytes.NewReader(payload))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					b.Fatalf("ingest status %d", resp.StatusCode)
				}
				inserted += batchRows[i%len(batches)]
			}
			b.ReportMetric(float64(inserted)/float64(b.N), "records/op")
		})
	}
}

// --- Pipeline / parallel table-build engine benches ----------------------

// BenchmarkPipelineBlock measures the batch Block path — now built on the
// parallel table-build engine — over a 10k-record synthetic dataset at the
// published parameters. The "serial" sub-benchmark pins both worker pools
// (signatures and table builds) to one goroutine, a fully single-threaded
// run; "parallel" uses the full GOMAXPROCS pools. At GOMAXPROCS >= 4 the
// parallel run should be >= 2x faster than serial: both stages spread
// across the cores, and the l=63 table builds — single-threaded in the
// seed — parallelise with them.
func BenchmarkPipelineBlock(b *testing.B) {
	cfg := datagen.DefaultCoraConfig()
	cfg.Records = 10000
	d := datagen.Cora(cfg)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS
	} {
		b.Run(bc.name, func(b *testing.B) {
			blk, err := semblock.New(semblock.Config{
				Attrs: []string{"authors", "title"}, Q: 4, K: 4, L: 63, Seed: 1,
				Workers: bc.workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := blk.Block(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineEndToEnd measures the full composed dataflow — SA-LSH
// blocking, CBS/WEP meta-blocking pruning, concurrent matching — reporting
// end-to-end resolution F1 alongside speed.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	d, schema := coraFixture(b)
	blk, err := semblock.New(semblock.Config{
		Attrs: []string{"authors", "title"}, Q: 4, K: 4, L: 63, Seed: 1,
		Semantic: &semblock.SemanticOption{Schema: schema, W: 3, Mode: semblock.ModeOR},
	})
	if err != nil {
		b.Fatal(err)
	}
	m, err := semblock.NewMatcher([]semblock.AttrWeight{
		{Attr: "title", Weight: 0.6},
		{Attr: "authors", Weight: 0.4},
	}, 0.55)
	if err != nil {
		b.Fatal(err)
	}
	p, err := semblock.NewPipeline(blk,
		semblock.WithPruning(semblock.WeightSchemeCBS, semblock.PruneWEP),
		semblock.WithMatcher(m))
	if err != nil {
		b.Fatal(err)
	}
	var f1 float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := p.Run(d)
		if err != nil {
			b.Fatal(err)
		}
		q, err := out.Resolution.Evaluate(d)
		if err != nil {
			b.Fatal(err)
		}
		f1 = q.F1
	}
	b.ReportMetric(f1, "f1")
}

// BenchmarkPipelineEndToEndTraced is BenchmarkPipelineEndToEnd with a live
// tracer on the context: every run pays for trace creation, five stage
// spans, and per-stage histogram observations. The benchcmp traced-overhead
// gate compares its ns/op against the untraced baseline to keep the
// instrumentation cost ≤10%.
func BenchmarkPipelineEndToEndTraced(b *testing.B) {
	d, schema := coraFixture(b)
	blk, err := semblock.New(semblock.Config{
		Attrs: []string{"authors", "title"}, Q: 4, K: 4, L: 63, Seed: 1,
		Semantic: &semblock.SemanticOption{Schema: schema, W: 3, Mode: semblock.ModeOR},
	})
	if err != nil {
		b.Fatal(err)
	}
	m, err := semblock.NewMatcher([]semblock.AttrWeight{
		{Attr: "title", Weight: 0.6},
		{Attr: "authors", Weight: 0.4},
	}, 0.55)
	if err != nil {
		b.Fatal(err)
	}
	p, err := semblock.NewPipeline(blk,
		semblock.WithPruning(semblock.WeightSchemeCBS, semblock.PruneWEP),
		semblock.WithMatcher(m))
	if err != nil {
		b.Fatal(err)
	}
	tracer := obs.NewTracer(obs.DefaultTraceBuffer,
		obs.NewDurationVec("bench_stage_seconds", "bench", "stage"))
	var f1 float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, t := tracer.StartTrace(context.Background(), "bench")
		out, err := p.RunContext(ctx, d)
		if err != nil {
			b.Fatal(err)
		}
		tracer.Finish(t)
		q, err := out.Resolution.Evaluate(d)
		if err != nil {
			b.Fatal(err)
		}
		f1 = q.F1
	}
	b.ReportMetric(f1, "f1")
}

// BenchmarkPipelineBudget measures the progressive pipeline at fractional
// comparison budgets (10/25/50/100% of the exhaustive count), reporting the
// achieved recall per point so BENCH_pipeline.json tracks the
// recall-vs-budget curve alongside the speed of each truncated run.
func BenchmarkPipelineBudget(b *testing.B) {
	d, schema := coraFixture(b)
	cfg := semblock.Config{
		Attrs: []string{"authors", "title"}, Q: 4, K: 4, L: 63, Seed: 1,
		Semantic: &semblock.SemanticOption{Schema: schema, W: 3, Mode: semblock.ModeOR},
	}
	blk, err := semblock.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m, err := semblock.NewMatcher([]semblock.AttrWeight{
		{Attr: "title", Weight: 0.6},
		{Attr: "authors", Weight: 0.4},
	}, 0.55)
	if err != nil {
		b.Fatal(err)
	}
	probe, err := semblock.NewPipeline(blk,
		semblock.WithPruning(semblock.WeightSchemeCBS, semblock.PruneWEP),
		semblock.WithMatcher(m))
	if err != nil {
		b.Fatal(err)
	}
	full, err := probe.Run(d)
	if err != nil {
		b.Fatal(err)
	}
	exhaustive := full.Stats.ComparisonsUsed
	for _, pct := range []int{10, 25, 50, 100} {
		b.Run(strconv.Itoa(pct)+"pct", func(b *testing.B) {
			p, err := semblock.NewPipeline(blk,
				semblock.WithPruning(semblock.WeightSchemeCBS, semblock.PruneWEP),
				semblock.WithMatcher(m),
				semblock.WithBudget(exhaustive*int64(pct)/100, 0))
			if err != nil {
				b.Fatal(err)
			}
			var recall float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := p.Run(d)
				if err != nil {
					b.Fatal(err)
				}
				q, err := out.Resolution.Evaluate(d)
				if err != nil {
					b.Fatal(err)
				}
				recall = q.Recall
			}
			b.ReportMetric(recall, "recall")
		})
	}
}

// cora10kBlocks is the batch pipeline's post-blocking input at the paper's
// Cora setting: 10k synthetic records blocked by SA-LSH (q=4, k=4, l=63,
// w=3 OR).
func cora10kBlocks(b *testing.B) (*semblock.Dataset, *semblock.BlockResult) {
	b.Helper()
	cfg := datagen.DefaultCoraConfig()
	cfg.Records = 10000
	d := datagen.Cora(cfg)
	fn, err := semblock.NewCoraSemantics(semblock.BibliographicTaxonomy())
	if err != nil {
		b.Fatal(err)
	}
	schema, err := semblock.BuildSchema(fn, d)
	if err != nil {
		b.Fatal(err)
	}
	blk, err := semblock.New(semblock.Config{
		Attrs: []string{"authors", "title"}, Q: 4, K: 4, L: 63, Seed: 1,
		Semantic: &semblock.SemanticOption{Schema: schema, W: 3, Mode: semblock.ModeOR},
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := blk.Block(d)
	if err != nil {
		b.Fatal(err)
	}
	return d, res
}

// BenchmarkBuildGraph measures the CBS blocking graph's record-major edge
// walk over 10k blocked Cora records on one goroutine ("serial") and on
// GOMAXPROCS ("parallel"), reporting the edge count. Each run copies the
// blocks into a fresh result so no cached walk is reused.
func BenchmarkBuildGraph(b *testing.B) {
	_, res := cora10kBlocks(b)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS
	} {
		b.Run(bc.name, func(b *testing.B) {
			var edges int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh := blocking.NewResult(res.Technique, res.Blocks)
				edges = metablocking.BuildGraphWorkers(fresh, metablocking.CBS, bc.workers).NumEdges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkKernelFeaturize measures the match kernel's per-record feature
// pass over 10k Cora records: serial Featurize one record at a time, and
// the batch FeaturizeAll on GOMAXPROCS goroutines.
func BenchmarkKernelFeaturize(b *testing.B) {
	cfg := datagen.DefaultCoraConfig()
	cfg.Records = 10000
	d := datagen.Cora(cfg)
	m, err := er.NewMatcher([]er.AttrWeight{
		{Attr: "title", Weight: 0.6},
		{Attr: "authors", Weight: 0.4},
	}, 0.6)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := er.NewKernel(m, d.Len())
			for _, r := range d.Records() {
				k.Featurize(r)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			er.NewKernel(m, d.Len()).FeaturizeAll(d.Records(), 0)
		}
	})
}

// --- Ablation benches (DESIGN.md §4) ------------------------------------

// BenchmarkAblationShingleQ measures how the shingle size interacts with
// blocking cost (signature computation dominates; larger q means fewer,
// longer grams).
func BenchmarkAblationShingleQ(b *testing.B) {
	d, _ := coraFixture(b)
	for _, q := range []int{2, 3, 4} {
		b.Run("q="+strconv.Itoa(q), func(b *testing.B) {
			blk, err := semblock.New(semblock.Config{
				Attrs: []string{"authors", "title"}, Q: q, K: 4, L: 63, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := blk.Block(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
