// Package pipeline composes the repository's stages — blocking, optional
// meta-blocking pruning, optional pairwise matching — into one configurable
// dataflow, closing the loop the paper opens ("our blocking results can be
// used as input to any ER algorithms", §1) the way meta-blocking systems
// treat candidate generation: as a staged, prunable pipeline rather than
// disconnected one-shot calls.
//
// A Pipeline is built once from any blocking.Blocker (SA-LSH, Forest,
// MultiProbe, or any of the twelve baselines) plus options, and then runs
// in two modes:
//
//   - Batch: Run(dataset) blocks the dataset (the (SA-)LSH blockers use the
//     parallel table-build engine underneath), optionally restructures the
//     block collection with a meta-blocking weight scheme + prune algorithm,
//     and scores the surviving candidate pairs concurrently — the drain is
//     cut into tasks of a fixed number of pairs, run on
//     engine.ParallelTasks, and each task's matches land in a slot of its
//     own, concatenated in drain order.
//   - Streaming: RunStream(indexer, rows) drives a live stream.Indexer:
//     rows are inserted in mini-batches, the candidate pairs drained from
//     Indexer.Candidates() after every batch are scored the same way
//     before the next batch is inserted, and matches can be observed live
//     through WithMatchSink. Pruning, a global operation over the final
//     block collection, is applied to the closing Snapshot, and the
//     collected matches are filtered to the pruned collection.
//
// Both modes produce the same Result shape, and for a fixed configuration
// the streaming run's final blocks, matches and clustering equal the batch
// run's — a consequence of the batch/stream parity the shared
// internal/engine table store enforces plus the closing match filter. (The
// live sink and Stats.PairsScored still reflect the pre-pruning stream;
// see RunStream.)
package pipeline

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"semblock/internal/blocking"
	"semblock/internal/engine"
	"semblock/internal/er"
	"semblock/internal/metablocking"
	"semblock/internal/obs"
	"semblock/internal/record"
	"semblock/internal/stream"
)

// Match is one scored candidate pair that met the matcher's threshold.
type Match struct {
	// Pair is the canonical record pair.
	Pair record.Pair
	// Score is the matcher's weighted similarity in [0,1].
	Score float64
}

// Stats aggregates per-stage counters and timings of one pipeline run.
type Stats struct {
	// Records is the dataset cardinality.
	Records int
	// Blocks / Comparisons describe the blocking stage output.
	Blocks      int
	Comparisons int64
	// PrunedComparisons is the comparison count after the pruning stage
	// (equal to Comparisons when no pruning stage is configured).
	PrunedComparisons int64
	// PairsScored is the number of distinct pairs the matcher evaluated.
	PairsScored int64
	// Matches is the number of pairs at or above the threshold.
	Matches int
	// ComparisonsUsed is the number of candidate comparisons the matching
	// stage actually performed. It equals PairsScored; on a budgeted run it
	// can be smaller than PrunedComparisons.
	ComparisonsUsed int64
	// Truncated reports whether a comparison budget, duration budget or
	// context deadline cut the matching stage short of the full candidate
	// set. Unbudgeted runs always report false.
	Truncated bool
	// BlockTime, PruneTime and MatchTime are wall-clock stage durations.
	// In streaming mode BlockTime covers insertion and MatchTime the
	// scoring that follows each batch's insert; they do not overlap.
	BlockTime, PruneTime, MatchTime time.Duration
}

// Result is the output of one pipeline run.
type Result struct {
	// Blocks is the blocking-stage output.
	Blocks *blocking.Result
	// Pruned is the restructured collection after meta-blocking pruning
	// (nil when no pruning stage is configured).
	Pruned *blocking.Result
	// Final is the collection the matching stage consumed: Pruned when a
	// pruning stage is configured, Blocks otherwise.
	Final *blocking.Result
	// Matches holds the scored matches in canonical pair order (nil when
	// no matcher is configured).
	Matches []Match
	// Resolution is the transitive clustering of the matches (nil when no
	// matcher is configured).
	Resolution *er.Resolution
	// Stats holds per-stage counters and timings.
	Stats Stats
}

// Pipeline is a configured blocking→pruning→matching dataflow. Construct
// with New; a Pipeline is immutable and safe for concurrent runs.
type Pipeline struct {
	blocker blocking.Blocker
	prune   *pruneStage
	matcher *er.Matcher
	sink    func(Match)
	budget  budget
	workers int
	batch   int
}

type pruneStage struct {
	scheme metablocking.WeightScheme
	algo   metablocking.PruneAlgo
}

// budget bounds the matching stage. The zero value means unbudgeted.
type budget struct {
	maxComparisons int64
	maxDuration    time.Duration
}

func (b budget) active() bool { return b.maxComparisons > 0 || b.maxDuration > 0 }

// Option customises a Pipeline.
type Option func(*Pipeline)

// WithPruning inserts a meta-blocking stage between blocking and matching:
// the block collection is rebuilt as a weighted blocking graph under the
// scheme and restructured by the prune algorithm.
func WithPruning(scheme metablocking.WeightScheme, algo metablocking.PruneAlgo) Option {
	return func(p *Pipeline) { p.prune = &pruneStage{scheme: scheme, algo: algo} }
}

// WithMatcher appends a matching stage: surviving candidate pairs are
// scored concurrently and classified against the matcher's threshold.
func WithMatcher(m *er.Matcher) Option {
	return func(p *Pipeline) { p.matcher = m }
}

// WithWorkers sets the width of the stages after blocking — the graph
// build, featurization and scoring (default GOMAXPROCS). It never changes
// the result, only the concurrency.
func WithWorkers(n int) Option {
	return func(p *Pipeline) {
		if n > 0 {
			p.workers = n
		}
	}
}

// WithBatchSize sets the number of pairs one scoring task scores and the
// row mini-batch size of RunStream (default 256).
func WithBatchSize(n int) Option {
	return func(p *Pipeline) {
		if n > 0 {
			p.batch = n
		}
	}
}

// WithBudget bounds the matching stage: at most maxComparisons candidate
// pairs are scored (0 = unlimited), within at most maxDuration of the run's
// start (0 = unlimited). A budgeted run drains candidates best-first — in
// descending meta-blocking edge weight (the pruning stage's scheme, or CBS
// when no pruning stage is configured) — so the comparisons most likely to
// be matches are spent first, following the progressive-ER framing of
// arXiv 2005.14326. Stats.ComparisonsUsed and Stats.Truncated report what
// the budget admitted.
//
// Both values zero (or the option absent) leaves the pipeline exhaustive:
// candidates are scored in canonical order and the output is identical to
// a pipeline without the option. The budget only affects the matching
// stage; blocking and pruning always run in full.
func WithBudget(maxComparisons int64, maxDuration time.Duration) Option {
	return func(p *Pipeline) {
		if maxComparisons < 0 {
			maxComparisons = 0
		}
		if maxDuration < 0 {
			maxDuration = 0
		}
		p.budget = budget{maxComparisons: maxComparisons, maxDuration: maxDuration}
	}
}

// WithMatchSink registers a callback observing every match before the run
// completes — the live-consumption hook for streaming runs. The callback
// runs on the caller's goroutine (never concurrently), after each scoring
// pass, in drain order: canonical for an unbudgeted batch run, best-first
// for a budgeted one, and emission order, batch by batch, for a stream.
func WithMatchSink(fn func(Match)) Option {
	return func(p *Pipeline) { p.sink = fn }
}

// New builds a pipeline over the given blocker. With no options the
// pipeline degenerates to the blocking stage alone.
func New(b blocking.Blocker, opts ...Option) (*Pipeline, error) {
	if b == nil {
		return nil, fmt.Errorf("pipeline: nil blocker")
	}
	p := &Pipeline{blocker: b, workers: engine.Workers(0), batch: 256}
	for _, opt := range opts {
		opt(p)
	}
	if p.sink != nil && p.matcher == nil {
		return nil, fmt.Errorf("pipeline: WithMatchSink requires WithMatcher")
	}
	return p, nil
}

// Run executes the pipeline in batch mode over the dataset.
func (p *Pipeline) Run(d *record.Dataset) (*Result, error) {
	return p.RunContext(context.Background(), d) //semblock:allow ctxflow compat shim: Run is the documented no-budget batch API; budget callers use RunContext
}

// RunContext is Run with a context: cancellation (or a context deadline)
// truncates the matching stage at the next batch boundary and returns the
// well-formed partial result with Stats.Truncated set — it never aborts
// with an error once blocking has succeeded. Combined with WithBudget this
// is the serving entry point: the matching stage drains candidates
// best-first, so whatever fits before the deadline is the highest-weight
// slice of the candidate set.
func (p *Pipeline) RunContext(ctx context.Context, d *record.Dataset) (*Result, error) {
	start := time.Now()
	res := &Result{}
	res.Stats.Records = d.Len()

	// The trace, when the context carries one, records one span per stage
	// (obs.StageBlock/Graph/Sign/Rank/Match). With no trace every Start/End
	// is a nil no-op — the hot path stays allocation-identical to the
	// uninstrumented pipeline.
	tr := obs.From(ctx)

	sp := tr.Start(obs.StageBlock)
	blocks, err := p.blocker.Block(d)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.End()
	res.Stats.BlockTime = time.Since(start)
	res.Blocks = blocks
	res.Stats.Blocks = blocks.NumBlocks()
	res.Stats.Comparisons = blocks.Comparisons()

	res.Final = blocks
	res.Stats.PrunedComparisons = res.Stats.Comparisons
	var g *metablocking.Graph
	if p.prune != nil {
		t1 := time.Now()
		sp = tr.Start(obs.StageGraph)
		res.Pruned, g = p.applyPruning(blocks)
		sp.End()
		res.Stats.PruneTime = time.Since(t1)
		res.Final = res.Pruned
		res.Stats.PrunedComparisons = res.Pruned.Comparisons()
	}

	if p.matcher != nil {
		t2 := time.Now()
		kern := er.NewKernel(p.matcher, d.Len())
		var prepare func([]record.Pair)
		if p.budget.active() {
			// Budgeted run: featurize lazily, only the records the ranked
			// drain actually touches — a truncating budget then pays a
			// proportional share of the featurization cost, not all of it.
			prepare = func(drain []record.Pair) {
				sp := tr.Start(obs.StageSign)
				need := make([]bool, d.Len())
				for _, pr := range drain {
					need[pr.Left()] = true
					need[pr.Right()] = true
				}
				var rs []*record.Record
				for id, ok := range need {
					if ok {
						rs = append(rs, d.Record(record.ID(id)))
					}
				}
				kern.FeaturizeAll(rs, p.workers)
				sp.End()
			}
		} else {
			sp = tr.Start(obs.StageSign)
			kern.FeaturizeAll(d.Records(), p.workers)
			sp.End()
		}
		p.matchFinal(ctx, start, res, g, kern.Score, prepare, d.Len())
		res.Stats.MatchTime = time.Since(t2)
	}
	return res, nil
}

// matchFinal runs the (possibly budgeted) scoring stage over the final
// collection's candidate pairs: rank best-first when a budget is active,
// score the drain in tasks (score), hand the matches to the sink in drain
// order, and finish the result. A cancelled context or a passed deadline
// cuts the drain at a task boundary. prepare, when non-nil, is called with
// the drain set before any scoring — the batch path uses it to featurize
// only the records the drain touches.
func (p *Pipeline) matchFinal(ctx context.Context, start time.Time, res *Result, g *metablocking.Graph, score func(a, b record.ID) float64, prepare func([]record.Pair), n int) {
	tr := obs.From(ctx)
	var pairs []record.Pair
	if p.budget.active() && g == nil {
		// No pruning stage: weight the raw block collection under CBS, the
		// cheapest scheme, purely to order the drain. Its edges are the
		// collection's pairs.
		sp := tr.Start(obs.StageGraph)
		g = metablocking.BuildGraphWorkers(res.Blocks, metablocking.CBS, p.workers)
		sp.End()
		pairs = g.Pairs()
	} else {
		pairs = res.Final.PairsWorkers(p.workers)
	}
	drain := pairs
	capped := false
	if p.budget.active() {
		k := 0
		if p.budget.maxComparisons > 0 && p.budget.maxComparisons < int64(len(pairs)) {
			k = int(p.budget.maxComparisons)
			capped = true
		}
		sp := tr.Start(obs.StageRank)
		ranked := g.RankPairs(pairs, k)
		drain = make([]record.Pair, len(ranked))
		for i, wp := range ranked {
			drain[i] = wp.Pair
		}
		sp.End()
	}
	if prepare != nil {
		prepare(drain)
	}

	spMatch := tr.Start(obs.StageMatch)
	matches, used := p.score(drain, score, func() bool {
		return ctx.Err() != nil || p.budget.maxDuration > 0 && time.Since(start) >= p.budget.maxDuration
	})
	res.Stats.Truncated = capped || used < len(drain)
	spMatch.EndTruncated(res.Stats.Truncated)
	p.emit(matches)
	p.finishMatches(res, matches, int64(used), n)
}

// RunStream executes the pipeline in streaming mode: rows received from
// the channel are inserted into the indexer in mini-batches, the
// candidate pairs drained after each batch are scored concurrently before
// the next batch is inserted, and the pruning stage (if any) is applied to
// the final snapshot. With a pruning stage the collected matches are then
// filtered to the pruned collection, so Result.Matches and
// Result.Resolution equal the batch run's for the same configuration; the
// live WithMatchSink hook still observes every pre-pruning match as it is
// scored, and
// Stats.PairsScored counts all pairs scored live (which can exceed
// PrunedComparisons). The indexer must be freshly constructed with the
// intended (SA-)LSH configuration — in this mode it is the blocking stage,
// and the pipeline's blocker is not used. RunStream returns after the rows
// channel closes and all stages drain.
func (p *Pipeline) RunStream(ix *stream.Indexer, rows <-chan stream.Row) (*Result, error) {
	return p.RunStreamContext(context.Background(), ix, rows) //semblock:allow ctxflow compat shim: RunStream is the documented no-budget streaming API; budget callers use RunStreamContext
}

// RunStreamContext is RunStream with a context for the matching stage (see
// RunContext). With an active budget, live scoring is skipped: scoring any
// pair as it is discovered would spend budget on pairs a best-first drain
// would never admit. Instead the budgeted matching stage runs once over
// the final (pruned) collection, so the sink observes the budgeted matches
// at the end of the stream rather than live, and the drain order is the
// same best-first order as the batch run's.
func (p *Pipeline) RunStreamContext(ctx context.Context, ix *stream.Indexer, rows <-chan stream.Row) (*Result, error) {
	if ix == nil {
		return nil, fmt.Errorf("pipeline: nil indexer")
	}
	if ix.Len() != 0 {
		return nil, fmt.Errorf("pipeline: indexer already holds %d records; RunStream needs a fresh index", ix.Len())
	}
	start := time.Now()
	res := &Result{}

	// The kernel mirrors the inserted records for the scoring stage:
	// candidate pairs only ever reference already-inserted IDs, and each
	// batch is scored after its insert, so the kernel never grows while
	// it is read.
	var kern *er.Kernel
	if p.matcher != nil {
		kern = er.NewKernel(p.matcher, 0)
	}
	live := p.matcher != nil && !p.budget.active()

	// Feed stage: mini-batch insertion, candidate draining and scoring.
	var matches []Match
	var scored int64
	dataset := record.NewDataset("pipeline-stream")
	batch := make([]stream.Row, 0, p.batch)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		for _, row := range batch {
			r := dataset.Append(row.Entity, row.Attrs)
			if kern != nil {
				kern.Featurize(r)
			}
		}
		ix.InsertBatch(batch)
		batch = batch[:0]
		// Drain even without a matcher, so the indexer's pending queue
		// stays bounded over long streams.
		pairs := ix.Candidates()
		if !live || len(pairs) == 0 {
			return
		}
		t := time.Now()
		ms, _ := p.score(pairs, kern.Score, nil)
		res.Stats.MatchTime += time.Since(t)
		p.emit(ms)
		matches = append(matches, ms...)
		scored += int64(len(pairs))
	}
	for row := range rows {
		batch = append(batch, row)
		if len(batch) >= p.batch {
			flush()
		}
	}
	flush()
	res.Stats.BlockTime = time.Since(start) - res.Stats.MatchTime

	res.Stats.Records = dataset.Len()
	blocks := ix.Snapshot()
	res.Blocks = blocks
	res.Stats.Blocks = blocks.NumBlocks()
	res.Stats.Comparisons = blocks.Comparisons()
	res.Final = blocks
	res.Stats.PrunedComparisons = res.Stats.Comparisons
	var g *metablocking.Graph
	if p.prune != nil {
		t1 := time.Now()
		sp := obs.From(ctx).Start(obs.StageGraph)
		res.Pruned, g = p.applyPruning(blocks)
		sp.End()
		res.Stats.PruneTime = time.Since(t1)
		res.Final = res.Pruned
		res.Stats.PrunedComparisons = res.Pruned.Comparisons()
		if live {
			// Keep only matches the pruning stage retained, restoring
			// batch/stream result parity: every pruned-collection pair was
			// scored live (it is a subset of the emitted candidates). Both
			// lists are ascending, so one merge filters them.
			sortMatches(matches)
			kept := res.Pruned.Pairs()
			filtered := matches[:0]
			j := 0
			for _, m := range matches {
				for j < len(kept) && kept[j] < m.Pair {
					j++
				}
				if j < len(kept) && kept[j] == m.Pair {
					filtered = append(filtered, m)
				}
			}
			matches = filtered
		}
	}
	if live {
		p.finishMatches(res, matches, scored, dataset.Len())
	} else if p.matcher != nil {
		// Budgeted: the stream has closed and the kernel is complete.
		t2 := time.Now()
		p.matchFinal(ctx, start, res, g, kern.Score, nil, dataset.Len())
		res.Stats.MatchTime = time.Since(t2)
	}
	return res, nil
}

// applyPruning rebuilds the block collection through the meta-blocking
// graph stage, returning the graph as well so a budgeted matching stage
// can rank the survivors under the same weights.
func (p *Pipeline) applyPruning(blocks *blocking.Result) (*blocking.Result, *metablocking.Graph) {
	g := metablocking.BuildGraphWorkers(blocks, p.prune.scheme, p.workers)
	return g.Prune(p.prune.algo), g
}

// score scores pairs in tasks of p.batch pairs (engine.ParallelTasks),
// each writing its matches to its own slot, and returns the slots
// concatenated in pair order plus the number of pairs scored. stop, when
// non-nil, is checked as each task starts: the first task to see it true
// records its index as the cut (an atomic min) and later tasks skip, so
// the result is exactly the threshold-passing pairs of pairs[:scored].
func (p *Pipeline) score(pairs []record.Pair, score func(a, b record.ID) float64, stop func() bool) ([]Match, int) {
	thr := p.matcher.Threshold()
	tasks := (len(pairs) + p.batch - 1) / p.batch
	slots := make([][]Match, tasks)
	var cut atomic.Int64
	cut.Store(int64(tasks))
	engine.ParallelTasks(tasks, p.workers, func(_, t int) {
		if int64(t) >= cut.Load() {
			return
		}
		if stop != nil && stop() {
			for c := cut.Load(); int64(t) < c && !cut.CompareAndSwap(c, int64(t)); c = cut.Load() {
			}
			return
		}
		var out []Match
		for _, pr := range pairs[t*p.batch : min((t+1)*p.batch, len(pairs))] {
			if sc := score(pr.Left(), pr.Right()); sc >= thr {
				out = append(out, Match{Pair: pr, Score: sc})
			}
		}
		slots[t] = out
	})
	kept := int(cut.Load())
	return slices.Concat(slots[:kept]...), min(kept*p.batch, len(pairs))
}

// emit hands matches to the sink, if any, on the caller's goroutine.
func (p *Pipeline) emit(ms []Match) {
	if p.sink == nil {
		return
	}
	for _, m := range ms {
		p.sink(m)
	}
}

// finishMatches orders the matches canonically, records how many pairs
// were scored and derives the resolution.
// A budgeted drain arrives in rank order and a stream's in emission order;
// an unbudgeted batch drain is already canonical, which the sort checks in
// one pass.
func (p *Pipeline) finishMatches(res *Result, matches []Match, scored int64, n int) {
	sortMatches(matches)
	res.Matches = matches
	res.Stats.PairsScored = scored
	res.Stats.ComparisonsUsed = scored
	res.Stats.Matches = len(matches)
	pairs := make([]record.Pair, len(matches))
	for i, m := range matches {
		pairs[i] = m.Pair
	}
	res.Resolution = er.NewResolution(n, pairs, scored)
}

// sortMatches orders matches canonically (pairs are totally ordered
// uint64s).
func sortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int { return cmp.Compare(a.Pair, b.Pair) })
}
