// Package semblock is a semantic-aware blocking library for entity
// resolution, reproducing "Semantic-Aware Blocking for Entity Resolution"
// (Wang, Cui & Liang, IEEE TKDE 28(1), 2016).
//
// Blocking groups candidate duplicate records into (possibly overlapping)
// blocks so that only records within a block are compared by a downstream
// matcher. This package implements the paper's SA-LSH framework — minhash
// LSH over textual q-gram similarity, augmented per hash table with w-way
// AND/OR semantic hash functions derived from taxonomy trees — together
// with the full apparatus around it: taxonomies and semantic similarity,
// semhash signatures, parameter tuning, twelve survey baselines,
// meta-blocking, evaluation measures and synthetic benchmark datasets.
//
// # Quick start
//
//	d := semblock.NewDataset("pubs")
//	d.Append(0, map[string]string{"title": "...", "booktitle": "..."})
//	...
//	tax := semblock.BibliographicTaxonomy()
//	fn, _ := semblock.NewCoraSemantics(tax)
//	schema, _ := semblock.BuildSchema(fn, d)
//	b, _ := semblock.New(semblock.Config{
//	    Attrs: []string{"title"}, Q: 4, K: 4, L: 63,
//	    Semantic: &semblock.SemanticOption{Schema: schema, W: 3, Mode: semblock.ModeOR},
//	})
//	blocks, _ := b.Block(d)
//	for _, pair := range blocks.CandidatePairs().Slice() { ... }
//
// # Streaming
//
// The same configuration drives an online index that emits candidate
// pairs incrementally as records arrive:
//
//	ix, _ := semblock.NewIndexer(cfg)
//	for rec := range source {
//	    ix.Insert(semblock.UnknownEntity, rec)
//	    for _, pair := range ix.Candidates() { ... }
//	}
//	snapshot := ix.Snapshot() // equals the batch Block over the same records
//
// # Pipeline
//
// Blocking, meta-blocking pruning and downstream matching compose into one
// concurrent dataflow:
//
//	p, _ := semblock.NewPipeline(b,
//	    semblock.WithPruning(semblock.WeightSchemeCBS, semblock.PruneWEP),
//	    semblock.WithMatcher(matcher))
//	out, _ := p.Run(d) // out.Final, out.Matches, out.Resolution
//
// # Serving
//
// A multi-tenant HTTP service wraps the streaming engine in named, sharded,
// persistent collections ("semblock serve" on the command line):
//
//	srv, _ := semblock.NewServer(semblock.WithDataDir("/var/lib/semblock"))
//	c, _ := srv.Create(semblock.CollectionSpec{
//	    Name: "pubs", Attrs: []string{"title"}, Q: 4, K: 4, L: 63, Shards: 4,
//	})
//	c.Ingest(rows)                          // or POST /v1/collections/pubs/records
//	pairs := c.Candidates()                 // or GET  .../candidates
//	http.ListenAndServe(addr, srv.Handler())
//
// Candidates (and GET .../candidates) drain the collection's built-in
// "default" consumer group; further named groups — each a durable cursor
// into the same pair sequence — are served by DrainConsumer, SSE streams
// and webhooks.
//
// The exported identifiers are aliases of the implementation packages
// under internal/, so the full documented API of those packages is
// available through this single import.
package semblock

import (
	"semblock/internal/baselines"
	"semblock/internal/blocking"
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
	"semblock/internal/tuning"
)

// Record model.
type (
	// Dataset is an ordered collection of records with optional ground
	// truth labels.
	Dataset = record.Dataset
	// Record is one row: named string attributes plus IDs.
	Record = record.Record
	// EntityID labels ground-truth entities.
	EntityID = record.EntityID
	// Pair is a canonical unordered record-ID pair.
	Pair = record.Pair
	// PairSet is a set of distinct pairs.
	PairSet = record.PairSet
)

// UnknownEntity marks records without ground truth.
const UnknownEntity = record.UnknownEntity

// NewDataset returns an empty dataset.
func NewDataset(name string) *Dataset { return record.NewDataset(name) }

// ReadCSV/WriteCSV and ReadJSONL/WriteJSONL (de)serialise datasets; the
// JSONL form ({"entity":ID,"attrs":{...}} per line) is also the wire format
// of the serving layer's bulk-ingest endpoint and snapshot segment files.
var (
	ReadCSV    = record.ReadCSV
	WriteCSV   = record.WriteCSV
	ReadJSONL  = record.ReadJSONL
	WriteJSONL = record.WriteJSONL
)

// Taxonomies and semantic similarity (§4 of the paper).
type (
	// Taxonomy is an immutable forest of concept trees.
	Taxonomy = taxonomy.Taxonomy
	// Concept is a node of a taxonomy tree.
	Concept = taxonomy.Concept
	// Interpretation is a record's set of concepts ζ(r).
	Interpretation = taxonomy.Interpretation
	// TaxonomyBuilder assembles taxonomies declaratively.
	TaxonomyBuilder = taxonomy.Builder
)

// NewTaxonomy starts a taxonomy definition.
func NewTaxonomy(name string) *TaxonomyBuilder { return taxonomy.NewBuilder(name) }

// BibliographicTaxonomy returns the paper's Fig. 3 tree t_bib.
func BibliographicTaxonomy() *Taxonomy { return taxonomy.Bibliographic() }

// VoterTaxonomy returns the 12-leaf person taxonomy used for NC Voter.
func VoterTaxonomy() *Taxonomy { return taxonomy.Voter() }

// Semantic functions and semhash signatures (§4.2, §4.4).
type (
	// SemanticFunction maps records to taxonomy concepts.
	SemanticFunction = semantic.Function
	// Pattern is a missing-value pattern row (Table 1).
	Pattern = semantic.Pattern
	// PatternFunction interprets records by missing-value patterns.
	PatternFunction = semantic.PatternFunction
	// ValueFunction interprets records by value lookup tables.
	ValueFunction = semantic.ValueFunction
	// ValueAttr configures one attribute of a ValueFunction.
	ValueAttr = semantic.ValueAttr
	// Schema is a semhash function family (Algorithm 1).
	Schema = semantic.Schema
	// BitVec is a semhash signature.
	BitVec = semantic.BitVec
)

// KeywordRule and Ensemble extend the semantic-function toolbox (§4.2's
// "using meta-data" and §7's feature-discovery direction).
type (
	// KeywordRule maps keyword occurrences to a concept.
	KeywordRule = semantic.KeywordRule
	// KeywordFunction interprets records by keyword rules.
	KeywordFunction = semantic.KeywordFunction
	// Ensemble combines two semantic functions.
	Ensemble = semantic.Ensemble
)

// Semantic-function constructors; see internal/semantic.
var (
	NewPatternSemantics = semantic.NewPatternFunction
	NewValueSemantics   = semantic.NewValueFunction
	NewKeywordSemantics = semantic.NewKeywordFunction
	NewEnsemble         = semantic.NewEnsemble
	NewCoraSemantics    = semantic.NewCoraFunction
	NewCoraKeywords     = semantic.NewCoraKeywordFunction
	NewVoterSemantics   = semantic.NewVoterFunction
	BuildSchema         = semantic.BuildSchema
	CoraPatterns        = semantic.CoraPatterns
)

// Core blocking (§5).
type (
	// Config configures an LSH or SA-LSH blocker.
	Config = lsh.Config
	// SemanticOption upgrades LSH to SA-LSH.
	SemanticOption = lsh.SemanticOption
	// Blocker is a configured (SA-)LSH instance.
	Blocker = lsh.Blocker
	// Mode selects the w-way composition (∧ or ∨).
	Mode = lsh.Mode
	// BlockResult is a set of blocks with derived statistics.
	BlockResult = blocking.Result
	// GenericBlocker is the interface every technique implements.
	GenericBlocker = blocking.Blocker
)

// w-way semantic hash composition modes.
const (
	ModeAND = lsh.ModeAND
	ModeOR  = lsh.ModeOR
)

// New builds an LSH (Semantic == nil) or SA-LSH blocker.
func New(cfg Config) (*Blocker, error) { return lsh.New(cfg) }

// Streaming/incremental blocking: an online (SA-)LSH index that ingests
// records one at a time or in mini-batches and emits candidate pairs as
// collisions occur. A Snapshot over streamed records equals the batch
// Block output on the same dataset.
type (
	// Indexer is the online blocking index; see internal/stream.
	Indexer = stream.Indexer
	// Row is one record to insert into an Indexer.
	Row = stream.Row
	// IndexerOption customises an Indexer (workers).
	IndexerOption = stream.Option
)

// NewIndexer builds an empty streaming index for an (SA-)LSH configuration.
func NewIndexer(cfg Config, opts ...IndexerOption) (*Indexer, error) {
	return stream.NewIndexer(cfg, opts...)
}

// WithWorkers sets an Indexer's signature workers / bucket shards.
var WithWorkers = stream.WithWorkers

// Collision-probability model of §5.1–§5.2.
var (
	CollisionProbability   = lsh.CollisionProbability
	SemanticFactor         = lsh.SemanticFactor
	SACollisionProbability = lsh.SACollisionProbability
)

// Evaluation measures (§6).
type (
	// Metrics holds PC, PQ, RR, FM and the meta-blocking variants.
	Metrics = eval.Metrics
)

// Evaluate scores a blocking result against ground truth.
var Evaluate = eval.Evaluate

// Parameter tuning (§5.3).
type (
	// TuningParams is a solved (k,l) configuration.
	TuningParams = tuning.Params
)

// Tuning helpers; see internal/tuning.
var (
	ChooseKL              = tuning.ChooseKL
	MinTablesFor          = tuning.MinTablesFor
	ThresholdForError     = tuning.ThresholdForError
	TrueMatchSimilarities = tuning.TrueMatchSimilarities
	SelectQ               = tuning.SelectQ
)

// Baseline techniques (Table 3) and meta-blocking (Fig. 12).
type (
	// KeySpec defines a blocking key for the baseline techniques.
	KeySpec = baselines.KeySpec
	// BaselineSetting couples a configured baseline with its parameters.
	BaselineSetting = baselines.Setting
	// MetaGraph is the meta-blocking weighted blocking graph.
	MetaGraph = metablocking.Graph
	// WeightScheme is a meta-blocking edge-weighting scheme.
	WeightScheme = metablocking.WeightScheme
	// PruneAlgo is a meta-blocking pruning algorithm.
	PruneAlgo = metablocking.PruneAlgo
)

// Baseline and meta-blocking entry points.
var (
	BaselineGrid   = baselines.ParameterGrid
	TechniqueOrder = baselines.TechniqueOrder
	BuildMetaGraph = metablocking.BuildGraph
	TokenBlocking  = metablocking.TokenBlocking
)

// Meta-blocking edge-weighting schemes (for WithPruning and BuildMetaGraph).
const (
	WeightSchemeARCS = metablocking.ARCS
	WeightSchemeCBS  = metablocking.CBS
	WeightSchemeECBS = metablocking.ECBS
	WeightSchemeJS   = metablocking.JS
	WeightSchemeEJS  = metablocking.EJS
)

// Meta-blocking pruning algorithms (for WithPruning and Graph.Prune).
const (
	PruneWEP = metablocking.WEP
	PruneCEP = metablocking.CEP
	PruneWNP = metablocking.WNP
	PruneCNP = metablocking.CNP
)

// LSH variants the paper cites as related techniques: LSH Forest (ref [5])
// and multi-probe LSH (ref [29]).
type (
	// ForestConfig configures LSH-Forest-style blocking with adaptive
	// prefix depth.
	ForestConfig = lsh.ForestConfig
	// Forest is the LSH-Forest blocker.
	Forest = lsh.Forest
	// MultiProbeConfig configures multi-probe minhash banding.
	MultiProbeConfig = lsh.MultiProbeConfig
	// MultiProbe is the multi-probe blocker.
	MultiProbe = lsh.MultiProbe
)

// Variant constructors.
var (
	NewForest     = lsh.NewForest
	NewMultiProbe = lsh.NewMultiProbe
)

// Downstream entity resolution over blocking output (§1: "our blocking
// results can be used as input to any ER algorithms").
type (
	// Matcher scores and classifies candidate pairs.
	Matcher = er.Matcher
	// AttrWeight weights one attribute in the match score.
	AttrWeight = er.AttrWeight
	// Resolution is the clustering outcome of resolving a dataset.
	Resolution = er.Resolution
	// ResolutionQuality holds pairwise precision/recall/F1.
	ResolutionQuality = er.Quality
)

// Resolution entry points.
var (
	NewMatcher = er.NewMatcher
	Resolve    = er.Resolve
)

// SparseIDError is the typed error the blocking paths return for datasets
// whose record IDs are not dense 0..n-1 (see lsh.ValidateDenseIDs).
type SparseIDError = lsh.SparseIDError

// ValidateDenseIDs checks a dataset satisfies the dense-ID invariant.
var ValidateDenseIDs = lsh.ValidateDenseIDs

// Composable blocking→pruning→matching pipeline over the parallel engine:
// chain any GenericBlocker with an optional meta-blocking pruning stage and
// an optional concurrent matching stage, in batch (Run) or streaming
// (RunStream, fed from an Indexer) mode.
type (
	// Pipeline is a configured multi-stage candidate-generation dataflow.
	Pipeline = pipeline.Pipeline
	// PipelineOption customises a Pipeline.
	PipelineOption = pipeline.Option
	// PipelineResult is the output of one pipeline run.
	PipelineResult = pipeline.Result
	// PipelineStats holds per-stage counters and timings.
	PipelineStats = pipeline.Stats
	// Match is one scored candidate pair above the matcher threshold.
	Match = pipeline.Match
)

// NewPipeline builds a pipeline over any blocker; see internal/pipeline.
func NewPipeline(b GenericBlocker, opts ...PipelineOption) (*Pipeline, error) {
	return pipeline.New(b, opts...)
}

// Pipeline options.
var (
	WithPruning         = pipeline.WithPruning
	WithMatcher         = pipeline.WithMatcher
	WithPipelineWorkers = pipeline.WithWorkers
	WithBatchSize       = pipeline.WithBatchSize
	WithMatchSink       = pipeline.WithMatchSink
	WithBudget          = pipeline.WithBudget
)

// Multi-tenant serving layer (internal/server): a Server owns named
// Collections — each backed by N table-sharded streaming indexers whose
// merged candidate set equals the batch Block set on the same records —
// exposed over an HTTP JSON API (Server.Handler) with snapshot persistence
// (Save/Load JSONL segments, checkpointing, restore-on-boot). The CLI
// front-end is "semblock serve".
type (
	// Server is the multi-tenant blocking service.
	Server = server.Server
	// ServerOption customises a Server (data dir, default shards).
	ServerOption = server.Option
	// Collection is one tenant's sharded, persistent blocking index.
	Collection = server.Collection
	// CollectionSpec is a collection's JSON-serialisable configuration.
	CollectionSpec = server.CollectionSpec
	// CollectionSemantic selects a built-in SA-LSH domain for a collection.
	CollectionSemantic = server.SemanticSpec
	// CollectionStats summarises a collection.
	CollectionStats = server.Stats
	// ResolveRequest configures a Collection.Resolve pipeline run.
	ResolveRequest = server.ResolveRequest
	// MatchAttr weights one attribute in a ResolveRequest.
	MatchAttr = server.MatchAttr
	// PruneSpec selects a meta-blocking stage in a ResolveRequest.
	PruneSpec = server.PruneSpec
	// CompactionPolicy configures automatic segment compaction thresholds.
	CompactionPolicy = server.CompactionPolicy
	// CompactionResult summarises one Collection.Compact run.
	CompactionResult = server.CompactionResult
	// ConsumerStats summarises one named consumer group: its durable
	// cursor, pending window, and optional webhook sink.
	ConsumerStats = server.ConsumerStats
	// ConsumerBatch is one acknowledged delivery window of a consumer group.
	ConsumerBatch = server.ConsumerBatch
	// WebhookSpec registers a push-delivery sink on a consumer group.
	WebhookSpec = server.WebhookSpec
	// WebhookDefaults are the server-wide webhook delivery knobs (timeout,
	// bounded retries, exponential backoff) a spec's zero fields inherit.
	WebhookDefaults = server.WebhookDefaults
	// StreamHandlers are the callbacks Collection.StreamConsumer drives.
	StreamHandlers = server.StreamHandlers
)

// DefaultConsumer is the consumer group behind the legacy GET /candidates
// drain; it always exists and cannot be deleted.
const DefaultConsumer = server.DefaultConsumer

// NewServer builds a multi-tenant blocking service; see internal/server.
func NewServer(opts ...ServerOption) (*Server, error) { return server.New(opts...) }

// Server options.
var (
	WithDataDir       = server.WithDataDir
	WithDefaultShards = server.WithDefaultShards
	WithCompaction    = server.WithCompaction
	// WithServerLogger installs a structured (log/slog) request logger.
	WithServerLogger = server.WithLogger
	// WithSlowRequestThreshold promotes requests slower than the threshold
	// to WARN log lines with a per-stage span breakdown.
	WithSlowRequestThreshold = server.WithSlowRequestThreshold
	// WithTraceBuffer sets how many completed request traces GET
	// /debug/traces retains.
	WithTraceBuffer = server.WithTraceBuffer
	// WithWebhookDefaults sets the server-wide webhook delivery policy.
	WithWebhookDefaults = server.WithWebhookDefaults
)

// Serving-layer sentinel errors (match with errors.Is).
var (
	ErrCollectionExists   = server.ErrExists
	ErrCollectionNotFound = server.ErrNotFound
	ErrCollectionPersist  = server.ErrPersist
	// ErrCollectionOrphanFile marks unreferenced files in a collection
	// directory (debris of an interrupted compaction), logged and skipped
	// during restore.
	ErrCollectionOrphanFile = server.ErrOrphanFile
	// ErrConsumerNotFound marks operations on an unknown consumer group.
	ErrConsumerNotFound = server.ErrUnknownConsumer
	// ErrConsumerExists marks creation of a group that already exists.
	ErrConsumerExists = server.ErrConsumerExists
	// ErrConsumerProtected marks deletion of the default group.
	ErrConsumerProtected = server.ErrConsumerProtected
	// ErrConsumerCursor marks an acknowledgment beyond the emitted sequence.
	ErrConsumerCursor = server.ErrCursorOutOfRange
	// ErrDrainBusy marks a drain of a group whose delivery slot is held.
	ErrDrainBusy = server.ErrDrainBusy
)

// LoadCollection restores one collection from its persistence directory.
var LoadCollection = server.LoadCollection
