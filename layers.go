package repro

import (
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/table"
)

// Relational ingestion layer (internal/table): CSV base tables → typed
// columns → key resolution → one-hot encoding → normalized matrix.

// Table is a typed columnar base table.
type Table = table.Table

// Column is one typed column of a Table.
type Column = table.Column

// ColumnKind classifies a column (Numeric, Categorical, Key).
type ColumnKind = table.ColumnKind

// Column kinds.
const (
	Numeric     = table.Numeric
	Categorical = table.Categorical
	Key         = table.Key
)

// JoinSpec declares a star-schema dataset over base tables.
type JoinSpec = table.JoinSpec

// AttributeRef wires one attribute table into a JoinSpec.
type AttributeRef = table.AttributeRef

// Table-layer entry points.
var (
	ReadCSVTable      = table.ReadCSV
	BuildJoin         = table.Build
	BuildKeyIndex     = table.BuildKeyIndex
	ResolveForeignKey = table.ResolveForeignKey
)

// LA script layer (internal/expr): lazy expression DAG with the
// script-level rewrites of §6 (transpose elimination, crossprod
// recognition, matrix-chain ordering).

// Expr is a lazy LA expression node.
type Expr = expr.Expr

// Script-layer constructors and the optimizer.
var (
	Leaf         = expr.NewLeaf
	TransposeOf  = expr.Transpose
	ScaleOf      = expr.Scale
	ApplyOf      = expr.Apply
	MulOf        = expr.Mul
	CrossProdOf  = expr.CrossProd
	RowSumsOf    = expr.RowSums
	ColSumsOf    = expr.ColSums
	OptimizeExpr = expr.Optimize
)

// Out-of-core layer (internal/chunk + the streamed operators in
// internal/core): a directory-backed chunk store, dense and CSR chunked
// matrices behind one operator interface, star-schema normalized tables,
// and the streamed GLM / k-means drivers.

// ChunkStore manages refcounted chunk files across one or more shard
// backends (local directories, remote chunk servers, or a mix).
type ChunkStore = chunk.Store

// ChunkBackend stores one shard's chunk blobs (local directory or remote
// chunk server); implement it to put spill chunks anywhere else.
type ChunkBackend = chunk.Backend

// ChunkServer serves one shard directory over HTTP (the morpheus-chunkd
// handler).
type ChunkServer = chunk.ChunkServer

// RemoteChunkBackend is the client side of the morpheus-chunkd protocol.
type RemoteChunkBackend = chunk.RemoteBackend

// ChunkPlacement selects how a sharded store spreads chunk files across
// its directories.
type ChunkPlacement = chunk.Placement

// Shard placement policies.
const (
	ChunkRoundRobin = chunk.RoundRobin
	ChunkLeastBytes = chunk.LeastBytes
)

// ChunkShardStat is one shard directory's accounted footprint.
type ChunkShardStat = chunk.ShardStat

// ChunkExec configures a streaming pass (workers + prefetch depth +
// pushdown).
type ChunkExec = chunk.Exec

// ChunkOp names a registered per-chunk map whose partials reduce on the
// driver; with pushdown it runs on the shard holding each chunk.
type ChunkOp = chunk.Op

// ChunkExecBackend is the worker capability a pushdown pass probes shard
// backends for (implemented by RemoteChunkBackend against morpheus-chunkd).
type ChunkExecBackend = chunk.ExecBackend

// ChunkMatrix is a matrix in fixed-height on-disk row chunks, stored dense
// or CSR.
type ChunkMatrix = chunk.Matrix

// ChunkIntVector is an on-disk chunked key column (foreign keys, row
// selectors).
type ChunkIntVector = chunk.IntVector

// ChunkAttrTable is one arm of an out-of-core star schema.
type ChunkAttrTable = chunk.AttrTable

// ChunkNormalizedTable is the out-of-core star-schema normalized matrix.
type ChunkNormalizedTable = chunk.NormalizedTable

// ChunkKMeansResult holds streamed k-means centroids, the chunked
// assignment column, and I/O counters.
type ChunkKMeansResult = chunk.KMeansResult

// ChunkGNMFResult holds the streamed GNMF factors: chunked W, in-memory H.
type ChunkGNMFResult = chunk.GNMFResult

// ChunkCodec frames chunk blobs for compressed storage and transport;
// NewCompressingChunkBackend applies one behind the backend seam.
type ChunkCodec = chunk.Codec

// ChunkZoneMap is the per-chunk metadata (min/max/nnz/all-zero/column
// blocks) the zone-map wrapper records at spill time so streaming
// reductions can skip proven non-contributing chunks.
type ChunkZoneMap = chunk.ZoneMap

// ChunkIOStats aggregates a store's read/skip/wire accounting.
type ChunkIOStats = chunk.IOStats

// ChunkCodecShuffleFlate is the built-in chunk codec: byte-shuffled
// DEFLATE with a stored fallback for incompressible blobs.
const ChunkCodecShuffleFlate = chunk.CodecShuffleFlate

// Out-of-core entry points.
var (
	NewChunkStore                = chunk.NewStore
	NewShardedChunkStore         = chunk.NewShardedStore
	NewShardedChunkStoreBackends = chunk.NewShardedStoreBackends
	NewChunkDirBackend           = chunk.NewDirBackend
	NewRemoteChunkBackend        = chunk.NewRemoteBackend
	NewChunkServer               = chunk.NewChunkServer
	NewCompressingChunkBackend   = chunk.NewCompressingBackend
	NewZoneMapChunkBackend       = chunk.NewZoneMapBackend
	ChunkCodecByName             = chunk.CodecByName
	ChunkCodecs                  = chunk.Codecs
	ChunkBuild                   = chunk.Build
	ChunkFromDense               = chunk.FromDense
	ChunkFromCSR                 = chunk.FromCSR
	BuildChunkIntVector          = chunk.BuildIntVector
	NewChunkStarTable            = chunk.NewStarTable
	AutoChunkRows                = chunk.AutoRows
	AutoChunkRowsChecked         = chunk.AutoRowsChecked
	ChunkSerial                  = chunk.Serial
	ChunkParallel                = chunk.Parallel
	ChunkOpCrossProd             = chunk.OpCrossProd
	ChunkOpColSums               = chunk.OpColSums
	ChunkOpSum                   = chunk.OpSum
	ChunkOpKMeansAssign          = chunk.OpKMeansAssign
	ChunkedLogRegExec            = chunk.LogRegMaterializedExec
	ChunkedLogRegFactorizedExec  = chunk.LogRegFactorizedExec
	ChunkedLogRegMNExec          = chunk.LogRegFactorizedMNExec
	ChunkedKMeansExec            = chunk.KMeansExec
	ChunkedGNMFExec              = chunk.GNMFExec
	StreamedCrossProd            = core.StreamedCrossProd
	StreamedMul                  = core.StreamedMul
	StreamedTMul                 = core.StreamedTMul
)

// Planning layer (internal/plan): the statistics-free Plan(op, operands,
// env) seam every driver runs through — factorized vs materialized,
// in-memory vs chunked, serial vs parallel, pushdown, read interleave —
// from structural facts alone, with explainable Decisions.

// PlanOp names a planned operation (PlanOpGLM, PlanOpKMeans, ...).
type PlanOp = plan.Op

// Planned operations.
const (
	PlanOpGLM       = plan.OpGLM
	PlanOpKMeans    = plan.OpKMeans
	PlanOpGNMF      = plan.OpGNMF
	PlanOpCrossProd = plan.OpCrossProd
	PlanOpColSums   = plan.OpColSums
	PlanOpSum       = plan.OpSum
)

// PlanOperands is the planner's structural view of the data.
type PlanOperands = plan.Operands

// PlanEnv is the planner's view of the machine and chunk store.
type PlanEnv = plan.Env

// PlanStrategy is one chosen value per execution axis.
type PlanStrategy = plan.Strategy

// PlanDecision is an explainable plan: strategy + facts + fired rules.
type PlanDecision = plan.Decision

// Planning-layer entry points: the planner itself, fact gatherers, and
// the planner-driven training drivers (the explicit ChunkedExec forms
// above remain as overrides).
var (
	PlanFor              = plan.Plan
	PlanEnvFor           = plan.EnvFor
	PlanChoose           = plan.Choose
	MaterializedOperands = plan.MaterializedOperands
	StarOperands         = plan.StarOperands
	MNOperands           = plan.MNOperands
	InMemoryOperands     = plan.InMemoryOperands
	PlannedLogReg        = plan.LogReg
	PlannedLogRegMN      = plan.LogRegMN
	PlannedKMeans        = plan.KMeans
	PlannedGNMF          = plan.GNMF
)

// Serving layer (internal/serve): a three-layer scoring fleet over a
// normalized feature store with cached attribute-table partial products
// (T·w = S·wS + Σ K_i·(R_i·w_{R_i}), precomputed per model): Scorers
// gather cached partials, the Router places batches across a fleet of
// them (hash-sharded or replicated) under a fleet-wide weight barrier,
// and the Batcher coalesces callers behind a bounded admission queue
// that fails fast with ErrOverloaded instead of queueing without bound.

// Scorer answers single-row and batch prediction requests from cached
// partials; weights swap atomically via UpdateWeights. One type covers
// every fleet member: it owns all rows or one hash slice (Shard, Of),
// over an immutable store or subscribed to an EpochStore.
type Scorer = serve.Scorer

// ShardedScorer is an alias of Scorer: the name NewShardedScorer's
// result (one hash slice of a fleet, rows id ≡ shard mod of) goes by.
type ShardedScorer = serve.ShardedScorer

// ScoreReplica is one fleet member behind the Router: the batch scoring
// surface plus fleet-wide weight management. Routers nest — a Router is
// itself a ScoreReplica.
type ScoreReplica = serve.Replica

// ScoreRouter fans scoring batches across a replica fleet and merges
// results in request order, with UpdateWeights applied fleet-wide.
type ScoreRouter = serve.Router

// ScoreRouterStats counts a router's batches, sub-batches, rows, and
// weight barriers.
type ScoreRouterStats = serve.RouterStats

// FleetPlacement selects how a fleet spreads the partial-product cache.
type FleetPlacement = serve.Placement

// Fleet cache placements.
const (
	ReplicatedFleet  = serve.Replicated
	HashShardedFleet = serve.HashSharded
)

// Batcher coalesces concurrent single-row scoring calls into shared batch
// gather passes on a bounded worker pool behind a bounded admission queue.
type Batcher = serve.Batcher

// BatchOptions tunes the Batcher's micro-batching dispatcher and
// admission queue.
type BatchOptions = serve.BatchOptions

// BatcherStats counts a Batcher's admissions, rejections, batches, and
// peak queue depth.
type BatcherStats = serve.BatcherStats

// BatchScorer is the backend contract a Batcher coalesces over: Rows plus
// allocation-free ScoreBatchInto.
type BatchScorer = serve.BatchScorer

// ScoreHead selects the scorer's link function.
type ScoreHead = serve.Head

// Scorer link functions.
const (
	LinearHead   = serve.Linear
	LogisticHead = serve.Logistic
)

// Serving-layer sentinel errors.
var (
	// ErrScoreOverloaded reports a request rejected by a full admission
	// queue.
	ErrScoreOverloaded = serve.ErrOverloaded
	// ErrScoreBatcherClosed reports a Score call after Close.
	ErrScoreBatcherClosed = serve.ErrBatcherClosed
)

// Serving-layer entry points.
var (
	NewScorer        = serve.NewScorer
	NewShardedScorer = serve.NewShardedScorer
	NewScoreRouter   = serve.NewRouter
	NewScorerFleet   = serve.NewScorerFleet
	NewEpochFleet    = serve.NewEpochFleet
	NewBatcher       = serve.NewBatcher
)

// Versioning layer (internal/epoch + the epoch-aware scorer in
// internal/serve): copy-on-write epochs over the base tables of a
// normalized feature store — staged row upserts published atomically by
// Commit, scoring served at a stable epoch with incrementally patched
// partial products, and training reading pinned consistent snapshots
// while writes continue.

// EpochStore is a versioned normalized feature store: frozen join
// structure, epoch-versioned table contents.
type EpochStore = epoch.Store

// EpochVersion numbers published epochs, starting at 1.
type EpochVersion = epoch.Version

// EpochCommit describes one published epoch's per-table row deltas.
type EpochCommit = epoch.Commit

// EpochTableDelta lists one table's changed rows with old and new values.
type EpochTableDelta = epoch.TableDelta

// EpochSnapshot is a pinned, immutable view of one epoch, streamable
// into chunked storage or assembled into a NormalizedMatrix.
type EpochSnapshot = epoch.Snapshot

// EpochScorer is an alias of Scorer: the name NewEpochScorer's result (a
// scorer subscribed to an EpochStore, patching its cached partial
// products incrementally per commit) goes by.
type EpochScorer = serve.EpochScorer

// EpochPatchStats counts an epoch-backed Scorer's incremental maintenance
// work.
type EpochPatchStats = serve.PatchStats

// ChunkRowSource is the row-streaming seam through which epoch snapshots
// (and any other lazily-patched view) spill into a chunk store.
type ChunkRowSource = chunk.RowSource

// Versioning-layer entry points.
var (
	NewEpochStore      = epoch.NewStore
	NewEpochScorer     = serve.NewEpochScorer
	ChunkFromRowSource = chunk.FromRowSource
	NewNormalized      = core.New
)
