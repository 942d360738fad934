// Package bismarck is a Go reproduction of "Towards a Unified Architecture
// for in-RDBMS Analytics" (Feng, Kumar, Recht, Ré — SIGMOD 2012): one
// architecture that runs many analytics tasks as incremental gradient
// descent (IGD) inside a database engine's user-defined-aggregate (UDA)
// machinery.
//
// This root package is the public facade over the implementation packages:
//
//   - storage engine: heap files, catalog, scans, UDA executors
//   - the IGD aggregate and its one epoch loop, step rules, proximal operators
//   - tasks: LR, SVM, least squares, LMF, CRF, Kalman, portfolio
//   - ordering strategies (shuffle-once / shuffle-always / clustered)
//   - parallel schemes (pure-UDA averaging, Lock, AIG, NoLock/Hogwild)
//   - reservoir subsampling and multiplexed reservoir sampling (MRS)
//   - baselines (IRLS, batch GD, ALS) and synthetic dataset generators
//
// Quick start:
//
//	tbl := bismarck.NewMemTable("train", bismarck.DenseExampleSchema)
//	// ... insert (id, vec, label) tuples ...
//	task := bismarck.NewLR(dim)
//	res, err := (&bismarck.Trainer{
//	    Task: task, Step: bismarck.DefaultStep(0.1),
//	    MaxEpochs: 20, Order: bismarck.ShuffleOnce{},
//	}).Run(tbl)
//
// Every execution plan — sequential, parallel, sharded, sampled, and the
// baseline solvers — is an EpochRunner handed to the one epoch loop, Drive;
// Trainer and ParallelTrainer are struct-literal front doors onto it.
//
// The declarative statements run through the same front end the bismarck
// REPL and the bismarckd daemon use:
//
//	sess := bismarck.NewServerManager(cat, bismarck.ServerOptions{}).NewSession(os.Stdout)
//	err := sess.Exec(`SELECT vec, label FROM train TO TRAIN lr INTO m;`)
//
// See examples/ for complete programs, cmd/bench for the paper's tables
// and figures, and benchmark/ for the performance harness.
package bismarck

import (
	"bismarck/internal/baselines"
	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/ordering"
	"bismarck/internal/parallel"
	"bismarck/internal/sampling"
	"bismarck/internal/server"
	"bismarck/internal/spec"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"

	// Side effect: the built-in tasks self-register with the statement
	// layer's registry.
	_ "bismarck/internal/tasks/register"
)

// --- vectors ---

type (
	// Dense is a dense float64 feature/model vector.
	Dense = vector.Dense
	// Sparse is a sparse vector in sorted coordinate form.
	Sparse = vector.Sparse
)

// NewSparse builds a sparse vector from index/value pairs.
func NewSparse(idx []int32, val []float64) Sparse { return vector.NewSparse(idx, val) }

// --- storage engine ---

type (
	// Catalog is a registry of tables, in-memory or file-backed.
	Catalog = engine.Catalog
	// Table is a heap of typed tuples with scan, shuffle, and cluster ops.
	Table = engine.Table
	// Schema describes a table's columns.
	Schema = engine.Schema
	// Column is one column of a schema.
	Column = engine.Column
	// Tuple is one typed row.
	Tuple = engine.Tuple
	// Value is one typed cell.
	Value = engine.Value
	// UDA is the initialize/transition/terminate aggregate contract.
	UDA = engine.UDA
	// Profile emulates a hosting engine's execution characteristics.
	Profile = engine.Profile
)

// Column type tags.
const (
	TInt64     = engine.TInt64
	TFloat64   = engine.TFloat64
	TString    = engine.TString
	TDenseVec  = engine.TDenseVec
	TSparseVec = engine.TSparseVec
	TInt32Vec  = engine.TInt32Vec
)

// Value constructors.
var (
	I64     = engine.I64
	F64     = engine.F64
	Str     = engine.Str
	DenseV  = engine.DenseV
	SparseV = engine.SparseV
	IntsV   = engine.IntsV
)

// NewMemTable creates an in-memory table.
func NewMemTable(name string, schema Schema) *Table { return engine.NewMemTable(name, schema) }

// NewCatalog creates an in-memory catalog.
func NewCatalog() *Catalog { return engine.NewCatalog() }

// OpenFileCatalog opens (or initializes) a file-backed catalog directory.
func OpenFileCatalog(dir string, poolPages int) (*Catalog, error) {
	return engine.OpenFileCatalog(dir, poolPages)
}

// Engine profiles from the paper's evaluation.
var (
	ProfilePostgres = engine.ProfilePostgres
	ProfileDBMSA    = engine.ProfileDBMSA
	ProfileDBMSB    = engine.ProfileDBMSB
)

// --- the Bismarck core ---

type (
	// Task is one analytics technique: a per-tuple gradient step + loss.
	Task = core.Task
	// Model is the mutable aggregation state a Step updates.
	Model = core.Model
	// Trainer is the sequential plan's front door onto Drive.
	Trainer = core.Trainer
	// EpochRunner is one execution plan's epoch + loss pass.
	EpochRunner = core.EpochRunner
	// LoopConfig is the loop control every plan shares.
	LoopConfig = core.LoopConfig
	// Result reports a finished training run.
	Result = core.Result
	// StepRule produces per-epoch step sizes.
	StepRule = core.StepRule
	// ConstantStep is a fixed step size.
	ConstantStep = core.ConstantStep
	// DiminishingStep is the divergent-series rule A0/(1+e)^p.
	DiminishingStep = core.DiminishingStep
	// GeometricStep is A0·ρ^e.
	GeometricStep = core.GeometricStep
	// OrderStrategy prepares the table order before each epoch.
	OrderStrategy = core.OrderStrategy
	// IGDAggregate is IGD expressed as a standard UDA.
	IGDAggregate = core.IGDAggregate
)

// Drive is the one Bismarck epoch loop (Figure 2) over any plan's runner.
func Drive(r EpochRunner, cfg LoopConfig) (*Result, error) { return core.Drive(r, cfg) }

// DefaultStep is a mildly decaying geometric rule.
func DefaultStep(a0 float64) StepRule { return core.DefaultStep(a0) }

// TotalLoss evaluates a task's objective over a table.
func TotalLoss(t Task, w Dense, tbl *Table) (float64, error) { return core.TotalLoss(t, w, tbl) }

// TuneStep grid-searches initial step sizes (best first).
var TuneStep = core.TuneStep

// DefaultStepGrid is a decade-spanning step-size candidate grid.
var DefaultStepGrid = core.DefaultStepGrid

// Proximal operators (Appendix A).
var (
	ProxL1         = core.ProxL1
	ProxL2         = core.ProxL2
	ProjectSimplex = core.ProjectSimplex
	ProjectBall2   = core.ProjectBall2
)

// --- tasks ---

// Standard schemas for the built-in tasks.
var (
	DenseExampleSchema  = tasks.DenseExampleSchema
	SparseExampleSchema = tasks.SparseExampleSchema
	RatingSchema        = tasks.RatingSchema
	SeqSchema           = tasks.SeqSchema
	SeriesSchema        = tasks.SeriesSchema
	ReturnSchema        = tasks.ReturnSchema
)

type (
	// LR is logistic regression.
	LR = tasks.LR
	// SVM is a linear support vector machine.
	SVM = tasks.SVM
	// LeastSquares is plain least squares (the CA-TX model).
	LeastSquares = tasks.LeastSquares
	// LMF is low-rank matrix factorization.
	LMF = tasks.LMF
	// CRF is a linear-chain conditional random field.
	CRF = tasks.CRF
	// Kalman fits noisy time series.
	Kalman = tasks.Kalman
	// Portfolio optimizes a simplex-constrained portfolio.
	Portfolio = tasks.Portfolio
	// Lasso is L1-regularized least squares.
	Lasso = tasks.Lasso
	// Softmax is multiclass logistic regression.
	Softmax = tasks.Softmax
	// MaxCut is the low-rank relaxation of MAX-CUT (the §5 extension).
	MaxCut = tasks.MaxCut
	// BinaryMetrics summarizes binary classification quality.
	BinaryMetrics = tasks.BinaryMetrics
)

// Task constructors.
var (
	NewLR           = tasks.NewLR
	NewSVM          = tasks.NewSVM
	NewLeastSquares = tasks.NewLeastSquares
	NewLMF          = tasks.NewLMF
	NewCRF          = tasks.NewCRF
	NewKalman       = tasks.NewKalman
	NewPortfolio    = tasks.NewPortfolio
	NewLasso        = tasks.NewLasso
	NewSoftmax      = tasks.NewSoftmax
	NewMaxCut       = tasks.NewMaxCut
	// EvaluateBinary scores a binary classifier over a labeled table.
	EvaluateBinary = tasks.EvaluateBinary
)

// --- ordering strategies (§3.2) ---

type (
	// ShuffleOnce shuffles before the first epoch only (Bismarck default).
	ShuffleOnce = ordering.ShuffleOnce
	// ShuffleAlways reshuffles before every epoch.
	ShuffleAlways = ordering.ShuffleAlways
	// Clustered trains on the stored order.
	Clustered = ordering.Clustered
)

// --- parallelism (§3.3) ---

type (
	// ParallelTrainer is the §3.3 schemes' front door onto Drive.
	ParallelTrainer = parallel.Trainer
	// ParallelMode selects PureUDA / Lock / AIG / NoLock.
	ParallelMode = parallel.Mode
	// AtomicModel is the CAS/racy shared model for AIG and NoLock.
	AtomicModel = parallel.AtomicModel
)

// Parallelization schemes.
const (
	PureUDA = parallel.PureUDA
	Lock    = parallel.Lock
	AIG     = parallel.AIG
	NoLock  = parallel.NoLock
)

// --- sampling (§3.4) ---

type (
	// Reservoir is a uniform without-replacement sampler.
	Reservoir = sampling.Reservoir
)

var (
	// NewReservoir returns a reservoir of the given capacity.
	NewReservoir = sampling.NewReservoir
	// NewReservoirRunner is the plan that trains on one reservoir sample.
	NewReservoirRunner = sampling.NewReservoirRunner
	// NewMRSRunner is multiplexed reservoir sampling: the reservoir's
	// buffer and the tuples it drops, interleaved on the caller's goroutine.
	NewMRSRunner = sampling.NewMRSRunner
)

// --- the declarative statement layer (§2.1) ---

type (
	// Statement is the parsed AST of one declarative statement
	// (SELECT ... TO TRAIN/PREDICT/EVALUATE, or a legacy SELECT Func(...)).
	Statement = spec.Statement
	// TaskSpec is one task's registration with the statement layer:
	// constructor, canonical data layout, and tunable WITH-parameters.
	TaskSpec = spec.TaskSpec
	// ParamSpec declares one tunable WITH parameter of a task.
	ParamSpec = spec.ParamSpec
	// Params holds bound, type-checked WITH parameters.
	Params = spec.Params
	// Session runs declarative statements, ASYNC TRAIN and the job
	// statements included, through the one statement front end.
	Session = server.Session
)

// ParseStatement parses one statement of the declarative grammar.
func ParseStatement(src string) (*Statement, error) { return spec.Parse(src) }

// RegisterTask adds a task to the statement layer's registry, making it
// reachable as TO TRAIN <name>; the 10 built-in tasks self-register.
func RegisterTask(ts TaskSpec) { spec.Register(ts) }

// LookupTask resolves a registered task name or alias.
func LookupTask(name string) (*TaskSpec, error) { return spec.Lookup(name) }

// RegisteredTasks lists all registered task specs sorted by name.
func RegisteredTasks() []*TaskSpec { return spec.Tasks() }

// --- the multi-session server layer ---

type (
	// ServerManager shares one catalog across concurrent client sessions
	// behind per-model RW locks, and runs every TRAIN, PREDICT and
	// EVALUATE, sync or ASYNC, as an admitted, cancellable job.
	ServerManager = server.Manager
	// ServerOptions tunes a ServerManager (job slots, session defaults).
	ServerOptions = server.Options
	// TCPServer serves a ServerManager over the bismarckd wire protocol.
	TCPServer = server.TCPServer
	// ServerClient is a wire-protocol client for a running bismarckd.
	ServerClient = server.Client
)

// NewServerManager wraps a catalog for multi-session use.
func NewServerManager(cat *Catalog, opts ServerOptions) *ServerManager {
	return server.NewManager(cat, opts)
}

// NewTCPServer wraps a manager for serving connections.
func NewTCPServer(m *ServerManager) *TCPServer { return server.NewTCPServer(m) }

// DialServer connects to a bismarckd address.
func DialServer(addr string) (*ServerClient, error) { return server.Dial(addr) }

// --- baselines ---

// The baseline solvers are plans like any other: hand the runner to Drive,
// and one epoch is one iteration or sweep.
var (
	// NewIRLSRunner is Newton-method logistic regression (MADlib-style).
	NewIRLSRunner = baselines.NewIRLSRunner
	// NewBatchRunner is full-gradient descent over any task.
	NewBatchRunner = baselines.NewBatchRunner
	// NewALSRunner is alternating least squares matrix factorization.
	NewALSRunner = baselines.NewALSRunner
)
