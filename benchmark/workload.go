package main

import (
	"fmt"
	"math/rand"
	"strings"

	"bismarck/internal/engine"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

// workload is one set of inputs. Every workload runs the same program
// (e2e.go); what differs is the shape of the data and whether serving and
// training overlap, so the same layers are loaded differently. Why each
// exists is written in BENCHMARK.json, beside its name.
type workload struct {
	Name string
	// Task is the registry name trained; Sparse selects the generator and
	// Dim/NNZ its shape. Rows and Epochs size one TRAIN statement.
	Task   string
	Sparse bool
	Rows   int
	Dim    int
	NNZ    int
	Epochs int
	Alpha  float64
	// PredictRepeat is how many PREDICT INTO statements one end-to-end
	// sample holds (it is their mean), so that a sample lasts at least
	// half a second on the reference box: PR 11 timed 4-200 ms single shots.
	PredictRepeat int
	// Overlap runs the open-loop serving phase beside the statements and a
	// retrain loop beside the closed-loop phases, instead of one after the
	// other on an idle daemon.
	Overlap bool
	// MinAccuracy is the EVALUATE accuracy the trained model must reach on
	// its own training data.
	MinAccuracy float64
}

// pointDim is how many values one point-PREDICT request carries. Against
// the sparse model the values score the first pointDim coordinates.
const pointDim = 54

// numPoints is the size of the probe set requests cycle through.
const numPoints = 64

var workloads = []workload{
	{
		Name: "train_dense",
		Task: "lr", Rows: 200000, Dim: 54, Epochs: 5, Alpha: 0.1, PredictRepeat: 2, MinAccuracy: 0.95,
	},
	{
		Name: "train_sparse",
		Task: "svm", Sparse: true, Rows: 200000, Dim: 41000, NNZ: 12, Epochs: 10, Alpha: 0.1, PredictRepeat: 3, MinAccuracy: 0.70,
	},
	{
		Name: "score_serve",
		Task: "lr", Rows: 400000, Dim: 54, Epochs: 1, Alpha: 0.1, PredictRepeat: 1, MinAccuracy: 0.95,
	},
	{
		Name: "retrain_serve_mix",
		Task: "lr", Rows: 100000, Dim: 54, Epochs: 5, Alpha: 0.1, PredictRepeat: 3, Overlap: true, MinAccuracy: 0.95,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// trainSQL renders the workload's TRAIN statement with extra knobs.
func (w workload) trainSQL(extra string, seed int64, into string) string {
	dim := ""
	if w.Sparse {
		dim = fmt.Sprintf(", dim=%d", w.Dim)
	}
	return fmt.Sprintf("SELECT vec, label FROM %s TO TRAIN %s WITH alpha=%g, epochs=%d, seed=%d%s%s INTO %s;",
		tableName, w.Task, w.Alpha, w.Epochs, seed, dim, extra, into)
}

// warmupSQL is set-up's warm-up statement: the workload's TRAIN cut to one
// epoch.
func (w workload) warmupSQL(seed int64) string {
	w.Epochs = 1
	return w.trainSQL("", w.stmtSeed(seed), serveModel)
}

// stmtSeed is the seed knob statements carry: derived from the run's seed
// but small, because the knob is an integer literal.
func (workload) stmtSeed(seed int64) int64 { return 1 + seed%1000 }

// inputs is everything generated from the seed: the source table (in the
// harness's memory; the daemon only ever sees the rows), the probe points
// and their rendered text frames.
type inputs struct {
	Src       *engine.Table
	UserBytes int64
	Points    [][]float64
	PointStmt []string
}

// generate builds the workload's inputs from the seed. The generators are
// the harness's own, so a change to the repository's datagen cannot move
// the benchmark's inputs.
func (w workload) generate(seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{}
	if w.Sparse {
		in.Src, in.UserBytes = genSparse(rng, w.Rows, w.Dim, w.NNZ)
	} else {
		in.Src, in.UserBytes = genDense(rng, w.Rows, w.Dim)
	}
	in.Points = make([][]float64, numPoints)
	in.PointStmt = make([]string, numPoints)
	for i := range in.Points {
		p := make([]float64, pointDim)
		var sb strings.Builder
		sb.WriteString("PREDICT (")
		for j := range p {
			// Three decimals keep the text frame short and make the text
			// and binary encodings carry bit-identical values.
			p[j] = float64(int(rng.NormFloat64()*1000)) / 1000
			if j > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%g", p[j])
		}
		fmt.Fprintf(&sb, ") USING %s", serveModel)
		in.Points[i] = p
		in.PointStmt[i] = sb.String()
	}
	return in
}

// genDense makes Forest-like rows: labels alternate ±1 and the first eight
// of dim standard-normal features are shifted along the label.
func genDense(rng *rand.Rand, n, dim int) (*engine.Table, int64) {
	const informative = 8
	dir := make([]float64, informative)
	for i := range dir {
		dir[i] = 1 + rng.Float64()
	}
	tbl := engine.NewMemTable("src", tasks.DenseExampleSchema)
	for i := 0; i < n; i++ {
		y := 1.0
		if i%2 == 0 {
			y = -1
		}
		x := make(vector.Dense, dim)
		for j := range x {
			x[j] = rng.NormFloat64()
			if j < informative {
				x[j] += 0.6 * y * dir[j]
			}
		}
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.DenseV(x), engine.F64(y)})
	}
	return tbl, int64(n) * int64(8+8*dim+8)
}

// genSparse makes DBLife-like rows: Zipf-distributed feature ids, about
// nnz active per row, labels from a sparse direction on the frequent
// features with 8% flipped.
func genSparse(rng *rand.Rand, n, dim, nnz int) (*engine.Table, int64) {
	zipf := rand.NewZipf(rng, 1.3, 4, uint64(dim-1))
	head := dim / 40
	truth := make(map[int32]float64, head/2)
	for f := 0; f < head; f += 2 {
		truth[int32(f)] = rng.NormFloat64()
	}
	tbl := engine.NewMemTable("src", tasks.SparseExampleSchema)
	var user int64
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(2*nnz)
		idx := make([]int32, 0, k)
		val := make([]float64, 0, k)
		seen := make(map[int32]bool, k)
		var score float64
		for ; k > 0; k-- {
			f := int32(zipf.Uint64())
			if seen[f] {
				continue
			}
			seen[f] = true
			v := 1 + 0.2*rng.NormFloat64()
			idx = append(idx, f)
			val = append(val, v)
			score += truth[f] * v
		}
		y := 1.0
		if score+0.1*rng.NormFloat64() < 0 {
			y = -1
		}
		if rng.Float64() < 0.08 {
			y = -y
		}
		tbl.MustInsert(engine.Tuple{engine.I64(int64(i)), engine.SparseV(vector.NewSparse(idx, val)), engine.F64(y)})
		user += int64(8 + 12*len(idx) + 8)
	}
	return tbl, user
}
