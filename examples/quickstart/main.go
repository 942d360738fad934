// Quickstart: train, evaluate, and predict with the declarative statement
// API — build a catalog table, then drive everything through SQLFlow-style
// extended SQL. The same statement grammar selects the trainer (sequential
// or parallel) purely via WITH knobs.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"bismarck"
)

func main() {
	// 1. Create a catalog with a table of labeled examples: (id, vec, label).
	cat := bismarck.NewCatalog()
	tbl, err := cat.Create("train", bismarck.DenseExampleSchema)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n, d = 2000, 10
	truth := make(bismarck.Dense, d)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}
	dot := func(a, b bismarck.Dense) float64 {
		var s float64
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	for i := 0; i < n; i++ {
		x := make(bismarck.Dense, d)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := 1.0
		if dot(truth, x)+0.3*rng.NormFloat64() < 0 {
			y = -1
		}
		if err := tbl.Insert(bismarck.Tuple{bismarck.I64(int64(i)), bismarck.DenseV(x), bismarck.F64(y)}); err != nil {
			log.Fatal(err)
		}
	}

	// 2. Open a session and train declaratively: logistic regression via
	// IGD, with the step rule, ordering, and convergence tolerance all
	// selected in the WITH clause.
	sess := bismarck.NewServerManager(cat, bismarck.ServerOptions{}).NewSession(os.Stdout)
	run := func(stmt string) {
		fmt.Printf("sql> %s\n", stmt)
		if err := sess.Exec(stmt); err != nil {
			log.Fatal(err)
		}
	}
	run(`SELECT vec, label FROM train
	     TO TRAIN lr
	     WITH alpha=0.2, epochs=25, tol=0.0001, order=shuffle_once
	     INTO lr_model;`)

	// 3. Evaluate and predict through the same grammar.
	run(`SELECT * FROM train TO EVALUATE USING lr_model;`)
	run(`SELECT * FROM train TO PREDICT INTO scores USING lr_model;`)

	// 4. The identical statement shape drives the parallel trainer — only
	// the WITH knobs change (Hogwild over 4 workers).
	run(`SELECT vec, label FROM train
	     TO TRAIN svm
	     WITH alpha=0.2, epochs=25, parallel=nolock, workers=4
	     INTO svm_model;`)
	run(`SELECT * FROM train TO EVALUATE USING svm_model;`)

	// 5. Trained models persist as plain user tables.
	scores, err := cat.Get("scores")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scores table holds %d rows, e.g.:\n", scores.NumRows())
	shown := 0
	scores.Scan(func(tp bismarck.Tuple) error {
		if shown < 3 {
			fmt.Printf("  id %4d  P(label=+1) = %.4f\n", tp[0].Int, tp[1].Float)
			shown++
		}
		return nil
	})
}
