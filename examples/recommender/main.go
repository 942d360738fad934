// Recommender: low-rank matrix factorization on a MovieLens-style ratings
// table through the declarative statement API. A fold column carves the
// train/holdout split in the WHERE clause (which may filter on columns the
// task never sees), the WITH clause sets the factorization shape and step
// rule, and TO EVALUATE reports held-out RMSE — no imperative trainer
// wiring at all.
package main

import (
	"fmt"
	"log"
	"os"

	"bismarck"
	"bismarck/internal/data"
)

func main() {
	const (
		users, items = 500, 400
		rank         = 8
	)
	// Ratings land in a 4-column table: (row, col, rating, fold) with
	// fold = rating# mod 10; fold 0 is the holdout.
	cat := bismarck.NewCatalog()
	ratings, err := cat.Create("ratings", bismarck.Schema{
		{Name: "row", Type: bismarck.TInt64},
		{Name: "col", Type: bismarck.TInt64},
		{Name: "rating", Type: bismarck.TFloat64},
		{Name: "fold", Type: bismarck.TInt64},
	})
	if err != nil {
		log.Fatal(err)
	}
	i := int64(0)
	err = data.MovieLens(users, items, 30000, rank, 0.2, 11).Scan(func(tp bismarck.Tuple) error {
		row := append(append(bismarck.Tuple{}, tp...), bismarck.I64(i%10))
		i++
		return ratings.Insert(row)
	})
	if err != nil {
		log.Fatal(err)
	}

	sess := bismarck.NewServerManager(cat, bismarck.ServerOptions{}).NewSession(os.Stdout)
	run := func(stmt string) {
		fmt.Printf("sql> %s\n", stmt)
		if err := sess.Exec(stmt); err != nil {
			log.Fatal(err)
		}
	}

	// Train on folds 1-9. The SELECT list projects the task's three data
	// columns; WHERE filters on the fold column the task never sees.
	run(fmt.Sprintf(`SELECT row, col, rating FROM ratings
	     WHERE fold != 0
	     TO TRAIN lmf
	     WITH rows=%d, cols=%d, rank=%d, mu=0.02, init_scale=0.5,
	          alpha=0.04, epochs=60, order=shuffle_once
	     INTO mf;`, users, items, rank))

	// Held-out quality: RMSE over the ratings the model never saw...
	run(`SELECT row, col, rating FROM ratings WHERE fold = 0 TO EVALUATE USING mf;`)
	// ...and on the training folds, for reference.
	run(`SELECT row, col, rating FROM ratings WHERE fold != 0 TO EVALUATE USING mf;`)

	// Score the holdout into a table and show a few predictions next to
	// the actual ratings.
	run(`SELECT row, col, rating FROM ratings WHERE fold = 0 TO PREDICT INTO preds USING mf;`)
	preds, err := cat.Get("preds")
	if err != nil {
		log.Fatal(err)
	}
	var actual []float64
	ratings.Scan(func(tp bismarck.Tuple) error {
		if tp[3].Int == 0 {
			actual = append(actual, tp[2].Float)
		}
		return nil
	})
	k := 0
	preds.Scan(func(tp bismarck.Tuple) error {
		// preds preserves the holdout's scan order: row k scores actual[k].
		if k < 5 {
			fmt.Printf("  holdout rating for user %3d: actual %.1f, predicted %.2f\n",
				tp[0].Int, actual[k], tp[1].Float)
		}
		k++
		return nil
	})
}
