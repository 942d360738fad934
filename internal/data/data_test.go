package data

import (
	"testing"

	"bismarck/internal/core"
	"bismarck/internal/engine"
	"bismarck/internal/tasks"
)

func TestForestShape(t *testing.T) {
	tbl := Forest(500, 1)
	if tbl.NumRows() != 500 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	pos, neg := 0, 0
	tbl.Scan(func(tp engine.Tuple) error {
		if len(tp[tasks.ColVec].Dense) != 54 {
			t.Fatalf("dim = %d", len(tp[tasks.ColVec].Dense))
		}
		if tp[tasks.ColLabel].Float > 0 {
			pos++
		} else {
			neg++
		}
		return nil
	})
	if pos == 0 || neg == 0 {
		t.Fatalf("degenerate labels: %d/%d", pos, neg)
	}
}

func TestForestIsLearnable(t *testing.T) {
	tbl := Forest(1000, 2)
	tr := &core.Trainer{Task: tasks.NewLR(54), Step: core.DefaultStep(0.1), MaxEpochs: 10, Seed: 1}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss() >= res.Losses[0]*0.8 {
		t.Fatalf("Forest not learnable: %g -> %g", res.Losses[0], res.FinalLoss())
	}
}

func TestForestDeterministicPerSeed(t *testing.T) {
	a, b := Forest(50, 7), Forest(50, 7)
	var rowsA, rowsB []engine.Tuple
	a.Scan(func(tp engine.Tuple) error { rowsA = append(rowsA, tp.Clone()); return nil })
	b.Scan(func(tp engine.Tuple) error { rowsB = append(rowsB, tp.Clone()); return nil })
	for i := range rowsA {
		if rowsA[i][2].Float != rowsB[i][2].Float ||
			rowsA[i][1].Dense[0] != rowsB[i][1].Dense[0] {
			t.Fatal("same seed must generate identical data")
		}
	}
}

func TestDBLifeSparsity(t *testing.T) {
	tbl := DBLife(300, 41000, 10, 3)
	if tbl.NumRows() != 300 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	var totNNZ, maxIdx int
	tbl.Scan(func(tp engine.Tuple) error {
		sp := tp[tasks.ColVec].Sparse
		totNNZ += sp.NNZ()
		if m := sp.MaxIdx(); m > maxIdx {
			maxIdx = m
		}
		return nil
	})
	avg := float64(totNNZ) / 300
	if avg < 2 || avg > 25 {
		t.Fatalf("avg nnz = %v", avg)
	}
	if maxIdx > 41000 {
		t.Fatalf("feature id out of range: %d", maxIdx)
	}
}

func TestDBLifeIsLearnable(t *testing.T) {
	tbl := DBLife(800, 2000, 8, 4)
	tr := &core.Trainer{Task: tasks.NewLR(2000), Step: core.DefaultStep(0.5), MaxEpochs: 15, Seed: 1}
	res, err := tr.Run(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss() >= res.Losses[0]*0.6 {
		t.Fatalf("DBLife not learnable: %g -> %g", res.Losses[0], res.FinalLoss())
	}
}

func TestMovieLensRange(t *testing.T) {
	tbl := MovieLens(100, 80, 2000, 5, 0.2, 5)
	if tbl.NumRows() != 2000 {
		t.Fatalf("ratings = %d", tbl.NumRows())
	}
	tbl.Scan(func(tp engine.Tuple) error {
		v := tp[2].Float
		if v < 1 || v > 5 {
			t.Fatalf("rating %v outside [1,5]", v)
		}
		if tp[0].Int >= 100 || tp[1].Int >= 80 {
			t.Fatalf("index out of range (%d,%d)", tp[0].Int, tp[1].Int)
		}
		return nil
	})
}

func TestCoNLLStructure(t *testing.T) {
	tbl := CoNLL(50, 200, 5, 10, 6)
	if tbl.NumRows() != 50 {
		t.Fatalf("seqs = %d", tbl.NumRows())
	}
	tbl.Scan(func(tp engine.Tuple) error {
		offsets, feats, labels := tp[1].Ints, tp[2].Ints, tp[3].Ints
		if len(offsets) != len(labels)+1 {
			t.Fatalf("offsets %d labels %d", len(offsets), len(labels))
		}
		if offsets[0] != 0 || int(offsets[len(offsets)-1]) != len(feats) {
			t.Fatal("offsets do not bracket feats")
		}
		for i := 1; i < len(offsets); i++ {
			if offsets[i] < offsets[i-1] {
				t.Fatal("offsets not monotone")
			}
		}
		for _, l := range labels {
			if l < 0 || l >= 5 {
				t.Fatalf("label %d out of range", l)
			}
		}
		for _, f := range feats {
			if f < 0 || f >= 200 {
				t.Fatalf("feature %d out of range", f)
			}
		}
		return nil
	})
}

func TestCATXLayout(t *testing.T) {
	tbl := CATX(500)
	if tbl.NumRows() != 1000 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	i := 0
	tbl.Scan(func(tp engine.Tuple) error {
		want := 1.0
		if i >= 500 {
			want = -1
		}
		if tp[tasks.ColLabel].Float != want || tp[tasks.ColVec].Dense[0] != 1 {
			t.Fatalf("row %d = %+v", i, tp)
		}
		i++
		return nil
	})
}

func TestClusterByLabel(t *testing.T) {
	tbl := Forest(200, 8)
	if err := ClusterByLabel(tbl); err != nil {
		t.Fatal(err)
	}
	prev := -2.0
	tbl.Scan(func(tp engine.Tuple) error {
		if tp[tasks.ColLabel].Float < prev {
			t.Fatal("labels not clustered")
		}
		prev = tp[tasks.ColLabel].Float
		return nil
	})
}

func TestReturnsTable(t *testing.T) {
	tbl := ReturnsTable(100, 5, 9)
	if tbl.NumRows() != 100 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	tbl.Scan(func(tp engine.Tuple) error {
		if len(tp[1].Dense) != 5 {
			t.Fatalf("asset dim %d", len(tp[1].Dense))
		}
		return nil
	})
}

func TestNoisySeries(t *testing.T) {
	tbl := NoisySeries(30, 2, 0.1, 10)
	if tbl.NumRows() != 30 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	i := int64(0)
	tbl.Scan(func(tp engine.Tuple) error {
		if tp[0].Int != i {
			t.Fatalf("time step %d at row %d", tp[0].Int, i)
		}
		i++
		return nil
	})
}

func TestDescribeAndHumanBytes(t *testing.T) {
	tbl := Forest(100, 11)
	st, err := Describe(tbl, "54")
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 100 || st.Bytes <= 0 || st.Dim != "54" {
		t.Fatalf("stats = %+v", st)
	}
	for _, c := range []struct {
		b    int64
		want string
	}{{512, "512B"}, {2048, "2.0K"}, {3 << 20, "3.0M"}, {5 << 30, "5.0G"}} {
		if got := HumanBytes(c.b); got != c.want {
			t.Fatalf("HumanBytes(%d) = %s", c.b, got)
		}
	}
}
