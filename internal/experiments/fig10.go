package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"bismarck/internal/core"
	"bismarck/internal/data"
	"bismarck/internal/ordering"
	"bismarck/internal/sampling"
	"bismarck/internal/tasks"
)

// fig10Data builds the clustered sparse-LR workload of Figure 10 plus the
// reference optimal loss from a long shuffled run.
func fig10Data(cfg Config) (*tasks.LR, func() (*engineTable, error), float64, error) {
	task := tasks.NewLR(41000)
	step := core.GeometricStep{A0: 0.4, Rho: 0.96}
	ref := data.DBLife(cfg.scale(16000), 41000, 12, cfg.Seed+1)
	ref.Shuffle(rand.New(rand.NewSource(cfg.Seed)))
	long, err := (&core.Trainer{Task: task, Step: step, MaxEpochs: 80, Seed: cfg.Seed}).Run(ref)
	if err != nil {
		return nil, nil, 0, err
	}
	build := func() (*engineTable, error) {
		tbl := data.DBLife(cfg.scale(16000), 41000, 12, cfg.Seed+1)
		if err := data.ClusterByLabel(tbl); err != nil {
			return nil, err
		}
		return tbl, nil
	}
	return task, build, long.FinalLoss(), nil
}

// RunFig10A reproduces Figure 10(A): objective vs epoch for Subsampling,
// Clustered (no shuffle, full data) and MRS, with a buffer that is 10% of
// the dataset. Expected shape: MRS converges fastest and reaches a lower
// objective than both.
func RunFig10A(w io.Writer, cfg Config) error {
	task, build, _, err := fig10Data(cfg)
	if err != nil {
		return err
	}
	step := core.GeometricStep{A0: 0.4, Rho: 0.96}
	const epochs = 50
	n := cfg.scale(16000)
	buf := n / 10

	var series []Series
	finals := map[string]float64{}

	// Clustered: plain IGD on the stored (pathological) order.
	{
		tbl, err := build()
		if err != nil {
			return err
		}
		res, err := (&core.Trainer{Task: task, Step: step, MaxEpochs: epochs,
			Order: ordering.Clustered{}, Seed: cfg.Seed}).Run(tbl)
		if err != nil {
			return err
		}
		series = append(series, lossSeries("Clustered", res.Losses))
		finals["Clustered"] = res.FinalLoss()
	}
	// Subsampling: train only on one reservoir sample of size buf.
	{
		tbl, err := build()
		if err != nil {
			return err
		}
		res, err := trainSampled(task, step, epochs, buf, cfg.Seed, tbl, false)
		if err != nil {
			return err
		}
		series = append(series, lossSeries("Subsampling", res.Losses))
		finals["Subsampling"] = res.FinalLoss()
	}
	// MRS: dropped-tuple steps interleaved with steps over the last buffer.
	{
		tbl, err := build()
		if err != nil {
			return err
		}
		res, err := trainSampled(task, step, epochs, buf, cfg.Seed, tbl, true)
		if err != nil {
			return err
		}
		series = append(series, lossSeries("MRS", res.Losses))
		finals["MRS"] = res.FinalLoss()
	}

	for i := range series {
		series[i] = Downsample(series[i], 15)
	}
	PrintSeries(w, fmt.Sprintf("Figure 10A: objective vs epoch (sparse LR, buffer = %d tuples = 10%%)", buf),
		"epoch", series...)
	if finals["MRS"] >= finals["Subsampling"] {
		fmt.Fprintln(w, "note: WARNING expected MRS to beat Subsampling")
	}
	return nil
}

// RunFig10B reproduces Figure 10(B): time (and passes) to reach 2× the
// optimal objective value for buffer sizes 800/1600/3200, Subsampling vs
// MRS. Expected shape: MRS reaches the target in less time at every buffer
// size.
func RunFig10B(w io.Writer, cfg Config) error {
	task, build, opt, err := fig10Data(cfg)
	if err != nil {
		return err
	}
	step := core.GeometricStep{A0: 0.4, Rho: 0.96}
	target := 2 * opt
	const maxEpochs = 150

	t := &Table{
		Title:  "Figure 10B: runtime (s) to reach 2x optimal objective (epochs in parens)",
		Header: []string{"Buffer", "Subsampling", "MRS"},
		Notes: []string{
			"Paper (B=800/1600/3200): Subsampling 2.50s(48)/1.37s(26)/0.69s(13); MRS 0.60s(10)/0.36s(6)/0.12s(2).",
			"- means the scheme never reached the target within " + fmt.Sprint(maxEpochs) + " passes.",
		},
	}

	scaleBuf := func(b int) int {
		v := cfg.scale(b)
		if v < 5 {
			v = 5
		}
		return v
	}
	for _, b := range []int{800, 1600, 3200} {
		buf := scaleBuf(b)
		var cells []string
		// Subsampling.
		{
			tbl, err := build()
			if err != nil {
				return err
			}
			res, err := trainSampled(task, step, maxEpochs, buf, cfg.Seed, tbl, false)
			if err != nil {
				return err
			}
			cells = append(cells, timeToTarget(res.Losses, res.EpochTimes, target))
		}
		// MRS.
		{
			tbl, err := build()
			if err != nil {
				return err
			}
			res, err := trainSampled(task, step, maxEpochs, buf, cfg.Seed, tbl, true)
			if err != nil {
				return err
			}
			cells = append(cells, timeToTarget(res.Losses, res.EpochTimes, target))
		}
		t.Add(fmt.Sprintf("%d", buf), cells[0], cells[1])
	}
	t.Print(w)
	return nil
}

// trainSampled runs one §3.4 plan — reservoir subsampling, or MRS when mrs
// is set — for a fixed number of passes with a buf-tuple buffer.
func trainSampled(task core.Task, step core.StepRule, epochs, buf int, seed int64,
	tbl *engineTable, mrs bool) (*core.Result, error) {
	newRunner := sampling.NewReservoirRunner
	if mrs {
		newRunner = sampling.NewMRSRunner
	}
	r, err := newRunner(task, tbl, buf, seed)
	if err != nil {
		return nil, err
	}
	return core.Drive(r, core.LoopConfig{Task: task, Step: step, MaxEpochs: epochs, Seed: seed})
}

func lossSeries(name string, losses []float64) Series {
	s := Series{Name: name}
	for i, l := range losses {
		s.X = append(s.X, float64(i+1))
		s.Y = append(s.Y, l)
	}
	return s
}
