package sqlish

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"

	"bismarck/internal/core"
	"bismarck/internal/data"
	"bismarck/internal/engine"
	"bismarck/internal/ordering"
	"bismarck/internal/parallel"
	"bismarck/internal/tasks"
	"bismarck/internal/vector"
)

// modelFP is the FNV-64a hash of a model's float64 bit patterns: equal
// fingerprints mean bit-identical models.
func modelFP(w vector.Dense) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range w {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// planFingerprints was recorded at the commit before the five epoch loops
// were folded into core.Drive. Every plan here is deterministic at a fixed
// seed, so each entry pins the exact rng consumption, step order, merge
// arithmetic and convergence decision of one execution plan: the model's
// fingerprint plus either the final loss's bit pattern (front-door Go
// trainers) or the whole TRAIN reply line (statement plans, which also
// pins the reply text byte for byte).
var planFingerprints = map[string]string{
	"dense-lr/go/aig×1":                                                  "model=6135e35612034a4b loss=3feda5f2103fa8ff epochs=4",
	"dense-lr/go/lock×1":                                                 "model=9779b6497bb606ef loss=3fedae0a525e6d4b epochs=4",
	"dense-lr/go/piggyback":                                              "model=9779b6497bb606ef loss=3ff0f1922e02c2df epochs=4",
	"dense-lr/go/pure_uda×3":                                             "model=f553d00d0b3d7243 loss=400444ddf24790b7 epochs=4",
	"dense-lr/go/seq/clustered":                                          "model=b9ba3d6d50cd1cc1 loss=3fee2f7710680d21 epochs=4",
	"dense-lr/go/seq/reltol":                                             "model=4530482922cd4b77 loss=3fdc612f0acc936b epochs=17",
	"dense-lr/go/seq/shuffle_always":                                     "model=429f825c011f70f7 loss=3feda5f2103fa8fd epochs=4",
	"dense-lr/go/seq/shuffle_once":                                       "model=9779b6497bb606ef loss=3fedae0a525e6d4b epochs=4",
	"dense-lr/sql/order=clustered":                                       "model=dd6bc9f044f13714 reply=LR trained on src via IGD: 4 epochs, final loss 0.883646; model saved to table \"m\"",
	"dense-lr/sql/order=shuffle_always":                                  "model=51c26cc46862f922 reply=LR trained on src via IGD: 4 epochs, final loss 0.868272; model saved to table \"m\"",
	"dense-lr/sql/order=shuffle_once":                                    "model=c9fe985689de96ab reply=LR trained on src via IGD: 4 epochs, final loss 0.869289; model saved to table \"m\"",
	"dense-lr/sql/parallel=lock, workers=1":                              "model=c9fe985689de96ab reply=LR trained on src via IGD/Lock×1: 4 epochs, final loss 0.869289; model saved to table \"m\"",
	"dense-lr/sql/parallel=nolock, workers=1":                            "model=3e50f707cf68a8fb reply=LR trained on src via IGD/NoLock×1: 4 epochs, final loss 0.869289; model saved to table \"m\"",
	"dense-lr/sql/parallel=pure_uda, workers=3":                          "model=5bb1a3ac2d141b77 reply=LR trained on src via IGD/PureUDA×3: 4 epochs, final loss 2.37958; model saved to table \"m\"",
	"dense-lr/sql/reservoir=60":                                          "model=ce60f831b46090a9 reply=LR trained on src via IGD/Reservoir(buf=60): 4 epochs, final loss 8.64193; model saved to table \"m\"",
	"dense-lr/sql/shards=1, shard_by=hash":                               "model=c9fe985689de96ab reply=LR trained on src via IGD/Sharded×1(hash): 4 epochs, final loss 0.869289; model saved to table \"m\"",
	"dense-lr/sql/shards=1, shard_by=roundrobin":                         "model=c9fe985689de96ab reply=LR trained on src via IGD/Sharded×1(roundrobin): 4 epochs, final loss 0.869289; model saved to table \"m\"",
	"dense-lr/sql/shards=2, shard_by=hash":                               "model=352400f405210502 reply=LR trained on src via IGD/Sharded×2(hash): 4 epochs, final loss 1.69643; model saved to table \"m\"",
	"dense-lr/sql/shards=2, shard_by=roundrobin":                         "model=98a99b80adeb3e4c reply=LR trained on src via IGD/Sharded×2(roundrobin): 4 epochs, final loss 1.68151; model saved to table \"m\"",
	"dense-lr/sql/shards=3, order=shuffle_always, tol=0.02, epochs=40":   "model=d568a7b4f5fddecd reply=LR trained on src via IGD/Sharded×3(roundrobin): 24 epochs, final loss 0.793398; model saved to table \"m\"",
	"dense-lr/sql/shards=3, shard_by=hash":                               "model=47e12367dbd86b0e reply=LR trained on src via IGD/Sharded×3(hash): 4 epochs, final loss 2.51857; model saved to table \"m\"",
	"dense-lr/sql/shards=3, shard_by=roundrobin":                         "model=fbffe178f58548c9 reply=LR trained on src via IGD/Sharded×3(roundrobin): 4 epochs, final loss 2.50013; model saved to table \"m\"",
	"dense-lr/sql/step=constant":                                         "model=15afee06705883ec reply=LR trained on src via IGD: 4 epochs, final loss 0.814453; model saved to table \"m\"",
	"dense-lr/sql/step=diminishing, decay=0.7":                           "model=6d6de6d6b58718d0 reply=LR trained on src via IGD: 4 epochs, final loss 1.22538; model saved to table \"m\"",
	"dense-lr/sql/tol=0.02, epochs=40":                                   "model=b9335e82de8009a4 reply=LR trained on src via IGD: 24 epochs, final loss 0.276728; model saved to table \"m\"",
	"sparse-svm/go/aig×1":                                                "model=f0a957ddbbef9702 loss=4044e24bbc26d783 epochs=4",
	"sparse-svm/go/lock×1":                                               "model=758420d111557bf0 loss=4047f3466b0cd359 epochs=4",
	"sparse-svm/go/piggyback":                                            "model=758420d111557bf0 loss=404d8220b8516af6 epochs=4",
	"sparse-svm/go/pure_uda×3":                                           "model=b40428af0d56e077 loss=405581e42235ed98 epochs=4",
	"sparse-svm/go/seq/clustered":                                        "model=53c0d47939967613 loss=40468d1b4c8183bc epochs=4",
	"sparse-svm/go/seq/reltol":                                           "model=2d66b063836ce03a loss=40291f6265945dce epochs=21",
	"sparse-svm/go/seq/shuffle_always":                                   "model=f0a957ddbbef9702 loss=4044e24bbc26d783 epochs=4",
	"sparse-svm/go/seq/shuffle_once":                                     "model=758420d111557bf0 loss=4047f3466b0cd359 epochs=4",
	"sparse-svm/sql/order=clustered":                                     "model=3d5963bb4131c952 reply=SVM trained on src via IGD: 4 epochs, final loss 52.0392; model saved to table \"m\"",
	"sparse-svm/sql/order=shuffle_always":                                "model=583d96a996b5df9b reply=SVM trained on src via IGD: 4 epochs, final loss 42.0536; model saved to table \"m\"",
	"sparse-svm/sql/order=shuffle_once":                                  "model=59cee38f5d611dd0 reply=SVM trained on src via IGD: 4 epochs, final loss 43.4075; model saved to table \"m\"",
	"sparse-svm/sql/parallel=lock, workers=1":                            "model=59cee38f5d611dd0 reply=SVM trained on src via IGD/Lock×1: 4 epochs, final loss 43.4075; model saved to table \"m\"",
	"sparse-svm/sql/parallel=nolock, workers=1":                          "model=59cee38f5d611dd0 reply=SVM trained on src via IGD/NoLock×1: 4 epochs, final loss 43.4075; model saved to table \"m\"",
	"sparse-svm/sql/parallel=pure_uda, workers=3":                        "model=86756f8ebb080d43 reply=SVM trained on src via IGD/PureUDA×3: 4 epochs, final loss 81.5222; model saved to table \"m\"",
	"sparse-svm/sql/reservoir=60":                                        "model=bb523dc6e022a104 reply=SVM trained on src via IGD/Reservoir(buf=60): 4 epochs, final loss 157.253; model saved to table \"m\"",
	"sparse-svm/sql/shards=1, shard_by=hash":                             "model=59cee38f5d611dd0 reply=SVM trained on src via IGD/Sharded×1(hash): 4 epochs, final loss 43.4075; model saved to table \"m\"",
	"sparse-svm/sql/shards=1, shard_by=roundrobin":                       "model=59cee38f5d611dd0 reply=SVM trained on src via IGD/Sharded×1(roundrobin): 4 epochs, final loss 43.4075; model saved to table \"m\"",
	"sparse-svm/sql/shards=2, shard_by=hash":                             "model=5d260177f89bead3 reply=SVM trained on src via IGD/Sharded×2(hash): 4 epochs, final loss 70.4698; model saved to table \"m\"",
	"sparse-svm/sql/shards=2, shard_by=roundrobin":                       "model=5b296202d066bc6c reply=SVM trained on src via IGD/Sharded×2(roundrobin): 4 epochs, final loss 79.5618; model saved to table \"m\"",
	"sparse-svm/sql/shards=3, order=shuffle_always, tol=0.02, epochs=40": "model=a87a37c9fa8bb82b reply=SVM trained on src via IGD/Sharded×3(roundrobin): 7 epochs, final loss 65.1745; model saved to table \"m\"",
	"sparse-svm/sql/shards=3, shard_by=hash":                             "model=5891c914b3e8d623 reply=SVM trained on src via IGD/Sharded×3(hash): 4 epochs, final loss 83.2989; model saved to table \"m\"",
	"sparse-svm/sql/shards=3, shard_by=roundrobin":                       "model=00d1e5f54a74d4e4 reply=SVM trained on src via IGD/Sharded×3(roundrobin): 4 epochs, final loss 84.3764; model saved to table \"m\"",
	"sparse-svm/sql/step=constant":                                       "model=025a038ce9db387f reply=SVM trained on src via IGD: 4 epochs, final loss 50.2735; model saved to table \"m\"",
	"sparse-svm/sql/step=diminishing, decay=0.7":                         "model=da993e7829c4cce6 reply=SVM trained on src via IGD: 4 epochs, final loss 52.8155; model saved to table \"m\"",
	"sparse-svm/sql/tol=0.02, epochs=40":                                 "model=9fac4a22fbe11d50 reply=SVM trained on src via IGD: 13 epochs, final loss 17.6233; model saved to table \"m\"",

	// The solver= plans, recorded while the baseline solvers still ran
	// their own loops outside core.Drive.
	"dense-lr/sql/solver=batch, alpha=0.1, seed=11, epochs=4":             "model=3c7669323d2f3c96 reply=LR trained on dense via BatchGD: 4 epochs, final loss 82.792; model saved to table \"m\"",
	"dense-lr/sql/solver=batch, alpha=0.1, seed=11, tol=0.001, epochs=40": "model=5170306ef55c374a reply=LR trained on dense via BatchGD: 40 epochs, final loss 15.9878; model saved to table \"m\"",
	"dense-lr/sql/solver=irls, epochs=4":                                  "model=c919188be5ca63d4 reply=LR trained on dense via IRLS: 4 epochs, final loss 3.38912; model saved to table \"m\"",
	// Moved once, on purpose: the solver's own loop divided the loss drop by
	// max(|prev|, 1), core.Drive divides by |prev|, and this loss falls below
	// 1 (was model=e92a2cafc6aaa71a, "13 epochs, final loss 0.000517991").
	"dense-lr/sql/solver=irls, tol=0.001, epochs=40":                    "model=56bdce0e172d6367 reply=LR trained on dense via IRLS: 40 epochs, final loss 3.39281e-10; model saved to table \"m\"",
	"ratings-lmf/sql/solver=als, rank=3, seed=11, epochs=4":             "model=9f24c23ae7521429 reply=LMF trained on ratings via ALS: 4 epochs, final loss 56.7336; model saved to table \"m\"",
	"ratings-lmf/sql/solver=als, rank=3, seed=11, tol=0.001, epochs=40": "model=74d025475fe1065b reply=LMF trained on ratings via ALS: 10 epochs, final loss 55.0001; model saved to table \"m\"",
	"sparse-svm/sql/solver=batch, alpha=0.1, seed=11, epochs=4":         "model=6d52a0bcdfff074a reply=SVM trained on sparse via BatchGD: 4 epochs, final loss 238.618; model saved to table \"m\"",
}

// TestPlanFingerprints proves a refactor of the training loops changed no
// bits: it reruns every deterministic plan on one dense-LR and one
// sparse-SVM table and compares against planFingerprints.
func TestPlanFingerprints(t *testing.T) {
	type workload struct {
		name string
		tbl  func() *engine.Table
		task func() core.Task
		stmt string // task name in the statement grammar
	}
	workloads := []workload{
		{"dense-lr", func() *engine.Table { return data.Forest(300, 5) },
			func() core.Task { return tasks.NewLR(54) }, "lr"},
		{"sparse-svm", func() *engine.Table { return data.DBLife(300, 2000, 12, 7) },
			func() core.Task { return tasks.NewSVM(2000) }, "svm"},
	}
	const seed = 11
	step := core.GeometricStep{A0: 0.1, Rho: 0.9}
	got := map[string]string{}

	for _, wl := range workloads {
		// Front-door Go trainers: exact final-loss bits.
		goPlans := map[string]func(*engine.Table) (*core.Result, error){
			"seq/shuffle_once": func(tbl *engine.Table) (*core.Result, error) {
				return (&core.Trainer{Task: wl.task(), Step: step, MaxEpochs: 4,
					Order: ordering.ShuffleOnce{}, Seed: seed}).Run(tbl)
			},
			"seq/shuffle_always": func(tbl *engine.Table) (*core.Result, error) {
				return (&core.Trainer{Task: wl.task(), Step: step, MaxEpochs: 4,
					Order: ordering.ShuffleAlways{}, Seed: seed}).Run(tbl)
			},
			"seq/clustered": func(tbl *engine.Table) (*core.Result, error) {
				return (&core.Trainer{Task: wl.task(), Step: step, MaxEpochs: 4,
					Order: ordering.Clustered{}, Seed: seed}).Run(tbl)
			},
			"seq/reltol": func(tbl *engine.Table) (*core.Result, error) {
				return (&core.Trainer{Task: wl.task(), Step: step, MaxEpochs: 40, RelTol: 0.02,
					Order: ordering.ShuffleOnce{}, Seed: seed}).Run(tbl)
			},
			"piggyback": func(tbl *engine.Table) (*core.Result, error) {
				return (&core.Trainer{Task: wl.task(), Step: step, MaxEpochs: 4,
					Order: ordering.ShuffleOnce{}, Seed: seed, PiggybackLoss: true}).Run(tbl)
			},
			"pure_uda×3": func(tbl *engine.Table) (*core.Result, error) {
				return (&parallel.Trainer{Task: wl.task(), Step: step, MaxEpochs: 4, Workers: 3,
					Mode: parallel.PureUDA, Order: ordering.ShuffleOnce{}, Seed: seed}).Run(tbl)
			},
			"lock×1": func(tbl *engine.Table) (*core.Result, error) {
				return (&parallel.Trainer{Task: wl.task(), Step: step, MaxEpochs: 4, Workers: 1,
					Mode: parallel.Lock, Order: ordering.ShuffleOnce{}, Seed: seed}).Run(tbl)
			},
			"aig×1": func(tbl *engine.Table) (*core.Result, error) {
				return (&parallel.Trainer{Task: wl.task(), Step: step, MaxEpochs: 4, Workers: 1,
					Mode: parallel.AIG, Order: ordering.ShuffleAlways{}, Seed: seed}).Run(tbl)
			},
		}
		for name, run := range goPlans {
			res, err := run(wl.tbl())
			if err != nil {
				t.Fatalf("%s/go/%s: %v", wl.name, name, err)
			}
			got[wl.name+"/go/"+name] = fmt.Sprintf("model=%016x loss=%016x epochs=%d",
				modelFP(res.Model), math.Float64bits(res.FinalLoss()), res.Epochs)
		}

		// Statement plans: the model as persisted plus the reply line.
		s, out := declSession(t)
		copyInto(t, s, "src", wl.tbl())
		withs := []string{
			"order=shuffle_once",
			"order=shuffle_always",
			"order=clustered",
			"tol=0.02, epochs=40",
			"step=constant",
			"step=diminishing, decay=0.7",
			"parallel=pure_uda, workers=3",
			"parallel=lock, workers=1",
			"parallel=nolock, workers=1",
			"reservoir=60",
		}
		for _, k := range []int{1, 2, 3} {
			for _, by := range []string{"roundrobin", "hash"} {
				withs = append(withs, fmt.Sprintf("shards=%d, shard_by=%s", k, by))
			}
		}
		withs = append(withs, "shards=3, order=shuffle_always, tol=0.02, epochs=40")
		for _, with := range withs {
			out.Reset()
			full := with + ", alpha=0.1, seed=11"
			if !strings.Contains(with, "epochs=") {
				full += ", epochs=4"
			}
			mustExec(t, s, fmt.Sprintf("SELECT vec, label FROM src TO TRAIN %s WITH %s INTO m;", wl.stmt, full))
			snap, _, err := s.LoadSnapshot("m")
			if err != nil {
				t.Fatal(err)
			}
			got[wl.name+"/sql/"+with] = fmt.Sprintf("model=%016x reply=%s",
				modelFP(snap.W), strings.TrimSpace(out.String()))
		}
	}

	// Solver plans, each with only the knobs its solver reads: irls takes
	// neither alpha nor seed, als takes no alpha.
	s, out := declSession(t)
	copyInto(t, s, "dense", data.Forest(300, 5))
	copyInto(t, s, "sparse", data.DBLife(300, 2000, 12, 7))
	copyInto(t, s, "ratings", data.MovieLens(20, 15, 300, 3, 0.2, 9))
	for _, p := range []struct{ name, from, task, with string }{
		{"dense-lr", "dense", "lr", "solver=batch, alpha=0.1, seed=11, epochs=4"},
		{"dense-lr", "dense", "lr", "solver=batch, alpha=0.1, seed=11, tol=0.001, epochs=40"},
		{"dense-lr", "dense", "lr", "solver=irls, epochs=4"},
		{"dense-lr", "dense", "lr", "solver=irls, tol=0.001, epochs=40"},
		{"sparse-svm", "sparse", "svm", "solver=batch, alpha=0.1, seed=11, epochs=4"},
		{"ratings-lmf", "ratings", "lmf", "solver=als, rank=3, seed=11, epochs=4"},
		{"ratings-lmf", "ratings", "lmf", "solver=als, rank=3, seed=11, tol=0.001, epochs=40"},
	} {
		out.Reset()
		mustExec(t, s, fmt.Sprintf("SELECT * FROM %s TO TRAIN %s WITH %s INTO m;", p.from, p.task, p.with))
		snap, _, err := s.LoadSnapshot("m")
		if err != nil {
			t.Fatal(err)
		}
		got[p.name+"/sql/"+p.with] = fmt.Sprintf("model=%016x reply=%s",
			modelFP(snap.W), strings.TrimSpace(out.String()))
	}

	bad := false
	for name, want := range planFingerprints {
		if got[name] != want {
			t.Errorf("%s:\n  got  %s\n  want %s", name, got[name], want)
			bad = true
		}
	}
	if len(got) != len(planFingerprints) {
		t.Errorf("ran %d plans, table records %d", len(got), len(planFingerprints))
		bad = true
	}
	if bad {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, name := range names {
			fmt.Fprintf(&sb, "\t%q: %q,\n", name, got[name])
		}
		t.Logf("observed table:\n%s", sb.String())
	}
}
