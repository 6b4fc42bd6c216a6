package repro

// One benchmark per table and figure of the paper's evaluation (§7), plus
// the overhead measurements and the ablations called out in DESIGN.md.
// Table/figure benchmarks execute the full five-technique comparison at
// reduced scale and report domain metrics (accuracy in percent, expert
// counts) via b.ReportMetric; cmd/shiftex-bench regenerates the same
// artifacts at any scale.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/facility"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/shiftex"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// benchOptions is the reduced-scale protocol used by all table/figure
// benchmarks: one seed, 15-60 parties depending on the preset, 10 rounds
// per window. Small enough for the benchmark harness, large enough that
// shift detection and expert assignment behave as at full scale.
func benchOptions() experiments.Options {
	return experiments.Options{
		Scale:           0.3,
		Seeds:           []uint64{1},
		BootstrapRounds: 10,
		RoundsPerWindow: 10,
		Participants:    8,
		Epochs:          2,
	}
}

// runComparison executes the full comparison once and reports the headline
// metrics: ShiftEx mean max-accuracy and its margin over the best baseline.
func runComparison(b *testing.B, name string) *experiments.Comparison {
	b.Helper()
	bm, err := experiments.BenchmarkByName(name)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOptions()
	var cmp *experiments.Comparison
	for i := 0; i < b.N; i++ {
		cmp, err = experiments.Compare(bm, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportHeadline(b, cmp)
	return cmp
}

func meanMax(b *testing.B, cmp *experiments.Comparison, tech string) float64 {
	b.Helper()
	runs := cmp.Results[tech]
	var total float64
	n := 0
	for w := 1; w < cmp.NumWindows(); w++ {
		agg, err := metrics.AggregateWindows(runs, w)
		if err != nil {
			b.Fatal(err)
		}
		total += agg.Max.Mean
		n++
	}
	return total / float64(n)
}

func reportHeadline(b *testing.B, cmp *experiments.Comparison) {
	b.Helper()
	sx := meanMax(b, cmp, "shiftex")
	bestBase := 0.0
	for _, name := range cmp.Order {
		if name == "shiftex" {
			continue
		}
		if m := meanMax(b, cmp, name); m > bestBase {
			bestBase = m
		}
	}
	b.ReportMetric(100*sx, "shiftex-max-%")
	b.ReportMetric(100*bestBase, "best-baseline-max-%")
	b.ReportMetric(100*(sx-bestBase), "margin-pp")
}

// Table 1 (top): FMoW.
func BenchmarkTable1FMoW(b *testing.B) { runComparison(b, "fmow") }

// Table 1 (bottom): CIFAR-10-C.
func BenchmarkTable1CIFAR10C(b *testing.B) { runComparison(b, "cifar10c") }

// Table 2 (top): Tiny-ImageNet-C.
func BenchmarkTable2TinyImageNetC(b *testing.B) { runComparison(b, "tinyimagenetc") }

// Table 2 (middle): FEMNIST.
func BenchmarkTable2FEMNIST(b *testing.B) { runComparison(b, "femnist") }

// Table 2 (bottom): Fashion-MNIST.
func BenchmarkTable2FashionMNIST(b *testing.B) { runComparison(b, "fashionmnist") }

// Figure 3: convergence curves for FMoW / Tiny-ImageNet-C / CIFAR-10-C.
// The benchmark regenerates the seed-averaged accuracy-vs-round series and
// reports the final ShiftEx accuracy.
func BenchmarkFig3Convergence(b *testing.B) {
	cmp := runComparison(b, "fmow")
	series, err := metrics.MeanTrace(cmp.Results["shiftex"], cmp.NumWindows()-1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*series[len(series)-1], "final-acc-%")
}

// Figure 4: convergence curves for FEMNIST / Fashion-MNIST.
func BenchmarkFig4Convergence(b *testing.B) {
	cmp := runComparison(b, "femnist")
	series, err := metrics.MeanTrace(cmp.Results["shiftex"], cmp.NumWindows()-1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*series[len(series)-1], "final-acc-%")
}

// Figure 5: per-window max accuracy (large benchmarks).
func BenchmarkFig5MaxAccuracy(b *testing.B) {
	cmp := runComparison(b, "cifar10c")
	agg, err := metrics.AggregateWindows(cmp.Results["shiftex"], cmp.NumWindows()-1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*agg.Max.Mean, "lastwindow-max-%")
}

// Figure 6: per-window max accuracy (FEMNIST / Fashion-MNIST).
func BenchmarkFig6MaxAccuracy(b *testing.B) {
	cmp := runComparison(b, "fashionmnist")
	agg, err := metrics.AggregateWindows(cmp.Results["shiftex"], cmp.NumWindows()-1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*agg.Max.Mean, "lastwindow-max-%")
}

// Figure 7: expert distribution across windows (large benchmarks). Reports
// the final expert-pool size.
func BenchmarkFig7ExpertDistribution(b *testing.B) {
	cmp := runComparison(b, "tinyimagenetc")
	run := cmp.Results["shiftex"][0]
	last := run.Distributions[len(run.Distributions)-1]
	b.ReportMetric(float64(len(last)), "experts")
}

// Figure 8: expert distribution (FEMNIST / Fashion-MNIST).
func BenchmarkFig8ExpertDistribution(b *testing.B) {
	cmp := runComparison(b, "femnist")
	run := cmp.Results["shiftex"][0]
	last := run.Distributions[len(run.Distributions)-1]
	b.ReportMetric(float64(len(last)), "experts")
}

// §7 overheads: MMD drift detection on ResNet-50-scale embeddings.
func BenchmarkOverheadMMD(b *testing.B) {
	rng := tensor.NewRNG(1)
	const dim, n = 2048, 64
	xs := make([]tensor.Vector, n)
	ys := make([]tensor.Vector, n)
	for i := range xs {
		xs[i] = rng.NormVec(dim, 0, 1)
		ys[i] = rng.NormVec(dim, 0.5, 1)
	}
	k := stats.RBFKernel{Gamma: 1.0 / dim}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.MMD(xs, ys, k); err != nil {
			b.Fatal(err)
		}
	}
}

// §7 overheads: clustering 200 parties' 2048-d latent representations.
func BenchmarkOverheadClustering(b *testing.B) {
	rng := tensor.NewRNG(2)
	const dim, parties = 2048, 200
	points := make([]tensor.Vector, parties)
	for i := range points {
		points[i] = rng.NormVec(dim, float64(i%4)*2, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.SelectK(points, 6, cluster.Config{}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// §7 overheads: facility-location expert assignment.
func BenchmarkOverheadAssignment(b *testing.B) {
	rng := tensor.NewRNG(3)
	const dim = 2048
	clients := make([]facility.Client, 6)
	for i := range clients {
		clients[i] = facility.Client{ID: i, Embedding: rng.NormVec(dim, 0, 1), LabelHist: stats.Uniform(10), Weight: 30}
	}
	existing := make([]facility.Facility, 5)
	for i := range existing {
		existing[i] = facility.Facility{ID: i, Signature: rng.NormVec(dim, 0, 1)}
	}
	inst := &facility.Instance{Clients: clients, Existing: existing, NewCost: 1, LabelWeight: 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := facility.SolveGreedy(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// ablationScenario runs ShiftEx with the given config over a small shifted
// workload and returns final accuracy and expert count.
func ablationScenario(b *testing.B, mutate func(*shiftex.Config)) (acc float64, experts int) {
	b.Helper()
	spec := dataset.FMoWSpec()
	spec.NumParties = 16
	spec.Windows = 4
	// Two recurring regimes at a fixed severity: the workload where latent
	// memory (reuse) and consolidation (dedup) matter most.
	shiftCfg := dataset.DefaultShiftConfig()
	shiftCfg.CovariateKinds = []dataset.CorruptionKind{dataset.CorruptFog, dataset.CorruptRain}
	shiftCfg.RegimesPerWindow = 1
	shiftCfg.LabelShift = false
	shiftCfg.SeverityMin, shiftCfg.SeverityMax = 4, 4
	sc, err := dataset.BuildScenario(spec, shiftCfg, 99)
	if err != nil {
		b.Fatal(err)
	}
	fed, err := federation.New(sc, []int{spec.InputDim, 32, 16, spec.NumClasses}, 100)
	if err != nil {
		b.Fatal(err)
	}
	cfg := shiftex.DefaultConfig()
	cfg.BootstrapRounds = 8
	cfg.RoundsPerWindow = 8
	cfg.ParticipantsPerRound = 6
	mutate(&cfg)
	agg, err := shiftex.New(cfg, 101)
	if err != nil {
		b.Fatal(err)
	}
	var last []float64
	for w := 0; w < fed.NumWindows(); w++ {
		last, err = agg.RunWindow(fed, w)
		if err != nil {
			b.Fatal(err)
		}
	}
	return last[len(last)-1], agg.Registry().Len()
}

// Ablation A1: latent memory disabled — every shifted cluster spawns a new
// expert instead of reusing matching ones.
func BenchmarkAblationNoMemory(b *testing.B) {
	var acc float64
	var experts int
	for i := 0; i < b.N; i++ {
		acc, experts = ablationScenario(b, func(c *shiftex.Config) { c.DisableMemory = true })
	}
	b.ReportMetric(100*acc, "final-acc-%")
	b.ReportMetric(float64(experts), "experts")
}

// Ablation A2: consolidation disabled — the expert pool only grows.
func BenchmarkAblationNoConsolidation(b *testing.B) {
	var acc float64
	var experts int
	for i := 0; i < b.N; i++ {
		acc, experts = ablationScenario(b, func(c *shiftex.Config) { c.DisableConsolidation = true })
	}
	b.ReportMetric(100*acc, "final-acc-%")
	b.ReportMetric(float64(experts), "experts")
}

// Ablation A3: FLIPS disabled — uniform random participant selection.
func BenchmarkAblationNoFLIPS(b *testing.B) {
	var acc float64
	var experts int
	for i := 0; i < b.N; i++ {
		acc, experts = ablationScenario(b, func(c *shiftex.Config) { c.DisableFLIPS = true })
	}
	b.ReportMetric(100*acc, "final-acc-%")
	b.ReportMetric(float64(experts), "experts")
}

// Baseline reference: the full system on the same ablation workload.
func BenchmarkAblationFullSystem(b *testing.B) {
	var acc float64
	var experts int
	for i := 0; i < b.N; i++ {
		acc, experts = ablationScenario(b, func(c *shiftex.Config) {})
	}
	b.ReportMetric(100*acc, "final-acc-%")
	b.ReportMetric(float64(experts), "experts")
}
