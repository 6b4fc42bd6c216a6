// Command shiftex-bench regenerates the paper's tables and figures from the
// Go reproduction. Each experiment id maps to one artifact of the paper's
// evaluation (§7):
//
//	table1-fmow, table1-cifar           Table 1 (Drop/Time/Max per window)
//	table2-tinyimagenet, table2-femnist,
//	table2-fashion                      Table 2
//	fig3, fig4                          convergence curves
//	fig5, fig6                          max accuracy per window
//	fig7, fig8                          expert distributions
//	overheads                           §7 ShiftEx overhead measurements
//	all                                 everything above
//
// Every experiment runs on the parallel grid engine: the benchmark ×
// technique × seed cross product is scheduled on -workers goroutines with
// results bit-identical to serial execution. -json DIR additionally writes
// one versioned BENCH_<benchmark>.json artifact per benchmark (add
// -deterministic to strip wall-clock fields so the bytes are reproducible).
// -cell benchmark/technique/seed (with * wildcards, comma-separated) runs
// just the matching grid cells; -replay FILE re-prints tables from a
// previously written artifact without re-training.
//
// -policy a,b,... sweeps adaptation policies (internal/adapt registry):
// the technique set becomes every policied technique (shiftex) under each
// named policy — cell keys read benchmark/shiftex@policy/seed — and
// artifacts gain a "-policies" name suffix so they never overwrite the
// standard per-benchmark files. Unknown policy or technique names exit
// non-zero with the live registry listing.
//
// -headline runs the standing perf-baseline grid (every benchmark ×
// technique × quick-protocol seed) and writes BENCH_headline.json with
// per-cell wall-clock data; -against FILE compares the run's total wall
// time to a recorded baseline and prints a warning (exit stays 0) when it
// regressed more than 20%. -cpuprofile/-memprofile attach pprof evidence to
// any run.
//
// Scale and seeds are configurable; -paper approximates the full protocol.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/facility"
	"repro/internal/stats"
	"repro/internal/tensor"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "shiftex-bench:", err)
		os.Exit(1)
	}
}

// experimentIDs is the full -exp vocabulary, also used for usage hints.
var experimentIDs = []string{
	"table1-fmow", "table1-cifar", "table2-tinyimagenet",
	"table2-femnist", "table2-fashion",
	"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "overheads",
}

// nameHint lists the valid grid vocabulary for error messages, read live
// from the benchmark presets and the adapt registries.
func nameHint() string {
	return fmt.Sprintf("\n  benchmarks: %s\n  techniques: %s\n  policies: %s",
		strings.Join(experiments.BenchmarkNames(), ", "),
		strings.Join(experiments.TechniqueNames(), ", "),
		strings.Join(experiments.PolicyNames(), ", "))
}

func run(args []string) error {
	fs := flag.NewFlagSet("shiftex-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (see package doc)")
	paper := fs.Bool("paper", false, "use paper-scale protocol (slow)")
	scale := fs.Float64("scale", 0, "override party/sample scale (0 = preset)")
	seeds := fs.Int("seeds", 0, "override number of seeds (0 = preset)")
	seedBase := fs.Uint64("seedbase", 0, "derive the -seeds seeds from this base via RNG splitting (0 = seeds 1..N)")
	rounds := fs.Int("rounds", 0, "override rounds per window (0 = preset)")
	workers := fs.Int("workers", 0, "concurrent grid cells (0 = all cores)")
	jsonDir := fs.String("json", "", "directory to write BENCH_<benchmark>.json artifacts (empty = off)")
	deterministic := fs.Bool("deterministic", false, "strip wall-clock timing from JSON artifacts so output bytes are reproducible")
	cell := fs.String("cell", "", "run only matching grid cells: benchmark/technique/seed patterns (* wildcards, comma-separated)")
	policy := fs.String("policy", "", "comma-separated adaptation policies: sweep every policied technique (shiftex) under each, replacing the standard technique set; artifacts gain a -policies name suffix")
	replay := fs.String("replay", "", "re-print tables from a BENCH_*.json artifact instead of running")
	headline := fs.Bool("headline", false, "run the perf-baseline grid (all benchmarks x techniques x seeds) and write BENCH_headline.json")
	against := fs.String("against", "", "compare total wall time against a recorded BENCH_headline.json; warn (exit 0) on >20% regression")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Flag-combination validation happens before any mode dispatch so that
	// e.g. -replay cannot silently swallow a requested -against comparison.
	if *headline && *cell != "" {
		return errors.New("cannot combine -headline with -cell: -headline runs the fixed perf-baseline grid")
	}
	if *against != "" && !*headline {
		return errors.New("-against requires -headline (it compares headline wall time)")
	}
	if *replay != "" && *headline {
		return errors.New("cannot combine -replay with -headline: -replay re-prints a recorded artifact without running")
	}
	if *policy != "" && *headline {
		return errors.New("cannot combine -policy with -headline: -headline runs the fixed perf-baseline grid")
	}
	if *policy != "" && *replay != "" {
		return errors.New("cannot combine -policy with -replay: -replay re-prints a recorded artifact without running")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeHeapProfile(*memprofile); err != nil {
				fmt.Fprintln(os.Stderr, "shiftex-bench:", err)
			}
		}()
	}

	if *replay != "" {
		return replayArtifact(os.Stdout, *replay)
	}

	opts := experiments.QuickOptions()
	if *paper {
		opts = experiments.PaperOptions()
	}
	if *scale > 0 {
		opts.Scale = *scale
	}
	if *seeds > 0 {
		if *seedBase != 0 {
			opts.Seeds = experiments.SplitSeeds(*seedBase, *seeds)
		} else {
			opts.Seeds = opts.Seeds[:0]
			for s := 1; s <= *seeds; s++ {
				opts.Seeds = append(opts.Seeds, uint64(s))
			}
		}
	} else if *seedBase != 0 {
		return fmt.Errorf("-seedbase requires -seeds N")
	}
	if *rounds > 0 {
		opts.RoundsPerWindow = *rounds
		opts.BootstrapRounds = *rounds
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", *workers)
	}
	opts.Workers = *workers

	// A -policy sweep replaces the technique set: every policied technique
	// (shiftex) under each named policy, so one grid run compares policies
	// on identical scenarios. Sweep artifacts get a "-policies" name suffix
	// so they never overwrite the standard per-benchmark artifacts.
	var techniques []experiments.TechniqueFactory
	artifactSuffix := ""
	if *policy != "" {
		names := strings.Split(*policy, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		swept, err := experiments.PolicyTechniques(opts, names)
		if err != nil {
			return fmt.Errorf("%w%s", err, nameHint())
		}
		techniques = swept
		artifactSuffix = "-policies"
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *headline {
		return runHeadline(ctx, opts, *jsonDir, *deterministic, *against)
	}

	if *cell != "" {
		expSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "exp" {
				expSet = true
			}
		})
		if expSet {
			return fmt.Errorf("cannot combine -exp with -cell: -cell runs raw grid cells, -exp runs table/figure experiments")
		}
		return runGridMode(ctx, *cell, opts, techniques, artifactSuffix, *jsonDir, *deterministic)
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experimentIDs
	}
	cache := map[string]*comparisonRun{}
	run := runConfig{
		opts:          opts,
		techniques:    techniques,
		suffix:        artifactSuffix,
		jsonDir:       *jsonDir,
		deterministic: *deterministic,
	}
	for _, id := range ids {
		start := time.Now()
		if err := runExperiment(ctx, strings.TrimSpace(id), run, cache); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Printf("[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runConfig carries the shared execution settings of table/figure
// experiments: the protocol options, the (possibly policy-swept) technique
// set, and artifact output configuration.
type runConfig struct {
	opts          experiments.Options
	techniques    []experiments.TechniqueFactory // nil = standard set
	suffix        string                         // artifact name suffix ("-policies" for sweeps)
	jsonDir       string
	deterministic bool
}

// distributionTechnique names the technique whose expert distributions the
// figure experiments print: plain "shiftex" on the standard set, the first
// swept variant under -policy.
func (rc runConfig) distributionTechnique() string {
	if len(rc.techniques) > 0 {
		return rc.techniques[0].Name
	}
	return "shiftex"
}

// replayArtifact prints the table and summary for a recorded grid run.
func replayArtifact(w io.Writer, path string) error {
	a, err := experiments.ReadFile[experiments.Artifact](path)
	if err != nil {
		return err
	}
	cmp, err := experiments.ComparisonFromArtifact(a)
	if err != nil {
		return err
	}
	if err := experiments.WriteTable(w, cmp); err != nil {
		return err
	}
	return experiments.WriteSummary(w, cmp)
}

// runGridMode runs just the cells matching the -cell patterns (over the
// standard or policy-swept technique set), streaming a result line per
// cell and optionally writing artifacts.
func runGridMode(ctx context.Context, spec string, opts experiments.Options, techniques []experiments.TechniqueFactory, suffix, jsonDir string, deterministic bool) error {
	filter, err := parseCellFilter(spec, opts)
	if err != nil {
		return err
	}
	g := experiments.Grid{Benchmarks: experiments.Benchmarks(), Techniques: techniques, Options: opts, Filter: filter}
	if len(g.Cells()) == 0 {
		// The technique key depends on the mode: -policy sweeps key cells
		// as technique@policy, standard runs as the plain name.
		keyHint := "this run's cells are keyed by plain technique names (add -policy to run technique@policy cells)"
		if len(techniques) > 0 {
			keyHint = "this -policy sweep keys cells as technique@policy, e.g. " + techniques[0].Name
		}
		return fmt.Errorf("no grid cells match -cell %q (note: %s, and the seed must be among the run's seeds; use -seeds to widen)%s", spec, keyHint, nameHint())
	}
	cells, err := experiments.RunGrid(ctx, g, experiments.Pool{
		Workers: opts.Workers,
		OnCell: func(cr experiments.CellResult) {
			_ = experiments.WriteCellResult(os.Stdout, cr)
		},
	})
	// The grid keeps running healthy cells after a failure or cancellation,
	// so write whatever completed before propagating the error.
	return errors.Join(err, writeArtifacts(jsonDir, deterministic, opts, cells, suffix))
}

// runHeadline executes the perf-baseline grid and writes BENCH_headline.json
// (with wall-clock data unless -deterministic) into jsonDir. When against
// names a recorded baseline, the total wall time is compared and a warning
// is printed on >20% regression — the exit code stays 0, making the CI
// bench job soft-fail by construction.
func runHeadline(ctx context.Context, opts experiments.Options, jsonDir string, deterministic bool, against string) error {
	if jsonDir == "" {
		jsonDir = "."
	}
	start := time.Now()
	cells, err := experiments.RunGrid(ctx, experiments.HeadlineGrid(opts), experiments.Pool{
		Workers: opts.Workers,
		OnCell: func(cr experiments.CellResult) {
			_ = experiments.WriteCellResult(os.Stderr, cr)
		},
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	a := experiments.HeadlineArtifact(opts, cells)
	var totalMS float64
	for _, cr := range cells {
		totalMS += float64(cr.Elapsed.Microseconds()) / 1e3
	}
	fmt.Printf("headline grid: %d cells, %.0fms training wall clock (%v elapsed)\n", len(a.Cells), totalMS, elapsed.Round(time.Millisecond))

	// Compare before any stripping so -deterministic and -against compose.
	if against != "" {
		baseline, err := experiments.ReadFile[experiments.Artifact](against)
		if err != nil {
			return fmt.Errorf("baseline %s: %w", against, err)
		}
		_, regressed, summary, err := experiments.CompareWallClock(baseline, a, 0.20)
		if err != nil {
			return fmt.Errorf("baseline %s: %w", against, err)
		}
		fmt.Println(summary)
		if regressed {
			// GitHub Actions renders ::warning:: lines as annotations; the
			// job itself stays green (soft fail).
			fmt.Printf("::warning title=headline bench regression::%s exceeds the +20%% budget vs %s\n", summary, against)
		}
	}

	if deterministic {
		a.StripTiming()
	}
	if err := os.MkdirAll(jsonDir, 0o755); err != nil {
		return err
	}
	path, err := experiments.WriteFile(jsonDir, a.Name, a)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// writeHeapProfile captures an end-of-run heap profile after a final GC so
// live-object numbers are stable.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

// parseCellFilter validates and compiles comma-separated
// benchmark/technique/seed patterns (each component may be *).
func parseCellFilter(spec string, opts experiments.Options) (func(experiments.Cell) bool, error) {
	type pattern struct {
		bench, tech string
		seed        uint64
		anySeed     bool
	}
	var pats []pattern
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		fields := strings.Split(part, "/")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad -cell pattern %q: want benchmark/technique/seed (use * as wildcard)%s", part, nameHint())
		}
		p := pattern{bench: fields[0], tech: fields[1]}
		if p.bench != "*" {
			if _, err := experiments.BenchmarkByName(p.bench); err != nil {
				return nil, fmt.Errorf("%w%s", err, nameHint())
			}
		}
		if p.tech != "*" {
			tf, err := experiments.TechniqueByName(opts, p.tech)
			if err != nil {
				return nil, fmt.Errorf("%w%s", err, nameHint())
			}
			// Match on the resolved display name so normalized forms
			// (e.g. "fedprox@default" → "fedprox") still hit their cells.
			p.tech = tf.Name
		}
		if fields[2] == "*" {
			p.anySeed = true
		} else {
			seed, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad seed in -cell pattern %q: %w", part, err)
			}
			p.seed = seed
		}
		pats = append(pats, p)
	}
	return func(c experiments.Cell) bool {
		for _, p := range pats {
			if p.bench != "*" && p.bench != c.Benchmark.Name {
				continue
			}
			if p.tech != "*" && p.tech != c.Technique.Name {
				continue
			}
			if !p.anySeed && p.seed != c.Seed {
				continue
			}
			return true
		}
		return false
	}, nil
}

// writeArtifacts serializes finished cells as one BENCH_<benchmark>.json
// per benchmark under dir (no-op when dir is empty). suffix is appended to
// every artifact name (policy sweeps write BENCH_<benchmark>-policies.json
// so they never clobber the standard artifacts).
func writeArtifacts(dir string, deterministic bool, opts experiments.Options, cells []experiments.CellResult, suffix string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range experiments.ArtifactsFromCells(opts, cells) {
		a.Name += suffix
		if deterministic {
			a.StripTiming()
		}
		path, err := experiments.WriteFile(dir, a.Name, a)
		if err != nil {
			return err
		}
		// Stderr, like per-cell progress: stdout stays pure table output.
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}

// comparisonRun caches one benchmark's comparison together with its raw
// grid cells (the cells carry per-cell timing for artifacts).
type comparisonRun struct {
	cmp   *experiments.Comparison
	cells []experiments.CellResult
}

// compareCached runs (or reuses) the technique comparison for a benchmark
// on the grid engine (the standard five methods, or the policy-swept set
// under -policy); figure experiments share table runs and the artifact for
// each benchmark is written at most once.
func compareCached(ctx context.Context, name string, rc runConfig, cache map[string]*comparisonRun) (*experiments.Comparison, error) {
	if c, ok := cache[name]; ok {
		return c.cmp, nil
	}
	b, err := experiments.BenchmarkByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w%s", err, nameHint())
	}
	pool := experiments.Pool{
		Workers: rc.opts.Workers,
		OnCell: func(cr experiments.CellResult) {
			// Progress goes to stderr so stdout stays pure table output.
			_ = experiments.WriteCellResult(os.Stderr, cr)
		},
	}
	cmp, cells, err := experiments.CompareGrid(ctx, b, rc.opts, pool, rc.techniques...)
	// Even a failed comparison writes the cells that did complete: long
	// -paper runs must not lose finished training to one bad cell.
	if werr := writeArtifacts(rc.jsonDir, rc.deterministic, rc.opts, cells, rc.suffix); werr != nil {
		return nil, errors.Join(err, werr)
	}
	if err != nil {
		return nil, err
	}
	cache[name] = &comparisonRun{cmp: cmp, cells: cells}
	return cmp, nil
}

func runExperiment(ctx context.Context, id string, rc runConfig, cache map[string]*comparisonRun) error {
	table := func(name string) error {
		c, err := compareCached(ctx, name, rc, cache)
		if err != nil {
			return err
		}
		if err := experiments.WriteTable(os.Stdout, c); err != nil {
			return err
		}
		return experiments.WriteSummary(os.Stdout, c)
	}
	figure := func(names []string, write func(*experiments.Comparison) error) error {
		for _, name := range names {
			c, err := compareCached(ctx, name, rc, cache)
			if err != nil {
				return err
			}
			if err := write(c); err != nil {
				return err
			}
		}
		return nil
	}
	switch id {
	case "table1-fmow":
		return table("fmow")
	case "table1-cifar":
		return table("cifar10c")
	case "table2-tinyimagenet":
		return table("tinyimagenetc")
	case "table2-femnist":
		return table("femnist")
	case "table2-fashion":
		return table("fashionmnist")
	case "fig3":
		return figure([]string{"fmow", "tinyimagenetc", "cifar10c"}, func(c *experiments.Comparison) error {
			return experiments.WriteConvergence(os.Stdout, c)
		})
	case "fig4":
		return figure([]string{"femnist", "fashionmnist"}, func(c *experiments.Comparison) error {
			return experiments.WriteConvergence(os.Stdout, c)
		})
	case "fig5":
		return figure([]string{"fmow", "tinyimagenetc", "cifar10c"}, func(c *experiments.Comparison) error {
			return experiments.WriteMaxAccuracy(os.Stdout, c)
		})
	case "fig6":
		return figure([]string{"femnist", "fashionmnist"}, func(c *experiments.Comparison) error {
			return experiments.WriteMaxAccuracy(os.Stdout, c)
		})
	case "fig7":
		return figure([]string{"fmow", "tinyimagenetc", "cifar10c"}, func(c *experiments.Comparison) error {
			return experiments.WriteExpertDistribution(os.Stdout, c, rc.distributionTechnique())
		})
	case "fig8":
		return figure([]string{"femnist", "fashionmnist"}, func(c *experiments.Comparison) error {
			return experiments.WriteExpertDistribution(os.Stdout, c, rc.distributionTechnique())
		})
	case "overheads":
		return overheads(os.Stdout)
	default:
		return fmt.Errorf("unknown experiment %q; valid ids: %s, all", id, strings.Join(experimentIDs, ", "))
	}
}

// overheads measures the §7 aggregator-side costs on ResNet-50-scale
// statistics: 200 parties, 2048-d embeddings.
func overheads(w io.Writer) error {
	const (
		parties = 200
		dim     = 2048
		sample  = 64
	)
	rng := tensor.NewRNG(1)
	fmt.Fprintf(w, "overheads (parties=%d, embedding dim=%d)\n", parties, dim)

	// MMD drift detection per party (sample×sample kernel).
	xs := make([]tensor.Vector, sample)
	ys := make([]tensor.Vector, sample)
	for i := range xs {
		xs[i] = rng.NormVec(dim, 0, 1)
		ys[i] = rng.NormVec(dim, 0.5, 1)
	}
	start := time.Now()
	if _, err := stats.MMD(xs, ys, stats.RBFKernel{Gamma: 0.001}); err != nil {
		return err
	}
	fmt.Fprintf(w, "  MMD drift detection (%dx%d, %d-d): %v\n", sample, sample, dim, time.Since(start))

	// Clustering 200 parties' latent representations.
	points := make([]tensor.Vector, parties)
	for i := range points {
		points[i] = rng.NormVec(dim, float64(i%4), 1)
	}
	start = time.Now()
	if _, err := cluster.SelectK(points, 6, cluster.Config{}, rng); err != nil {
		return err
	}
	fmt.Fprintf(w, "  clustering %d parties (%d-d): %v\n", parties, dim, time.Since(start))

	// Expert assignment for 6 clusters over 5 experts.
	clients := make([]facility.Client, 6)
	for i := range clients {
		clients[i] = facility.Client{ID: i, Embedding: rng.NormVec(dim, 0, 1), LabelHist: stats.Uniform(10), Weight: 30}
	}
	existing := make([]facility.Facility, 5)
	for i := range existing {
		existing[i] = facility.Facility{ID: i, Signature: rng.NormVec(dim, 0, 1)}
	}
	start = time.Now()
	if _, err := facility.SolveGreedy(&facility.Instance{
		Clients: clients, Existing: existing, NewCost: 1, LabelWeight: 0.3,
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "  expert assignment (6 clusters x 5 experts): %v\n", time.Since(start))

	// Memory footprint estimates (the paper's §7 accounting).
	fmt.Fprintf(w, "  memory: expert centroids 5x%d floats = %d KB; party map %d ints = %.1f KB\n",
		dim, 5*dim*8/1024, parties, float64(parties*8)/1024)
	return nil
}
