package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/adapt"
	"repro/internal/dataset"
	"repro/internal/monitor"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/shiftex"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// The checkpoint recipe: EXPERIMENTS.md's seed-42 aggregator run
// (-load 8 -windows 4 -rounds 6 -participants 4 -samples 40 -test 20
// -seed 42) with hidden widths 128,64, trained in process over a
// LocalTransport. The tiny checkpoint is the committed 16,8 one.
const (
	recipeSeed         = 42
	recipeParties      = 8
	recipeWindows      = 4
	recipeRounds       = 6
	recipeParticipants = 4
	recipeSamples      = 40
	recipeTest         = 20
	tinyCheckpoint     = "internal/serve/testdata/checkpoint_tiny.json"
)

var wideHidden = []int{128, 64}

// buildWideCheckpoint trains the 128-wide checkpoint. policy names the
// adaptation policy the run executes; the traced run passes the timed
// wrapper of the default stages, which decides identically.
func buildWideCheckpoint(policy string) (*service.Checkpoint, error) {
	spec := service.ScenarioSpec(recipeParties, recipeSamples, recipeTest, recipeWindows)
	sc, err := dataset.BuildScenario(spec, dataset.DefaultShiftConfig(), recipeSeed)
	if err != nil {
		return nil, err
	}
	tr, err := service.LocalTransportForScenario(sc)
	if err != nil {
		return nil, err
	}
	cfg := shiftex.DefaultConfig()
	cfg.RoundsPerWindow = recipeRounds
	cfg.BootstrapRounds = recipeRounds
	cfg.ParticipantsPerRound = recipeParticipants
	cfg.Train.Epochs = 2
	cfg.Train.LR = 0.02
	opts := service.Options{
		Shiftex:    cfg,
		Policy:     policy,
		Arch:       service.DefaultArch(spec, wideHidden),
		NumClasses: spec.NumClasses,
		Windows:    recipeWindows,
		Seed:       recipeSeed,
		// shiftex-aggregator's flag defaults.
		Fanout: service.FanoutConfig{Workers: 4, Timeout: time.Minute, Retries: 1, Quorum: 0.5},
	}
	rt, err := service.NewRuntime(tr, opts)
	if err != nil {
		return nil, err
	}
	for w := 0; w < recipeWindows; w++ {
		if _, err := rt.RunWindow(w); err != nil {
			return nil, err
		}
	}
	agg := rt.Aggregator()
	return &service.Checkpoint{
		SchemaVersion: service.CheckpointSchemaVersion,
		Seed:          recipeSeed,
		Arch:          opts.Arch,
		NumClasses:    opts.NumClasses,
		NumWindows:    recipeWindows,
		WindowsDone:   recipeWindows,
		Policy:        adapt.DefaultPolicyName,
		PolicyVersion: adapt.PolicyVersion,
		Config:        cfg,
		Aggregator:    agg.ExportState(),
		Reports:       rt.Reports(),
	}, nil
}

// serveConfig is the configuration shiftex-serve builds when given no
// flags: one worker per core, batches of up to 32 with a 2 ms delay, a
// 4096-deep admission queue, a 4096-entry route cache, route radius ε×4,
// a span tracer and, when mon is set, the drift monitor.
func serveConfig(mon *monitor.Monitor) serve.Config {
	return serve.Config{
		MaxBatch:          32,
		MaxDelay:          2 * time.Millisecond,
		QueueDepth:        4096,
		CacheSize:         4096,
		RouteEpsilonScale: 4,
		Tracer:            telemetry.NewTracer("serve", telemetry.DefaultRingSize),
		Monitor:           mon,
	}
}

// newMonitoredServer starts a server on a fresh snapshot of cp with its
// own default monitor.
func newMonitoredServer(cp *service.Checkpoint) (*serve.Server, *monitor.Monitor, error) {
	snap, err := serve.SnapshotFromCheckpoint(cp)
	if err != nil {
		return nil, nil, err
	}
	mon := monitor.New(monitor.Config{})
	srv, err := serve.NewServer(snap, serveConfig(mon))
	if err != nil {
		mon.Close()
		return nil, nil, err
	}
	return srv, mon, nil
}

// item is one base request: a scenario test example with its party's
// checkpointed expert assignment.
type item struct {
	x        tensor.Vector
	y        int
	party    int
	assigned int
}

// testStream regenerates the checkpoint's scenario test stream (both
// checkpoints come from runs with the recipe's scenario shape).
func testStream(cp *service.Checkpoint) ([]item, error) {
	ws, err := serve.Workload(cp, serve.LoadConfig{SamplesPerParty: recipeSamples, TestPerParty: recipeTest})
	if err != nil {
		return nil, err
	}
	out := make([]item, len(ws))
	for i, w := range ws {
		out[i] = item{x: w.X, y: w.Y, party: w.Party, assigned: w.Assigned}
	}
	return out, nil
}

// shifted returns the frost/5 replica of a stream.
func shifted(items []item, seed uint64) []item {
	corr := dataset.Corruption{Kind: dataset.CorruptFrost, Severity: 5}
	rng := tensor.NewRNG(seed ^ 0xd21f7)
	out := make([]item, len(items))
	for i, it := range items {
		it.x = corr.Apply(it.x, rng)
		out[i] = it
	}
	return out
}

// inputs derives request i of a stream: base example order[i%n] plus
// Gaussian jitter drawn from (seed, i), so no two requests of a run share
// an input and every request misses the route cache on content.
//
// With a hot set, requests 0..hot-1 are the hot inputs themselves (a
// warm-up issues them once), and of every later request a hotShare
// (chosen by a hash of the seed and the request index) reuses one of them;
// the rest stay fresh.
type inputs struct {
	base     []item
	order    []int
	seed     uint64
	hot      int
	hotShare float64
}

const jitterSigma = 0.01

func newInputs(base []item, seed uint64) *inputs {
	return &inputs{base: base, order: tensor.NewRNG(seed).Perm(len(base)), seed: seed}
}

// key maps request i to its input: hot inputs are 0..hot-1, fresh ones
// hot+i.
func (in *inputs) key(i int) int {
	if in.hot == 0 || i < in.hot {
		return i
	}
	h, u := nextUnit(in.seed ^ 0x407 ^ uint64(i)*0xbf58476d1ce4e5b9)
	if u < in.hotShare {
		return int(h % uint64(in.hot))
	}
	return in.hot + i
}

func (in *inputs) item(i int) *item { return &in.base[in.order[in.key(i)%len(in.order)]] }

// fill writes request i's input into x (len(x) must equal the input width).
func (in *inputs) fill(i int, x tensor.Vector) {
	k := in.key(i)
	src := in.base[in.order[k%len(in.order)]].x
	h := splitmix(in.seed ^ uint64(k)*0x9e3779b97f4a7c15)
	for k := range x {
		var u1, u2 float64
		h, u1 = nextUnit(h)
		h, u2 = nextUnit(h)
		x[k] = src[k] + jitterSigma*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextUnit advances h and returns a uniform in (0,1].
func nextUnit(h uint64) (uint64, float64) {
	h = splitmix(h)
	return h, (float64(h>>11) + 1) / (1 << 53)
}

// reference is the single-request answer for x on snap: Snapshot.Route
// plus the routed expert's MLP.
func reference(snap *serve.Snapshot, ws *nn.Workspace, x tensor.Vector) (class, expertID int, err error) {
	idx, _, err := snap.Route(ws, x)
	if err != nil {
		return 0, 0, err
	}
	e := snap.Experts()[idx]
	class, err = e.Model.PredictWS(ws, x)
	return class, e.ID, err
}

func loadTiny(root string) (*service.Checkpoint, error) {
	cp, err := service.LoadCheckpoint(root + "/" + tinyCheckpoint)
	if err != nil {
		return nil, fmt.Errorf("load tiny checkpoint: %w", err)
	}
	return cp, nil
}
