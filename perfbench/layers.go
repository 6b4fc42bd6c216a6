package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/detect"
	"repro/internal/facility"
	"repro/internal/fl"
	"repro/internal/monitor"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/shiftex"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Per-layer metrics that are not on a workload's path read 0.
var (
	httpLayers    = []string{"serve.http_us", "serve.http_delta_us"}
	gatewayLayers = []string{"gateway.http_us", "gateway.predict_us", "gateway.ingress_delta_us",
		"gateway.upstream_delta_us", "gateway.chain_delta_us", "gateway.upstream_dials_per_1k",
		"gateway.session_hit_frac", "gateway.failovers"}
	windowLayers = []string{"continual.build_stats_ms", "shiftex.restore_ms", "shiftex.self_ms",
		"adapt.detect_ms", "adapt.calibrate_ms", "adapt.assign_ms", "adapt.plan_ms", "adapt.consolidate_ms",
		"fl.round_ms", "fl.rounds", "fl.eval_ms", "fl.finetune_ms",
		"adapt.new_experts", "adapt.merged", "adapt.shifted_parties", "monitor.detect_lag_samples"}
)

func notOnPath(r *run, groups ...[]string) {
	for _, g := range groups {
		for _, name := range g {
			r.set(name, 0)
		}
	}
}

// replayL0 replays the batch sizes the serve layer formed (the batch-size
// histogram's bucket bounds, capped at MaxBatch) through the snapshot's
// kernels: the encoder's EmbedBatchWS, shiftex.MatchSignatures per row and
// PredictBatchWS per routed expert group. It sets the nn.* and
// shiftex.match_us metrics and returns the L0 time per prediction in µs.
func replayL0(r *run, cp *service.Checkpoint, snap *serve.Snapshot, in *inputs, bounds, hist []uint64, batchMean float64) (float64, error) {
	const maxBatch, budget = 32, 20000 // predictions replayed
	enc, err := nn.NewMLP(cp.Arch, tensor.NewRNG(1))
	if err != nil {
		return 0, err
	}
	if err := enc.SetParams(cp.Aggregator.Encoder); err != nil {
		return 0, err
	}
	experts := snap.Experts()
	memories := make([]tensor.Vector, len(experts))
	for i, e := range experts {
		memories[i] = e.Memory
	}
	var total uint64
	for i, c := range hist {
		total += c * min(bucketSize(bounds, i), maxBatch)
	}
	if total == 0 {
		return 0, nil
	}
	bw := nn.NewBatchWorkspaceDims(cp.Arch, maxBatch)
	xs := make([]tensor.Vector, maxBatch)
	for i := range xs {
		xs[i] = make(tensor.Vector, cp.Arch[0])
	}
	groups := make([][]tensor.Vector, len(experts))
	classes := make([]int, maxBatch)
	req := 1 << 40 // an index range the load phases never reach
	var embedNs, matchNs, predictNs float64
	var embeds, matches, predicts, preds int
	for i, c := range hist {
		size := int(min(bucketSize(bounds, i), maxBatch))
		n := int(float64(c) * float64(budget) / float64(total))
		for b := 0; b < max(n, 1) && c > 0; b++ {
			batch := xs[:size]
			for k := range batch {
				in.fill(req, batch[k])
				req++
			}
			t0 := time.Now()
			emb, err := enc.EmbedBatchWS(bw, batch)
			if err != nil {
				return 0, err
			}
			t1 := time.Now()
			for g := range groups {
				groups[g] = groups[g][:0]
			}
			for k := range batch {
				best, _, ok := shiftex.MatchSignatures(emb.Row(k), memories)
				if !ok {
					best = 0
				}
				groups[best] = append(groups[best], batch[k])
			}
			t2 := time.Now()
			for g, gx := range groups {
				if len(gx) == 0 {
					continue
				}
				if err := experts[g].Model.PredictBatchWS(bw, gx, classes[:len(gx)]); err != nil {
					return 0, err
				}
				predicts++
			}
			t3 := time.Now()
			embedNs += float64(t1.Sub(t0))
			matchNs += float64(t2.Sub(t1))
			predictNs += float64(t3.Sub(t2))
			embeds++
			matches++
			preds += size
		}
	}
	r.set("nn.embed_batch_us", embedNs/float64(embeds)/1e3)
	r.set("shiftex.match_us", matchNs/float64(matches)/1e3)
	r.set("nn.predict_batch_us", predictNs/float64(predicts)/1e3)
	flops, bytes := kernelCost(cp.Arch, len(experts), batchMean)
	r.set("nn.flops_per_pred", flops)
	r.set("nn.bytes_per_pred", bytes)
	r.note("nn.flops_per_pred and nn.bytes_per_pred are computed from tensor shapes (arch %v, %d experts, mean batch %.2f), not measured",
		cp.Arch, len(experts), batchMean)
	l0 := (embedNs + matchNs + predictNs) / float64(preds) / 1e3
	r.set("nn.l0_us_per_pred", l0)
	return l0, nil
}

func bucketSize(bounds []uint64, i int) uint64 {
	if i < len(bounds) {
		return bounds[i]
	}
	return 2 * bounds[len(bounds)-1]
}

// kernelCost counts one prediction's L0 work from tensor shapes: the
// encoder forward to the embedding, the memory scan, and the expert's full
// forward; bytes count float64 activations read and written plus weights
// read once per batch of batchMean rows.
func kernelCost(arch []int, experts int, batchMean float64) (flops, bytes float64) {
	var weights float64
	for l := 0; l+1 < len(arch); l++ {
		mac := float64(arch[l] * arch[l+1])
		layer := 2*mac + float64(arch[l+1])
		flops += layer // expert forward
		acts := float64(arch[l] + arch[l+1])
		bytes += 8 * acts
		weights += mac + float64(arch[l+1])
		if l+2 < len(arch) { // encoder stops at the embedding
			flops += layer
			bytes += 8 * acts
		}
	}
	emb := float64(arch[len(arch)-2])
	flops += 3 * emb * float64(experts)
	bytes += 8 * emb * float64(experts)
	bytes += 8 * 2 * weights / max(batchMean, 1)
	return flops, bytes
}

// monitorLayer times a Flush and a harvest on a live monitor and reads its
// counters.
func monitorLayer(r *run, mon *monitor.Monitor) {
	t0 := time.Now()
	mon.Flush()
	r.set("monitor.flush_ms", float64(time.Since(t0))/1e6)
	t0 = time.Now()
	mon.Sketches()
	r.set("monitor.harvest_ms", float64(time.Since(t0))/1e6)
	r.set("monitor.evals", float64(mon.Summary().Evals))
	r.set("monitor.dropped_frac", float64(mon.Dropped())/float64(max(mon.Teed(), 1)))
}

// swapCyclesLayer times model updates that need no training: rebuild a
// serving snapshot from the checkpoint state and hot-swap it into every
// server. It sets adapt_ms (per cycle), serve.snapshot_build_ms and
// serve.swap_ms (per server), each the 10th percentile of swapCycles.
// Cycles are spread over a few seconds, each from a collected heap: on a
// shared host a single cycle is bimodal (another tenant on the core slows
// it by half for a while), and a low percentile over cycles taken at many
// moments is the figure that does not flip between the modes.
func swapCyclesLayer(r *run, cp *service.Checkpoint, servers []*serve.Server) error {
	var cycles, builds, swaps []float64
	for k := 0; k < swapCycles; k++ {
		time.Sleep(swapGap)
		runtime.GC()
		c0 := time.Now()
		for _, srv := range servers {
			t0 := time.Now()
			snap, err := serve.SnapshotFromCheckpoint(cp)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if err := srv.Swap(snap); err != nil {
				return err
			}
			builds = append(builds, float64(t1.Sub(t0))/1e6)
			swaps = append(swaps, float64(time.Since(t1))/1e6)
		}
		cycles = append(cycles, float64(time.Since(c0))/1e6)
	}
	r.set("adapt_ms", quantile(cycles, 0.1))
	r.basis("adapt_ms", "10th percentile of %d rebuild+swap cycles", swapCycles)
	r.set("serve.snapshot_build_ms", quantile(builds, 0.1))
	r.set("serve.swap_ms", quantile(swaps, 0.1))
	return nil
}

// The timed policy wraps the default stages with spans. It decides
// exactly as the default policy; only the traced shift-adapt run uses it.
const timedPolicyName = "perfbench-timed"

// stageSpans routes the timed stages' spans: tr is nil outside traced
// runs, parent is the span the stage calls nest under, and prefix tells
// the checkpoint build's stage calls apart from the live windows'.
var stageSpans struct {
	tr     *tracer
	parent atomic.Uint64
	prefix atomic.Value // string
}

func stageSpan(name string) func() {
	tr := stageSpans.tr
	if tr == nil {
		return func() {}
	}
	prefix, _ := stageSpans.prefix.Load().(string)
	parent := stageSpans.parent.Load()
	id, start := tr.begin()
	return func() { tr.end(id, parent, prefix+name, start) }
}

type timedDetector struct{ adapt.ShiftDetector }

func (d timedDetector) Detect(st detect.PartyStats, th stats.Thresholds) (bool, bool) {
	defer stageSpan("adapt.detect")()
	return d.ShiftDetector.Detect(st, th)
}

type timedCalibrator struct{ adapt.Calibrator }

func (c timedCalibrator) Calibrate(anchor []detect.PartyStats, cfg stats.CalibrateConfig, eps float64, rng *tensor.RNG) (stats.Thresholds, float64, error) {
	defer stageSpan("adapt.calibrate")()
	return c.Calibrator.Calibrate(anchor, cfg, eps, rng)
}

type timedSolver struct{ adapt.AssignmentSolver }

func (s timedSolver) Solve(in *facility.Instance) (*facility.Assignment, error) {
	defer stageSpan("adapt.assign")()
	return s.AssignmentSolver.Solve(in)
}

type timedPlanner struct{ adapt.TrainingPlanner }

func (p timedPlanner) Plan(cohorts map[int][]int, hists []stats.Histogram, rng *tensor.RNG) (adapt.ParticipantSelector, error) {
	defer stageSpan("adapt.plan")()
	return p.TrainingPlanner.Plan(cohorts, hists, rng)
}

type timedConsolidator struct{ adapt.Consolidator }

func (c timedConsolidator) Consolidate(pool adapt.ExpertPool, arch []int, tau, eps float64, sizes map[int]int) (map[int]int, error) {
	defer stageSpan("adapt.consolidate")()
	return c.Consolidator.Consolidate(pool, arch, tau, eps, sizes)
}

func init() {
	adapt.RegisterPolicy(adapt.PolicyFactory{
		Name:        timedPolicyName,
		Description: "the default stages, each call recorded as a benchmark span",
		New: func() (*adapt.Policy, error) {
			p, err := adapt.NewPolicy(adapt.DefaultPolicyName)
			if err != nil {
				return nil, err
			}
			return &adapt.Policy{
				Detector:     timedDetector{p.Detector},
				Calibrator:   timedCalibrator{p.Calibrator},
				Solver:       timedSolver{p.Solver},
				Planner:      timedPlanner{p.Planner},
				Consolidator: timedConsolidator{p.Consolidator},
			}, nil
		},
	})
}

// timedFleet records the federated-learning calls a window makes.
type timedFleet struct{ shiftex.Fleet }

func (f timedFleet) Round(params tensor.Vector, selected []int, cfg fl.TrainConfig) (tensor.Vector, []fl.Update, error) {
	defer stageSpan("fl.round")()
	return f.Fleet.Round(params, selected, cfg)
}

func (f timedFleet) EvalAssignment(paramsFor func(partyID int) tensor.Vector) (float64, error) {
	defer stageSpan("fl.eval")()
	return f.Fleet.EvalAssignment(paramsFor)
}

func (f timedFleet) LocalFineTune(partyID int, params tensor.Vector, cfg fl.TrainConfig) (tensor.Vector, error) {
	defer stageSpan("fl.finetune")()
	return f.Fleet.LocalFineTune(partyID, params, cfg)
}
