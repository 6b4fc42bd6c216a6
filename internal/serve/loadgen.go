package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// LoadConfig tunes the load driver.
type LoadConfig struct {
	// TargetQPS paces requests at this aggregate rate; 0 runs open loop
	// (as fast as the target accepts).
	TargetQPS float64
	// Concurrency is the number of client goroutines (default: 2 per core).
	Concurrency int
	// Repeat is how many passes over the request stream to replay
	// (default 1). Later passes exercise the route caches.
	Repeat int
	// MaxDuration stops the run early when positive.
	MaxDuration time.Duration
	// SamplesPerParty / TestPerParty reproduce the scenario shape of the
	// training run (the checkpoint pins seed and windows but not data
	// shape); defaults match cmd/shiftex-aggregator's defaults (120/60).
	SamplesPerParty int
	TestPerParty    int
	// SwapMidLoad hot-swaps a freshly built snapshot of the same
	// checkpoint halfway through an in-process run (RunServerLoad),
	// exercising the zero-drop swap path under live traffic.
	SwapMidLoad bool
	// ShiftAt, in (0, 1), injects a covariate regime change into an
	// in-process run (RunServerLoad) after that fraction of it: requests
	// claimed from then on replay ShiftCorruption-transformed inputs.
	// Zero disables injection.
	ShiftAt float64
	// ShiftCorruption is the transform injected at the shift point; the
	// identity (zero value) selects DefaultShift.
	ShiftCorruption dataset.Corruption
	// Tracer, when set, roots one loadgen.predict span per generated
	// request, which in turn makes the target record its own spans under
	// it. Nil generates untraced load.
	Tracer *telemetry.Tracer
}

// WithDefaults resolves the zero-valued fields to their defaults.
func (c LoadConfig) WithDefaults() LoadConfig {
	if c.Concurrency <= 0 {
		c.Concurrency = 2 * runtime.GOMAXPROCS(0)
	}
	if c.Repeat <= 0 {
		c.Repeat = 1
	}
	if c.SamplesPerParty <= 0 {
		c.SamplesPerParty = 120
	}
	if c.TestPerParty <= 0 {
		c.TestPerParty = 60
	}
	return c
}

// DefaultShift is the covariate shift injected when none is chosen:
// frost/5 is fully deterministic per input, so replayed passes of the
// shifted stream are identical.
var DefaultShift = dataset.Corruption{Kind: dataset.CorruptFrost, Severity: 5}

// ErrTooLate reports that the stream drained before a mid-load event (a
// hot swap, a shift injection, a replica kill) could fire: the run is too
// short to serve as evidence for it. Lengthen it (higher Repeat or a
// MaxDuration) instead of trusting the artifact.
var ErrTooLate = errors.New("serve: load finished before a mid-load event could fire")

// Event is an action RunLoad fires exactly once, from the first client
// goroutine to claim a request at or past fraction At of the stream (or,
// with a MaxDuration, to complete a request after At of it has elapsed,
// whichever comes first), before that request is issued.
type Event struct {
	// At is the fraction of the run, in (0, 1).
	At float64
	// Fire, when set, is the action; its error fails the run.
	Fire func() error
	// Stream, when set, replaces the request stream from this point on.
	Stream []WorkItem
}

// Answer is one served prediction as a Target reports it.
type Answer struct {
	Class   int
	Expert  int
	Matched bool
	// Model and Replica name what served the request, for targets that
	// spread load across several (empty otherwise).
	Model, Replica string
	// Cached reports an answer from a gateway session cache.
	Cached bool
	// Retries counts extra attempts issued for this request; Rejections
	// counts the overload refusals (429/503) observed among the attempts.
	// Both are reported on failure too.
	Retries, Rejections int
}

// Target is what RunLoad drives: an in-process server (Server.Target) or
// a gateway over HTTP. Predict serves one request. seq is the request's
// position in the run, t0 the instant the driver started timing it, and
// root the request's root span (the zero Span when untraced). It returns
// ErrOverloaded when the target refused the request for lack of capacity.
type Target interface {
	Predict(ctx context.Context, seq int64, it *WorkItem, root *telemetry.Span, t0 time.Time) (Answer, error)
}

// Tally counts served predictions and scores them against the stream's
// ground truth.
type Tally struct {
	Requests         uint64 // completed predictions
	Correct          uint64 // predicted the true class
	AssignedKnown    uint64 // the party has a recorded expert assignment
	RoutedToAssigned uint64 // ... and the request was routed to that expert
	Matched          uint64 // routed by a latent-memory match, not the fallback
}

func (t *Tally) add(it *WorkItem, a *Answer) {
	t.Requests++
	if a.Class == it.Y {
		t.Correct++
	}
	if a.Matched {
		t.Matched++
	}
	if it.Assigned >= 0 {
		t.AssignedKnown++
		if a.Expert == it.Assigned {
			t.RoutedToAssigned++
		}
	}
}

func (t *Tally) merge(o *Tally) {
	t.Requests += o.Requests
	t.Correct += o.Correct
	t.AssignedKnown += o.AssignedKnown
	t.RoutedToAssigned += o.RoutedToAssigned
	t.Matched += o.Matched
}

func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Accuracy returns the fraction of completed predictions that were correct.
func (t Tally) Accuracy() float64 { return ratio(t.Correct, t.Requests) }

// RoutingAccuracy returns the fraction of assignment-known requests routed
// to the expert the training run assigned to the originating party.
func (t Tally) RoutingAccuracy() float64 { return ratio(t.RoutedToAssigned, t.AssignedKnown) }

// MatchedFraction returns the fraction of completed predictions routed by
// a latent-memory match.
func (t Tally) MatchedFraction() float64 { return ratio(t.Matched, t.Requests) }

// Group is one named slice of a run: a covariate regime, or a model.
type Group struct {
	Name string
	Tally
}

// LoadResult aggregates one load run.
type LoadResult struct {
	Tally
	Errors   uint64
	Rejected uint64 // overload refusals, including those later retried
	Retried  uint64 // extra attempts issued
	Cached   uint64 // answers served from a gateway session cache
	Duration time.Duration
	LatencyP50, LatencyP90,
	LatencyP99, LatencyMax time.Duration
	Regimes   []Group // by WorkItem.Regime, sorted by name
	Models    []Group // by Answer.Model, sorted by name
	ByReplica map[string]uint64

	// In-process runs (RunServerLoad) only: the server's counters at run
	// end and the shift-injection record. ShiftTeedSamples is the
	// monitor's cumulative teed-sample counter at the injection instant,
	// the zero point detection latency is measured from.
	Server           MetricsSnapshot
	ShiftInjected    bool
	ShiftTeedSamples uint64
}

// Throughput returns completed predictions per second.
func (r *LoadResult) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Duration.Seconds()
}

// Print writes the run's headline and per-regime lines.
func (r *LoadResult) Print(w io.Writer) {
	fmt.Fprintf(w, "loadgen: %d predictions in %.2fs (%.0f/s), p50=%s p90=%s p99=%s, accuracy=%.3f routing=%.3f\n",
		r.Requests, r.Duration.Seconds(), r.Throughput(),
		r.LatencyP50, r.LatencyP90, r.LatencyP99, r.Accuracy(), r.RoutingAccuracy())
	for _, g := range r.Regimes {
		fmt.Fprintf(w, "  regime %-10s %6d requests  accuracy=%.3f  routed-to-assigned=%.3f  matched=%.3f\n",
			g.Name, g.Requests, g.Accuracy(), g.RoutingAccuracy(), g.MatchedFraction())
	}
}

// WorkItem is one replayable request with its scoring ground truth.
type WorkItem struct {
	X        tensor.Vector
	Y        int
	Party    int
	Assigned int // expert ID the training run assigned to Party; -1 unknown
	Regime   string
}

// Workload regenerates the checkpoint run's scenario and extracts the
// adapted window's test stream — the mixture of clean and injected-shift
// regimes the snapshot's experts were trained for. Items interleave across
// parties so consecutive requests hit different experts: every batch splits
// into several expert groups, and at the gateway this is the worst case for
// consistent-hash locality.
func Workload(cp *service.Checkpoint, cfg LoadConfig) ([]WorkItem, error) {
	cfg = cfg.WithDefaults()
	parties := len(cp.Aggregator.Assignment)
	if parties == 0 {
		return nil, errors.New("serve: checkpoint has no party assignments")
	}
	spec := service.ScenarioSpec(parties, cfg.SamplesPerParty, cfg.TestPerParty, cp.NumWindows)
	sc, err := dataset.BuildScenario(spec, dataset.DefaultShiftConfig(), cp.Seed)
	if err != nil {
		return nil, fmt.Errorf("serve: regenerate scenario: %w", err)
	}
	widx := cp.WindowsDone - 1
	if widx >= len(sc.Windows) {
		widx = len(sc.Windows) - 1
	}
	row := sc.Windows[widx]

	var items []WorkItem
	for i := 0; i < cfg.TestPerParty; i++ {
		for p, pw := range row {
			if i >= len(pw.Test) {
				continue
			}
			assigned := -1
			if id, ok := cp.Aggregator.Assignment[p]; ok {
				assigned = id
			}
			items = append(items, WorkItem{
				X:        pw.Test[i].X,
				Y:        pw.Test[i].Y,
				Party:    p,
				Assigned: assigned,
				Regime:   pw.Regime.Corruption.String(),
			})
		}
	}
	if len(items) == 0 {
		return nil, errors.New("serve: scenario window has no test examples")
	}
	return items, nil
}

// ShiftItems returns the shifted replica of a stream: every input
// transformed by corr, every regime renamed "shifted:<corr>". The
// transform's randomness derives from seed alone, so every pass built
// from the same checkpoint injects the identical regime.
func ShiftItems(items []WorkItem, corr dataset.Corruption, seed uint64) []WorkItem {
	rng := tensor.NewRNG(seed ^ 0xd21f7)
	regime := "shifted:" + corr.String()
	out := make([]WorkItem, len(items))
	for i, it := range items {
		it.X = corr.Apply(it.X, rng)
		it.Regime = regime
		out[i] = it
	}
	return out
}

// firing is one Event's trigger state inside a run.
type firing struct {
	threshold int64     // request index at which the event is due
	when      time.Time // instant at which it is due (zero: count only)
	done      atomic.Bool
}

// due claims the event for the caller once it is due; exactly one caller
// ever gets true.
func (f *firing) due(i int64, now time.Time) bool {
	return !f.done.Load() &&
		(i >= f.threshold || (!f.when.IsZero() && now.After(f.when))) &&
		f.done.CompareAndSwap(false, true)
}

// shard is one client goroutine's private share of the run's accounting,
// merged into the result once when the goroutine exits.
type shard struct {
	res      LoadResult
	regimes  map[string]*Tally
	models   map[string]*Tally
	replicas map[string]uint64
	lats     []time.Duration
	fireErr  error
}

func (s *shard) record(it *WorkItem, a *Answer, err error, lat time.Duration) {
	s.res.Retried += uint64(a.Retries)
	s.res.Rejected += uint64(a.Rejections)
	switch {
	case errors.Is(err, ErrOverloaded):
		s.res.Rejected++
		return
	case err != nil:
		s.res.Errors++
		return
	}
	s.lats = append(s.lats, lat)
	s.res.add(it, a)
	groupOf(s.regimes, it.Regime).add(it, a)
	if a.Model != "" {
		groupOf(s.models, a.Model).add(it, a)
	}
	if a.Replica != "" {
		s.replicas[a.Replica]++
	}
	if a.Cached {
		s.res.Cached++
	}
}

func groupOf(m map[string]*Tally, name string) *Tally {
	t := m[name]
	if t == nil {
		t = &Tally{}
		m[name] = t
	}
	return t
}

func newShard() *shard {
	return &shard{regimes: map[string]*Tally{}, models: map[string]*Tally{}, replicas: map[string]uint64{}}
}

func (s *shard) merge(o *shard) {
	s.res.merge(&o.res.Tally)
	s.res.Errors += o.res.Errors
	s.res.Rejected += o.res.Rejected
	s.res.Retried += o.res.Retried
	s.res.Cached += o.res.Cached
	for k, v := range o.regimes {
		groupOf(s.regimes, k).merge(v)
	}
	for k, v := range o.models {
		groupOf(s.models, k).merge(v)
	}
	for k, v := range o.replicas {
		s.replicas[k] += v
	}
	s.lats = append(s.lats, o.lats...)
	if s.fireErr == nil {
		s.fireErr = o.fireErr
	}
}

func sortedGroups(m map[string]*Tally) []Group {
	out := make([]Group, 0, len(m))
	for k, t := range m {
		out = append(out, Group{Name: k, Tally: *t})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RunLoad is the load driver: cfg.Concurrency client goroutines claim
// requests from items (replayed cfg.Repeat times) and issue them against
// t at cfg.TargetQPS (0 = open loop) until the stream drains, ctx is
// cancelled or cfg.MaxDuration elapses. events fire mid-load at their
// fractions of the run; one that never fires fails the run with
// ErrTooLate (unless ctx was cancelled).
func RunLoad(ctx context.Context, t Target, items []WorkItem, cfg LoadConfig, events ...Event) (*LoadResult, error) {
	cfg = cfg.WithDefaults()
	if len(items) == 0 {
		return nil, errors.New("serve: empty request stream")
	}
	total := int64(len(items)) * int64(cfg.Repeat)
	start := time.Now()
	var deadline time.Time
	if cfg.MaxDuration > 0 {
		deadline = start.Add(cfg.MaxDuration)
	}
	interval := time.Duration(0)
	if cfg.TargetQPS > 0 {
		interval = time.Duration(float64(time.Second) / cfg.TargetQPS)
	}
	fires := make([]firing, len(events))
	for k, e := range events {
		if e.At <= 0 || e.At >= 1 {
			return nil, fmt.Errorf("serve: mid-load event fraction must be in (0,1), got %g", e.At)
		}
		fires[k].threshold = int64(e.At * float64(total))
		if cfg.MaxDuration > 0 {
			fires[k].when = start.Add(time.Duration(e.At * float64(cfg.MaxDuration)))
		}
	}

	var (
		next   atomic.Int64
		stream atomic.Pointer[[]WorkItem]
		wg     sync.WaitGroup
		mu     sync.Mutex
		all    = newShard()
	)
	stream.Store(&items)
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := newShard()
			// root is reused across iterations: End copies the record
			// into the tracer's ring, so the traced path allocates
			// nothing per request.
			var root telemetry.Span
			// The deadline and time-based events are checked against the
			// previous iteration's completion instant (t0 + lat) instead
			// of a fresh clock read: at batched-pipeline throughput an
			// extra time.Now per request is a measurable tax, and both
			// only need request-granularity precision.
			var now time.Time
			for {
				i := next.Add(1) - 1
				if i >= total || ctx.Err() != nil {
					break
				}
				if !deadline.IsZero() && !now.IsZero() && now.After(deadline) {
					break
				}
				for k := range fires {
					if !fires[k].due(i, now) {
						continue
					}
					if e := &events[k]; e.Fire != nil {
						if err := e.Fire(); err != nil && sh.fireErr == nil {
							sh.fireErr = err
						}
					}
					if s := events[k].Stream; s != nil {
						stream.Store(&s)
					}
				}
				if interval > 0 {
					if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
						time.Sleep(d)
					}
				}
				s := *stream.Load()
				it := &s[i%int64(len(s))]
				t0 := time.Now()
				cfg.Tracer.BeginAt(&root, "loadgen.predict", telemetry.SpanContext{}, t0)
				a, err := t.Predict(ctx, i, it, &root, t0)
				lat := time.Since(t0)
				now = t0.Add(lat)
				if cfg.Tracer != nil {
					root.SetError(err)
					root.EndAt(now)
				}
				sh.record(it, &a, err, lat)
			}
			mu.Lock()
			all.merge(sh)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if all.fireErr != nil {
		return nil, fmt.Errorf("serve: mid-load event: %w", all.fireErr)
	}
	for k := range fires {
		if !fires[k].done.Load() && ctx.Err() == nil {
			return nil, ErrTooLate
		}
	}

	out := &all.res
	out.Duration = elapsed
	out.Regimes = sortedGroups(all.regimes)
	out.Models = sortedGroups(all.models)
	out.ByReplica = all.replicas
	if lats := all.lats; len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) time.Duration { return lats[min(int(p*float64(len(lats))), len(lats)-1)] }
		out.LatencyP50, out.LatencyP90, out.LatencyP99 = q(0.50), q(0.90), q(0.99)
		out.LatencyMax = lats[len(lats)-1]
	}
	return out, nil
}

// serverTarget drives a Server in process on its zero-alloc path.
type serverTarget struct{ s *Server }

// Target returns the in-process load target for s.
func (s *Server) Target() Target { return serverTarget{s} }

// Predict sends the request with an uncancellable context: the driver checks
// ctx between requests, so cancellation still lands within one request
// (microseconds), and predictAt's result wait can take the plain channel
// receive instead of selectgo — measurably cheaper at batched-pipeline
// throughput. The root span rides the driver's own timestamps, so the
// traced path adds no clock reads.
func (t serverTarget) Predict(_ context.Context, _ int64, it *WorkItem, root *telemetry.Span, t0 time.Time) (Answer, error) {
	res, err := t.s.predictAt(context.Background(), it.X, root, t0)
	return Answer{Class: res.Class, Expert: res.Expert, Matched: res.Matched}, err
}

// RunServerLoad replays the checkpoint's scenario stream against srv in
// process, with cfg's mid-load swap (at half the run) and shift injection
// (at cfg.ShiftAt) as events, and records the server's counters at run
// end. srv must be serving a snapshot built from cp (the workload and
// routing ground truth are regenerated from the checkpoint's seed and
// assignment).
func RunServerLoad(ctx context.Context, srv *Server, cp *service.Checkpoint, cfg LoadConfig) (*LoadResult, error) {
	items, err := Workload(cp, cfg)
	if err != nil {
		return nil, err
	}
	var events []Event
	if cfg.SwapMidLoad {
		snap, err := SnapshotFromCheckpoint(cp)
		if err != nil {
			return nil, err
		}
		events = append(events, Event{At: 0.5, Fire: func() error { return srv.Swap(snap) }})
	}
	var (
		injected bool
		teed     uint64
	)
	if cfg.ShiftAt > 0 {
		corr := cfg.ShiftCorruption
		if corr.IsIdentity() {
			corr = DefaultShift
		}
		events = append(events, Event{
			At:     cfg.ShiftAt,
			Stream: ShiftItems(items, corr, cp.Seed),
			Fire: func() error {
				if mon := srv.cfg.Monitor; mon != nil {
					teed = mon.Teed()
				}
				injected = true
				return nil
			},
		})
	}
	res, err := RunLoad(ctx, srv.Target(), items, cfg, events...)
	if err != nil {
		return nil, err
	}
	res.Server = srv.Metrics().Snapshot()
	res.ShiftInjected, res.ShiftTeedSamples = injected, teed
	return res, nil
}

// Artifact converts a load result into the versioned BENCH_serving.json
// form, recording the protocol that produced it. A run with the route
// cache disabled (CacheSize < 0) is a cold-traffic run and takes the
// "serving-cold" name — it lands in BENCH_serving-cold.json and carries
// the coldTraffic option flag, so the honest no-cache number can never be
// mistaken for the warm one.
func (r *LoadResult) Artifact(cp *service.Checkpoint, cfg LoadConfig, srvCfg Config) *experiments.ServingArtifact {
	cfg = cfg.WithDefaults()
	srvCfg = srvCfg.withDefaults()
	cold := srvCfg.CacheSize < 0
	name := experiments.ServingArtifactName
	if cold {
		name = experiments.ServingColdArtifactName
	}
	a := &experiments.ServingArtifact{
		Schema: experiments.ServingSchemaVersion,
		Name:   name,
		Options: experiments.ServingOptions{
			CheckpointWindows: cp.WindowsDone,
			Parties:           len(cp.Aggregator.Assignment),
			SamplesPerParty:   cfg.SamplesPerParty,
			TestPerParty:      cfg.TestPerParty,
			Seed:              cp.Seed,
			TargetQPS:         cfg.TargetQPS,
			Concurrency:       cfg.Concurrency,
			Repeat:            cfg.Repeat,
			Workers:           srvCfg.Workers,
			MaxBatch:          srvCfg.MaxBatch,
			MaxDelayMs:        Millis(srvCfg.MaxDelay),
			CacheSize:         srvCfg.CacheSize,
			RouteEpsilonScale: srvCfg.RouteEpsilonScale,
			SwapMidLoad:       cfg.SwapMidLoad,
			ColdTraffic:       cold,
		},
		Requests:         r.Requests,
		Errors:           r.Errors,
		Rejected:         r.Rejected,
		DurationMs:       Millis(r.Duration),
		ThroughputPerSec: r.Throughput(),
		LatencyMsP50:     Millis(r.LatencyP50),
		LatencyMsP90:     Millis(r.LatencyP90),
		LatencyMsP99:     Millis(r.LatencyP99),
		LatencyMsMax:     Millis(r.LatencyMax),
		Accuracy:         r.Accuracy(),
		RoutedToAssigned: r.RoutingAccuracy(),
		Swaps:            r.Server.Swaps,
		MeanBatch:        r.Server.MeanBatch,
	}
	if hits, misses := r.Server.CacheHits, r.Server.CacheMisses; hits+misses > 0 {
		a.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	for _, g := range r.Regimes {
		a.Regimes = append(a.Regimes, experiments.ServingRegime{
			Regime:           g.Name,
			Requests:         int(g.Requests),
			Accuracy:         g.Accuracy(),
			RoutedToAssigned: g.RoutingAccuracy(),
			MatchedFraction:  g.MatchedFraction(),
		})
	}
	return a
}

// Millis renders a duration in the artifacts' millisecond unit, at
// microsecond resolution.
func Millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
