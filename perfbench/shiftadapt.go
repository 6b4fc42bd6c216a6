package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/adapt"
	"repro/internal/continual"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/federation"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/shiftex"
	"repro/internal/tensor"
)

const (
	adaptBgRate  = 500 // background predictions a second
	feedFlush    = 32  // feed requests between Monitor.Flush calls
	feedMax      = 20000
	finalPasses  = 16
	harvestSeedX = 0xc1ea
)

// adaptStack is what shift-adapt's set-up builds.
type adaptStack struct {
	cp        *service.Checkpoint
	feedMon   *monitor.Monitor // frozen at detection; every window harvests it
	live      *serve.Server
	liveMon   *monitor.Monitor
	trainer   *continual.LocalTrainer
	shift     []item
	lag       uint64
	flushMs   []float64
	harvestMs float64
	feed      *phaseResult

	// The traced window's own copies of what LocalTrainer holds.
	fed    *federation.Federation
	policy *adapt.Policy
}

func (s *adaptStack) close() {
	_ = s.live.Close()
	s.liveMon.Close()
	s.feedMon.Close()
}

func setupAdapt(r *run) (*adaptStack, error) {
	policy := ""
	if r.traced {
		policy = timedPolicyName
		stageSpans.prefix.Store("ckpt.")
	}
	cp, err := buildWideCheckpoint(policy)
	if err != nil {
		return nil, err
	}
	base, err := testStream(cp)
	if err != nil {
		return nil, err
	}
	s := &adaptStack{cp: cp, shift: shifted(base, r.seed)}
	feedSrv, feedMon, err := newMonitoredServer(cp)
	if err != nil {
		return nil, err
	}
	s.feedMon = feedMon
	err = s.runFeed(r, feedSrv, base)
	_ = feedSrv.Close()
	if err != nil {
		feedMon.Close()
		return nil, err
	}
	if s.live, s.liveMon, err = newMonitoredServer(cp); err != nil {
		feedMon.Close()
		return nil, err
	}
	s.trainer, err = continual.NewLocalTrainer(cp, continual.TrainerConfig{SamplesPerParty: recipeSamples, TestPerParty: recipeTest})
	if err == nil && r.traced {
		err = s.setupReplica()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// runFeed drives the feed server deterministically: one sequential
// caller, Monitor.Flush every feedFlush requests (the monitor queue holds
// 64 one-request blocks, so nothing can drop), clean traffic until the
// monitor has calibrated, then the shifted stream until an evaluation
// crosses and the recent window is all shifted; then one harvest.
func (s *adaptStack) runFeed(r *run, srv *serve.Server, base []item) error {
	clean := newInputs(base, r.seed^harvestSeedX)
	shift := newInputs(s.shift, r.seed^harvestSeedX)
	x := make(tensor.Vector, s.cp.Arch[0])
	p := newPhase("feed", 0)
	start := time.Now()
	lastSeq := 0
	crossedAfter := func(mark uint64) (uint64, bool) {
		for _, ev := range s.feedMon.Evaluations(0, -1) {
			if ev.Seq <= lastSeq {
				continue
			}
			lastSeq = ev.Seq
			if ev.Crossed && ev.TeedAt > mark {
				return ev.TeedAt, true
			}
		}
		return 0, false
	}
	send := func(in *inputs, i int) error {
		in.fill(i, x)
		t0 := time.Now()
		_, err := srv.Predict(context.Background(), x)
		p.tally(err, float64(time.Since(t0))/1e6, t0.Sub(start))
		if err != nil {
			return err
		}
		if (i+1)%feedFlush == 0 {
			t0 := time.Now()
			s.feedMon.Flush()
			s.flushMs = append(s.flushMs, float64(time.Since(t0))/1e6)
		}
		if d := s.feedMon.Dropped(); d != 0 {
			return fmt.Errorf("monitor dropped %d samples during the feed", d)
		}
		return nil
	}
	i := 0
	for ; !s.feedMon.Summary().Calibrated; i++ {
		if i == feedMax {
			return errors.New("monitor never calibrated on clean traffic")
		}
		if err := send(clean, i); err != nil {
			return err
		}
	}
	crossedAfter(math.MaxUint64) // skip evaluations of clean traffic
	onset := s.feedMon.Teed()
	for j := 0; ; j++ {
		if j == feedMax {
			return errors.New("shift never detected")
		}
		if err := send(shift, j); err != nil {
			return err
		}
		if (j+1)%feedFlush != 0 {
			continue
		}
		if s.lag == 0 {
			if at, ok := crossedAfter(onset); ok {
				s.lag = at - onset
			}
		}
		// Harvest once the monitor's recent window holds only shifted
		// traffic, so the window adapts to the new regime, not to a mix.
		if s.lag > 0 && j+1 >= max(int(s.lag), s.feedMon.Config().WindowSize) {
			break
		}
	}
	p.elapsed = time.Since(start)
	s.feed = p
	t0 := time.Now()
	s.feedMon.Sketches()
	s.harvestMs = float64(time.Since(t0)) / 1e6
	return nil
}

// setupReplica builds what the traced window needs to run LocalTrainer's
// steps itself: the regenerated federation and the timed policy.
func (s *adaptStack) setupReplica() error {
	spec := service.ScenarioSpec(len(s.cp.Aggregator.Assignment), recipeSamples, recipeTest, s.cp.NumWindows)
	sc, err := dataset.BuildScenario(spec, dataset.DefaultShiftConfig(), s.cp.Seed)
	if err != nil {
		return err
	}
	if s.fed, err = federation.New(sc, s.cp.Arch, s.cp.Seed); err != nil {
		return err
	}
	s.policy, err = adapt.NewPolicy(timedPolicyName)
	return err
}

// window runs one adaptation window from the pre-window state: harvest
// the frozen feed monitor, LocalTrainer.AdaptWindow, Swap into the live
// server.
func (s *adaptStack) window() (*serve.Snapshot, *shiftex.WindowReport, error) {
	sk := s.feedMon.Sketches()
	cand, err := s.trainer.AdaptWindow(sk)
	if err != nil {
		return nil, nil, err
	}
	if err := s.live.Swap(cand.Snapshot); err != nil {
		return nil, nil, err
	}
	return cand.Snapshot, cand.Report, nil
}

// tracedWindow runs the same steps through their public parts, each in a
// span: harvest, restore, BuildPartyStats, AdaptWindow (with the timed
// policy's stage spans and the timed fleet's federated-learning spans
// nested inside), NewSnapshot and Swap. It leaves out LocalTrainer's
// live-radius calibration, which has no public entry point.
func (s *adaptStack) tracedWindow(tr *tracer) (*serve.Snapshot, *shiftex.WindowReport, error) {
	root, rootStart := tr.begin()
	defer tr.end(root, 0, "adapt.window", rootStart)
	var sk *monitor.Sketches
	tr.do("monitor.harvest", root, func(uint64) error { sk = s.feedMon.Sketches(); return nil })
	var agg *shiftex.Aggregator
	err := tr.do("shiftex.restore", root, func(uint64) (err error) {
		agg, err = shiftex.RestoreWithPolicy(s.cp.Config, s.policy, s.cp.Aggregator)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	widx := min(s.cp.WindowsDone-1, s.fed.NumWindows()-1)
	var pstats []detect.PartyStats
	err = tr.do("continual.build_stats", root, func(uint64) (err error) {
		if err = s.fed.SetWindow(widx); err != nil {
			return err
		}
		pstats, err = continual.BuildPartyStats(sk, s.cp.Aggregator.Assignment, s.fed.PartyHists(), s.cp.WindowsDone, continual.StatsOptions{})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var rep *shiftex.WindowReport
	err = tr.do("shiftex.adapt_window", root, func(id uint64) (err error) {
		stageSpans.parent.Store(id)
		rep, err = agg.AdaptWindow(&shiftex.LiveStatsFleet{Fleet: timedFleet{s.fed}, Stats: pstats}, s.cp.WindowsDone)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var snap *serve.Snapshot
	err = tr.do("serve.snapshot_build", root, func(uint64) (err error) {
		snap, err = serve.NewSnapshot(s.cp.Arch, agg.ExportState())
		if err == nil {
			snap.WindowsDone, snap.Seed, snap.Policy = s.cp.WindowsDone, s.cp.Seed, s.cp.PolicyName()
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = tr.do("serve.swap", root, func(uint64) error { return s.live.Swap(snap) })
	return snap, rep, err
}

// digest fingerprints everything a candidate routes and predicts with,
// plus its window report's counts.
func digest(snap *serve.Snapshot, rep *shiftex.WindowReport) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		b := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(snap.Epsilon)
	for _, e := range snap.Experts() {
		put(float64(e.ID))
		put(snap.ExpertRadius(e.ID))
		for _, v := range e.Memory {
			put(v)
		}
		for _, v := range e.Model.Params() {
			put(v)
		}
	}
	for _, v := range []int{rep.NewExperts, rep.Merged, rep.ShiftedCov, rep.ShiftedLabel, rep.ExpertsAfter} {
		put(float64(v))
	}
	return h.Sum64()
}

func runShiftAdapt(r *run) error {
	if r.traced {
		stageSpans.tr = r.tr
	}
	st, err := timedSetup(r, 3, func() (*adaptStack, error) { return setupAdapt(r) }, nil, (*adaptStack).close)
	if err != nil {
		return err
	}
	defer st.close()
	stageSpans.prefix.Store("")
	r.addPhase(st.feed)
	initial := st.live.Snapshot()

	bg := newInputs(st.shift, r.seed)
	rng := tensor.NewRNG(r.seed ^ 0xb6)
	schedule := poissonSchedule(rng, adaptBgRate, r.seconds)
	ans := &answers{}
	goBefore := readGoCounters()
	m0 := st.live.Metrics().Snapshot()
	_, h0, s0, c0 := st.live.Metrics().BatchSizeHistogram()
	bgDone := make(chan *phaseResult, 1)
	go func() {
		bgDone <- openLoop("background", 2*time.Second, schedule, 0, predictCall(r, st.live, bg, ans, "serve.predict"))
	}()

	// Every window starts from the same state, so every untraced window's
	// candidate must equal the first one, and every traced window's the
	// first traced one (the traced steps skip the live radii).
	var first, firstTraced *serve.Snapshot
	var firstRep *shiftex.WindowReport
	var firstDigest, tracedDigest uint64
	tracedVersions := make(map[int]bool)
	var untimed, timed []float64
	deadline := time.Now().Add(r.seconds)
	for k := 0; time.Now().Before(deadline); k++ {
		// A traced run alternates untraced and traced windows, so host
		// drift falls on both alike.
		traced := r.traced && k%2 == 1
		t0 := time.Now()
		var snap *serve.Snapshot
		var rep *shiftex.WindowReport
		if traced {
			snap, rep, err = st.tracedWindow(r.tr)
		} else {
			snap, rep, err = st.window()
		}
		if err != nil {
			<-bgDone
			return err
		}
		ms := float64(time.Since(t0)) / 1e6
		d := digest(snap, rep)
		switch {
		case traced && firstTraced == nil:
			firstTraced, tracedDigest = snap, d
		case !traced && first == nil:
			first, firstRep, firstDigest = snap, rep, d
		case traced && d != tracedDigest, !traced && d != firstDigest:
			r.mismatch("window %d: candidate differs from the first (new experts %d, merged %d)", k, rep.NewExperts, rep.Merged)
		}
		if traced {
			tracedVersions[snap.Version] = true
			timed = append(timed, ms)
		} else {
			untimed = append(untimed, ms)
		}
	}
	bgPhase := <-bgDone
	r.addPhase(bgPhase)
	r.setGoMetrics(goBefore, bgPhase.sent)
	if first == nil {
		return errors.New("no untraced adaptation window completed")
	}
	r.note("windows: %d untraced (median %.3f ms), %d traced; detect lag %d samples; new experts %d, merged %d, shifted parties %d",
		len(untimed), median(untimed), len(timed), st.lag, firstRep.NewExperts, firstRep.Merged, firstRep.ShiftedCov+firstRep.ShiftedLabel)

	r.set("adapt_ms", median(untimed))
	r.set("throughput_rps", bgPhase.throughput())
	r.set("latency_p50_ms", bgPhase.quietQuantile(0.5))
	r.set("latency_p99_ms", bgPhase.quietQuantile(0.99))
	r.basis("adapt_ms", "median of %d windows", len(untimed))
	r.basis("throughput_rps", "%d requests over %.3f s", bgPhase.ok, bgPhase.elapsed.Seconds())
	r.basis("latency_p50_ms", "%s", bgPhase.basis())
	r.basis("latency_p99_ms", "%s; this is adapt_latency_p99_ms, the tail of reads beside the windows", bgPhase.basis())

	// Background answers: the initial version is the checkpoint's; every
	// later one is a window's candidate, equal to the first of its kind.
	verify(r, func(i int) *serve.Snapshot {
		switch _, _, v, _ := ans.get(i); {
		case v == initial.Version:
			return initial
		case tracedVersions[v]:
			return firstTraced
		}
		return first
	}, bg, ans, 0, len(schedule))

	// Final pass: the shifted stream on the swapped snapshot, scored
	// against the post-window assignment.
	if r.traced {
		// The traced windows left a candidate without live radii; put the
		// untraced candidate's twin back.
		snap, rep, err := st.window()
		if err != nil {
			return err
		}
		if digest(snap, rep) != firstDigest {
			r.mismatch("last window: candidate differs from the first")
		}
	}
	adapted := st.live.Snapshot()
	final := newInputs(st.shift, r.seed^0xf1a1)
	fp := newPhase("final-pass", 0)
	ws := adapted.NewWorkspace()
	x := make(tensor.Vector, adapted.InputDim())
	var correct, known, routed int
	fpStart := time.Now()
	for i := 0; i < finalPasses*len(st.shift); i++ {
		final.fill(i, x)
		t0 := time.Now()
		res, err := st.live.Predict(context.Background(), x)
		fp.tally(err, float64(time.Since(t0))/1e6, t0.Sub(fpStart))
		if err != nil {
			continue
		}
		class, expert, err := reference(adapted, ws, x)
		if err != nil || class != res.Class || expert != res.Expert {
			r.mismatch("final pass request %d: served class %d expert %d, reference class %d expert %d (%v)",
				i, res.Class, res.Expert, class, expert, err)
			continue
		}
		it := final.item(i)
		if class == it.y {
			correct++
		}
		if id, ok := adapted.AssignedExpert(it.party); ok {
			known++
			if expert == id {
				routed++
			}
		}
	}
	fp.elapsed = time.Since(fpStart)
	r.addPhase(fp)
	r.set("accuracy", float64(correct)/float64(max(fp.ok, 1)))
	r.set("routed_frac", float64(routed)/float64(max(known, 1)))
	r.basis("accuracy", "%d final-pass answers", fp.ok)
	r.basis("routed_frac", "%d final-pass answers with an assigned expert", known)

	m1 := st.live.Metrics().Snapshot()
	bounds, h1, s1, c1 := st.live.Metrics().BatchSizeHistogram()
	r.set("serve.cache_hit_frac", float64(m1.CacheHits-m0.CacheHits)/float64(max(m1.CacheHits+m1.CacheMisses-m0.CacheHits-m0.CacheMisses, 1)))
	r.set("serve.rejected", float64(m1.Rejected))
	batchMean := float64(s1-s0) / float64(max(c1-c0, 1))
	r.set("serve.batch_mean", batchMean)
	r.set("monitor.flush_ms", sum(st.flushMs))
	r.set("monitor.harvest_ms", st.harvestMs)
	r.set("monitor.evals", float64(st.feedMon.Summary().Evals))
	r.set("monitor.dropped_frac", float64(st.feedMon.Dropped())/float64(max(st.feedMon.Teed(), 1)))
	r.set("monitor.detect_lag_samples", float64(st.lag))
	r.set("adapt.new_experts", float64(firstRep.NewExperts))
	r.set("adapt.merged", float64(firstRep.Merged))
	r.set("adapt.shifted_parties", float64(firstRep.ShiftedCov+firstRep.ShiftedLabel))
	if !r.traced {
		return nil
	}
	if len(timed) == 0 {
		return errors.New("no traced adaptation window completed")
	}

	hist := make([]uint64, len(h1))
	for i := range hist {
		hist[i] = h1[i] - h0[i]
	}
	l0, err := replayL0(r, st.cp, first, bg, bounds, hist, batchMean)
	if err != nil {
		return err
	}
	agg := r.tr.aggregate()
	windows := float64(len(timed))
	perWindow := func(name string) float64 {
		if a := agg[name]; a != nil {
			return sum(a.durs) / windows / 1e6
		}
		return 0
	}
	ms := func(name string) float64 {
		if a := agg[name]; a != nil {
			return a.meanDur() / 1e6
		}
		return 0
	}
	r.set("monitor.harvest_ms", ms("monitor.harvest"))
	r.set("shiftex.restore_ms", ms("shiftex.restore"))
	r.set("continual.build_stats_ms", ms("continual.build_stats"))
	r.set("shiftex.self_ms", agg["shiftex.adapt_window"].meanSelf()/1e6)
	r.set("serve.snapshot_build_ms", ms("serve.snapshot_build"))
	r.set("serve.swap_ms", ms("serve.swap"))
	for _, stage := range []string{"detect", "assign", "plan", "consolidate"} {
		r.set("adapt."+stage+"_ms", perWindow("adapt."+stage))
	}
	r.set("adapt.calibrate_ms", ms("ckpt.adapt.calibrate"))
	r.set("fl.round_ms", ms("fl.round"))
	if a := agg["fl.round"]; a != nil {
		r.set("fl.rounds", float64(len(a.durs))/windows)
	} else {
		r.set("fl.rounds", 0)
	}
	r.set("fl.eval_ms", perWindow("fl.eval"))
	r.set("fl.finetune_ms", perWindow("fl.finetune"))
	pred := agg["serve.predict"]
	predUs := pred.meanDur() / 1e3
	r.set("serve.predict_us", predUs)
	r.set("serve.predict_p99_us", quantile(append([]float64(nil), pred.durs...), 0.99)/1e3)
	r.set("serve.self_us_per_pred", predUs-l0)
	// A window is one blocking chain; its spans' self times sum to the
	// traced window.
	tracedMs := agg["adapt.window"].meanDur() / 1e6
	r.set("trace.overhead_frac", tracedMs/mean(untimed)-1)
	var selfSum float64
	for name, a := range agg {
		if isWindowSpan(name) {
			selfSum += a.meanSelf() * float64(len(a.durs)) / windows
		}
	}
	r.set("trace.coverage_frac", selfSum/1e6/mean(untimed))
	notOnPath(r, httpLayers, gatewayLayers)
	return nil
}

func isWindowSpan(name string) bool {
	switch name {
	case "adapt.window", "monitor.harvest", "shiftex.restore", "continual.build_stats", "shiftex.adapt_window",
		"serve.snapshot_build", "serve.swap", "adapt.detect", "adapt.assign", "adapt.plan", "adapt.consolidate",
		"fl.round", "fl.eval", "fl.finetune":
		return true
	}
	return false
}
