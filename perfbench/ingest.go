package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/monitor"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/tensor"
)

const (
	ingestOpenRate = 10000 // req/s, about a seventh of closed-loop capacity
	ingestCallers  = 64
	warmup         = 500 * time.Millisecond
	swapCycles     = 200
	swapGap        = 10 * time.Millisecond
	// slice is the width of the slices load figures are taken over.
	slice = 500 * time.Millisecond
)

// answers stores the served class, expert and snapshot version of every
// request index, four bytes each, in chunks allocated as requests reach
// them, so the benchmark's own bookkeeping grows with the work done.
type answers struct {
	mu     sync.Mutex
	chunks [maxChunks]atomic.Pointer[answerChunk]
}

const (
	chunkBits = 16
	maxChunks = 1 << 14 // a billion requests
)

type answerChunk struct {
	class, expert [1 << chunkBits]int8 // class -1: no successful answer
	version       [1 << chunkBits]uint16
}

func (a *answers) chunk(i int, create bool) *answerChunk {
	k := i >> chunkBits
	if k >= maxChunks {
		return nil
	}
	if c := a.chunks[k].Load(); c != nil || !create {
		return c
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if c := a.chunks[k].Load(); c != nil {
		return c
	}
	c := &answerChunk{}
	for j := range c.class {
		c.class[j] = -1
	}
	a.chunks[k].Store(c)
	return c
}

func (a *answers) store(i, class, expert, version int) error {
	c := a.chunk(i, true)
	switch {
	case c == nil:
		return errors.New("answer store full")
	case class < 0 || class > math.MaxInt8 || expert < 0 || expert > math.MaxInt8 || version < 0 || version > math.MaxUint16:
		return fmt.Errorf("answer (class %d, expert %d, version %d) out of the store's range", class, expert, version)
	}
	j := i & (1<<chunkBits - 1)
	c.class[j], c.expert[j], c.version[j] = int8(class), int8(expert), uint16(version)
	return nil
}

// get returns request i's answer; ok is false when it did not succeed.
func (a *answers) get(i int) (class, expert, version int, ok bool) {
	c := a.chunk(i, false)
	if c == nil {
		return 0, 0, 0, false
	}
	j := i & (1<<chunkBits - 1)
	return int(c.class[j]), int(c.expert[j]), int(c.version[j]), c.class[j] >= 0
}

// predictCall serves request i in process, storing its answer.
func predictCall(r *run, srv *serve.Server, in *inputs, ans *answers, name string) call {
	dim := srv.Snapshot().InputDim()
	return func(i int) error {
		x := make(tensor.Vector, dim)
		in.fill(i, x)
		id, start := r.tr.begin()
		res, err := srv.Predict(context.Background(), x)
		r.tr.end(id, 0, name, start)
		if errors.Is(err, serve.ErrOverloaded) {
			return fmt.Errorf("%w: %v", errRefused, err)
		}
		if err != nil {
			return err
		}
		return ans.store(i, res.Class, res.Expert, res.Version)
	}
}

// verify recomputes the reference answer of every successful request in
// [lo, hi) on the snapshot that served it and scores accuracy and routing
// against the stream's labels and assignments.
func verify(r *run, snapFor func(i int) *serve.Snapshot, in *inputs, ans *answers, lo, hi int) (acc, routed float64, n int) {
	workers := runtime.NumCPU()
	type tally struct{ n, correct, known, routed int }
	tallies := make([]tally, workers)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ws *nn.Workspace // every snapshot of a run shares the arch
			x := make(tensor.Vector, len(in.base[0].x))
			t := &tallies[w]
			for i := lo + w; i < hi; i += workers {
				gotClass, gotExpert, version, ok := ans.get(i)
				if !ok {
					continue
				}
				in.fill(i, x)
				snap := snapFor(i)
				if ws == nil {
					ws = snap.NewWorkspace()
				}
				class, expert, err := reference(snap, ws, x)
				if err != nil || class != gotClass || expert != gotExpert {
					mu.Lock()
					r.mismatch("request %d: served class %d expert %d (snapshot v%d), reference class %d expert %d (%v)",
						i, gotClass, gotExpert, version, class, expert, err)
					mu.Unlock()
					continue
				}
				it := in.item(i)
				t.n++
				if class == it.y {
					t.correct++
				}
				if it.assigned >= 0 {
					t.known++
					if expert == it.assigned {
						t.routed++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var sum tally
	for _, t := range tallies {
		sum.n += t.n
		sum.correct += t.correct
		sum.known += t.known
		sum.routed += t.routed
	}
	return float64(sum.correct) / float64(max(sum.n, 1)), float64(sum.routed) / float64(max(sum.known, 1)), sum.n
}

// servedBy is the snapFor of a run whose answers all come from snap.
func servedBy(snap *serve.Snapshot) func(int) *serve.Snapshot {
	return func(int) *serve.Snapshot { return snap }
}

// ingestStack is what ingest-cold's set-up builds.
type ingestStack struct {
	cp  *service.Checkpoint
	srv *serve.Server
	mon *monitor.Monitor
	in  *inputs
}

func (s *ingestStack) close() {
	_ = s.srv.Close()
	s.mon.Close()
}

func setupIngest(r *run) (*ingestStack, error) {
	cp, err := buildWideCheckpoint("")
	if err != nil {
		return nil, err
	}
	srv, mon, err := newMonitoredServer(cp)
	if err != nil {
		return nil, err
	}
	base, err := testStream(cp)
	if err != nil {
		srv.Close()
		mon.Close()
		return nil, err
	}
	return &ingestStack{cp: cp, srv: srv, mon: mon, in: newInputs(base, r.seed)}, nil
}

// timedSetup runs setup reps times, reports the median as setup_s and
// returns the last result, closing the others. after, when set, runs
// untimed after each set-up.
func timedSetup[T any](r *run, reps int, setup func() (T, error), after func(T), closeFn func(T)) (T, error) {
	var last T
	var times []float64
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(t0).Seconds())
		if after != nil {
			after(v)
		}
		if k > 0 {
			closeFn(last)
		}
		last = v
	}
	r.set("setup_s", median(times))
	r.basis("setup_s", "median of %d set-ups", reps)
	r.note("setup runs %v s", times)
	return last, nil
}

func runIngestCold(r *run) error {
	st, err := timedSetup(r, 5, func() (*ingestStack, error) { return setupIngest(r) }, nil, (*ingestStack).close)
	if err != nil {
		return err
	}
	defer st.close()
	srv := st.srv
	if err := swapCyclesLayer(r, st.cp, []*serve.Server{srv}); err != nil {
		return err
	}
	snap := srv.Snapshot()

	openDur := r.seconds / 2
	closedDur := r.seconds - openDur
	rng := tensor.NewRNG(r.seed ^ 0x5eed)
	ans := &answers{}

	next := 0
	tr := r.tr
	r.tr = nil
	w := closedLoop("warmup", slice, ingestCallers, warmup, next, predictCall(r, srv, st.in, ans, ""))
	next += w.sent
	r.addPhase(w)
	r.tr = tr

	before := srv.Metrics().Snapshot()
	bounds, counts0, batchSum0, batchCount0 := srv.Metrics().BatchSizeHistogram()
	goBefore := readGoCounters()
	openBlock := func(dur time.Duration, name string) *phaseResult {
		p := openLoop(name, slice, poissonSchedule(rng, ingestOpenRate, dur), next, predictCall(r, srv, st.in, ans, "serve.predict.open"))
		next += p.sent
		return p
	}
	closedBlock := func(dur time.Duration, name string) *phaseResult {
		p := closedLoop(name, slice, ingestCallers, dur, next, predictCall(r, srv, st.in, ans, "serve.predict.closed"))
		next += p.sent
		return p
	}
	sent := next
	var offOpen, onOpen, offClosed, onClosed []*phaseResult
	if !r.traced {
		open := openBlock(openDur, "open")
		r.addPhase(open)
		closed := closedBlock(closedDur, "closed")
		r.addPhase(closed)
		r.set("throughput_rps", closed.quietRate())
		r.set("latency_p50_ms", open.quietQuantile(0.5))
		r.set("latency_p99_ms", open.quietQuantile(0.99))
		r.basis("throughput_rps", "%s", closed.basis())
		r.basis("latency_p50_ms", "%s", open.basis())
		r.basis("latency_p99_ms", "%s", open.basis())
	} else {
		offOpen, onOpen = r.alternating(tracePairs, func(b int) *phaseResult {
			return openBlock(openDur/(2*tracePairs), blockName("open", b))
		})
		offClosed, onClosed = r.alternating(tracePairs, func(b int) *phaseResult {
			return closedBlock(closedDur/(2*tracePairs), blockName("closed", b))
		})
	}
	r.setGoMetrics(goBefore, next-sent)
	after := srv.Metrics().Snapshot()
	_, counts1, batchSum1, batchCount1 := srv.Metrics().BatchSizeHistogram()

	monitorLayer(r, st.mon)
	acc, routed, n := verify(r, servedBy(snap), st.in, ans, 0, next)
	r.set("accuracy", acc)
	r.set("routed_frac", routed)
	r.basis("accuracy", "%d answers", n)
	r.basis("routed_frac", "%d answers", n)
	r.note("verified %d answers against the single-request reference", n)

	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	r.set("serve.cache_hit_frac", float64(hits)/float64(max(hits+misses, 1)))
	r.set("serve.rejected", float64(after.Rejected))
	batchMean := float64(batchSum1-batchSum0) / float64(max(batchCount1-batchCount0, 1))
	r.set("serve.batch_mean", batchMean)
	if !r.traced {
		return nil
	}

	hist := make([]uint64, len(counts1))
	for i := range hist {
		hist[i] = counts1[i] - counts0[i]
	}
	l0, err := replayL0(r, st.cp, snap, st.in, bounds, hist, batchMean)
	if err != nil {
		return err
	}
	agg := r.tr.aggregate()
	pred := agg["serve.predict.open"]
	predUs := pred.meanDur() / 1e3
	r.set("serve.predict_us", predUs)
	r.set("serve.predict_p99_us", quantile(append([]float64(nil), pred.durs...), 0.99)/1e3)
	r.set("serve.self_us_per_pred", predUs-l0)
	r.set("trace.overhead_frac", blockRate(offClosed)/blockRate(onClosed)-1)
	// Blocking steps of one open-loop request, as self times: the
	// generator's wait from due time to the call, serve's own time, and
	// its share of the L0 kernels. Their sum over the untraced blocks' mean
	// latency is the share of the end-to-end time they account for.
	wait := blockMean(onOpen)*1e3 - predUs
	r.set("trace.coverage_frac", (wait+(predUs-l0)+l0)/1e3/blockMean(offOpen))
	notOnPath(r, httpLayers, gatewayLayers, windowLayers)
	return nil
}
