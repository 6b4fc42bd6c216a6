package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	_, snap := loadTiny(t)
	srv, err := NewServer(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func TestPredictBasic(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2, MaxBatch: 4, MaxDelay: time.Millisecond})
	rng := tensor.NewRNG(11)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		x := rng.NormVec(srv.Snapshot().InputDim(), 0, 1)
		res, err := srv.Predict(ctx, x)
		if err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
		if res.Class < 0 || res.Class >= srv.Snapshot().Arch[len(srv.Snapshot().Arch)-1] {
			t.Fatalf("class %d out of range", res.Class)
		}
		if _, ok := srv.Snapshot().ExpertByID(res.Expert); !ok {
			t.Fatalf("served by unknown expert %d", res.Expert)
		}
	}
	m := srv.Metrics().Snapshot()
	if m.Requests != 50 {
		t.Fatalf("requests=%d, want 50", m.Requests)
	}
	if m.Matched+m.Fallbacks != 50 {
		t.Fatalf("matched+fallbacks=%d, want 50", m.Matched+m.Fallbacks)
	}
	if m.P50Seconds <= 0 || m.P99Seconds < m.P50Seconds {
		t.Fatalf("latency quantiles not recorded: p50=%g p99=%g", m.P50Seconds, m.P99Seconds)
	}
}

func TestPredictBadInput(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	if _, err := srv.Predict(context.Background(), tensor.Vector{1, 2}); err == nil {
		t.Fatal("wrong input dim must error")
	}
	if got := srv.Metrics().Snapshot().Errored; got != 1 {
		t.Fatalf("errored=%d, want 1", got)
	}
}

func TestRouteCacheAcrossSwap(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, CacheSize: 64, MaxDelay: 200 * time.Microsecond})
	ctx := context.Background()
	x := tensor.NewRNG(3).NormVec(srv.Snapshot().InputDim(), 0, 1)

	first, err := srv.Predict(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request cannot be a cache hit")
	}
	second, err := srv.Predict(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeated input must hit the route cache")
	}
	if second.Expert != first.Expert {
		t.Fatalf("cache changed routing: %d vs %d", second.Expert, first.Expert)
	}

	// A hot swap invalidates cached decisions (version mismatch).
	snap, err := LoadSnapshot(tinyCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Swap(snap); err != nil {
		t.Fatal(err)
	}
	third, err := srv.Predict(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("post-swap request must re-route (stale version)")
	}
	if third.Version == first.Version {
		t.Fatal("post-swap version must change")
	}
	fourth, err := srv.Predict(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if !fourth.Cached {
		t.Fatal("re-cached decision must hit again")
	}
}

func TestSwapRejectsArchMismatch(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	cp, _ := loadTiny(t)
	badArch := append([]int(nil), cp.Arch...)
	badArch[1]++
	if err := srv.Swap(&Snapshot{Arch: badArch}); err == nil {
		t.Fatal("arch mismatch must be rejected")
	}
}

// TestHotSwapUnderLoadDropsNothing is the zero-drop contract: concurrent
// clients hammer Predict while the snapshot is hot-swapped repeatedly; every
// single request must complete successfully, each served by a coherent
// snapshot version.
func TestHotSwapUnderLoadDropsNothing(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 4, MaxBatch: 8, MaxDelay: 500 * time.Microsecond, QueueDepth: 1 << 16})
	const (
		clients    = 8
		perClient  = 300
		totalSwaps = 20
	)
	ctx := context.Background()
	var ok, failed atomic.Uint64
	var wg sync.WaitGroup
	stopSwaps := make(chan struct{})
	swapsDone := make(chan error, 1)
	go func() {
		defer close(swapsDone)
		for i := 0; i < totalSwaps; i++ {
			select {
			case <-stopSwaps:
				return
			default:
			}
			snap, err := LoadSnapshot(tinyCheckpoint)
			if err == nil {
				err = srv.Swap(snap)
			}
			if err != nil {
				swapsDone <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := tensor.NewRNG(uint64(100 + c))
			dim := srv.Snapshot().InputDim()
			for i := 0; i < perClient; i++ {
				x := rng.NormVec(dim, 0, 1)
				if _, err := srv.Predict(ctx, x); err != nil {
					t.Errorf("client %d request %d: %v", c, i, err)
					failed.Add(1)
					continue
				}
				ok.Add(1)
			}
		}(c)
	}
	wg.Wait()
	close(stopSwaps)
	if err := <-swapsDone; err != nil {
		t.Fatalf("swap failed: %v", err)
	}

	if got := ok.Load(); got != clients*perClient {
		t.Fatalf("completed %d of %d requests (%d failed) across hot swaps", got, clients*perClient, failed.Load())
	}
	m := srv.Metrics().Snapshot()
	if m.Requests != clients*perClient {
		t.Fatalf("server counted %d requests, want %d", m.Requests, clients*perClient)
	}
	if m.Swaps == 0 {
		t.Fatal("no swap happened during the load window; tighten the test")
	}
	if m.Rejected != 0 || m.Errored != 0 {
		t.Fatalf("rejected=%d errored=%d, want 0/0", m.Rejected, m.Errored)
	}
}

// TestPredictColdMatchesRoute pins the batched routing path: every request
// the route cache misses is routed by a worker (batched encoder embedding +
// per-row signature match), and every request is predicted through the
// batched GEMM forward — the result must be identical to the per-sample
// Route + PredictWS reference, since the GEMM kernels are bit-exact. The
// cold case runs with the cache disabled; the mixed case interleaves
// pre-warmed inputs (hits) with fresh ones (misses) across concurrent
// clients, so batches carry both.
func TestPredictColdMatchesRoute(t *testing.T) {
	const clients, perClient = 8, 8
	const n = clients * perClient
	for _, tc := range []struct {
		name      string
		cacheSize int
		// wantHits, wantMisses, wantBypass are the cache counters of the
		// concurrent drive alone.
		wantHits, wantMisses, wantBypass uint64
	}{
		{name: "cold", cacheSize: -1, wantBypass: n},
		{name: "mixed", cacheSize: 4096, wantHits: n / 2, wantMisses: n / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newTestServer(t, Config{Workers: 2, MaxBatch: 8, MaxDelay: 200 * time.Microsecond, CacheSize: tc.cacheSize})
			snap := srv.Snapshot()
			rng := tensor.NewRNG(23)
			ctx := context.Background()
			// Client c's request i repeats a warm input when (c+i) is even
			// (a hit once warmed), so concurrent batches mix hits and misses.
			xs := make([]tensor.Vector, n)
			warm := make([]bool, n)
			for k := range xs {
				xs[k] = rng.NormVec(snap.InputDim(), 0, 1)
				warm[k] = tc.cacheSize > 0 && (k/perClient+k%perClient)%2 == 0
				if warm[k] {
					if _, err := srv.Predict(ctx, xs[k]); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := srv.Metrics().Snapshot()
			results := make([]Result, n)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						k := c*perClient + i
						res, err := srv.Predict(ctx, xs[k])
						if err != nil {
							t.Errorf("request %d: %v", k, err)
							return
						}
						results[k] = res
					}
				}(c)
			}
			wg.Wait()
			ws := snap.NewWorkspace()
			for k, res := range results {
				if res.Cached != warm[k] {
					t.Fatalf("request %d: cached=%v, want %v", k, res.Cached, warm[k])
				}
				idx, matched, err := snap.Route(ws, xs[k])
				if err != nil {
					t.Fatal(err)
				}
				if res.Expert != snap.Experts()[idx].ID || res.Matched != matched {
					t.Fatalf("request %d: served expert=%d matched=%v, reference expert=%d matched=%v",
						k, res.Expert, res.Matched, snap.Experts()[idx].ID, matched)
				}
				want, err := snap.Experts()[idx].Model.PredictWS(ws, xs[k])
				if err != nil {
					t.Fatal(err)
				}
				if res.Class != want {
					t.Fatalf("request %d: class %d, per-sample reference %d", k, res.Class, want)
				}
			}
			m := srv.Metrics().Snapshot()
			hits, misses, bypass := m.CacheHits-before.CacheHits, m.CacheMisses-before.CacheMisses, m.CacheBypass-before.CacheBypass
			if hits != tc.wantHits || misses != tc.wantMisses || bypass != tc.wantBypass {
				t.Fatalf("hits=%d misses=%d bypass=%d, want %d/%d/%d",
					hits, misses, bypass, tc.wantHits, tc.wantMisses, tc.wantBypass)
			}
		})
	}
}

// TestBatchingUnderConcurrentLoad pins the adaptive flush: with many
// concurrent closed-loop clients on one worker, the dispatcher must
// coalesce requests instead of flushing every request alone. The warm case
// replays pre-warmed inputs that split evenly over every matchable expert:
// every request is a route-cache hit, and because hits share the one
// per-snapshot bucket with misses, warm batches must stay about as large as
// cold ones instead of fragmenting per expert.
func TestBatchingUnderConcurrentLoad(t *testing.T) {
	const clients = 16
	const perClient = 200
	// warmBatchFloor is the warm meanBatch's minimum share of the cold one.
	// Splitting hits per expert would cut it to about 1/experts (1/4 on the
	// tiny checkpoint).
	const warmBatchFloor = 0.5
	// Batch sizes depend on goroutine scheduling, so the warm/cold ratio
	// compares the best meanBatch of a few drives of each case.
	const drives = 5
	ctx := context.Background()

	// load drives clients×perClient requests through srv, client c asking
	// for next(c, i), and returns the meanBatch and cache hits of the
	// drive alone.
	load := func(t *testing.T, srv *Server, next func(c, i int) tensor.Vector) (meanBatch float64, hits uint64) {
		t.Helper()
		before := srv.Metrics().Snapshot()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					if _, err := srv.Predict(ctx, next(c, i)); err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		after := srv.Metrics().Snapshot()
		if got := after.Requests - before.Requests; got != clients*perClient {
			t.Fatalf("requests=%d, want %d", got, clients*perClient)
		}
		return float64(clients*perClient) / float64(after.Batches-before.Batches), after.CacheHits - before.CacheHits
	}

	cold := newTestServer(t, Config{Workers: 1, MaxBatch: 32, MaxDelay: 2 * time.Millisecond, CacheSize: -1})
	dim := cold.Snapshot().InputDim()
	rngs := make([]*tensor.RNG, clients)
	for c := range rngs {
		rngs[c] = tensor.NewRNG(uint64(300 + c))
	}
	var coldMean float64
	for d := 0; d < drives; d++ {
		m, _ := load(t, cold, func(c, _ int) tensor.Vector { return rngs[c].NormVec(dim, 0, 1) })
		if d == 0 && m < 2 {
			t.Fatalf("cold meanBatch=%.2f under %d concurrent clients, want >= 2", m, clients)
		}
		coldMean = max(coldMean, m)
	}

	warm := newTestServer(t, Config{Workers: 1, MaxBatch: 32, MaxDelay: 2 * time.Millisecond})
	snap := warm.Snapshot()
	ws := snap.NewWorkspace()
	const perExpert = 4
	byExpert := make([][]tensor.Vector, snap.NumExperts())
	var matchable []int
	for i, e := range snap.Experts() {
		if e.Memory != nil {
			matchable = append(matchable, i)
		}
	}
	rng := tensor.NewRNG(41)
	for tries, filled := 0, 0; filled < len(matchable); tries++ {
		if tries == 200000 {
			t.Fatalf("could not draw %d matched inputs for every matchable expert", perExpert)
		}
		x := rng.NormVec(dim, 0, 1)
		idx, matched, err := snap.Route(ws, x)
		if err != nil {
			t.Fatal(err)
		}
		if matched && len(byExpert[idx]) < perExpert {
			if byExpert[idx] = append(byExpert[idx], x); len(byExpert[idx]) == perExpert {
				filled++
			}
		}
	}
	// Interleave experts so concurrent clients hit every expert at once.
	var pool []tensor.Vector
	for k := 0; k < perExpert; k++ {
		for _, e := range matchable {
			pool = append(pool, byExpert[e][k])
		}
	}
	for _, x := range pool {
		if _, err := warm.Predict(ctx, x); err != nil {
			t.Fatal(err)
		}
	}
	var warmMean float64
	for d := 0; d < drives; d++ {
		m, hits := load(t, warm, func(c, i int) tensor.Vector { return pool[(c+i)%len(pool)] })
		if hits != clients*perClient {
			t.Fatalf("warm drive: %d of %d requests hit the route cache", hits, clients*perClient)
		}
		warmMean = max(warmMean, m)
	}
	t.Logf("meanBatch cold %.2f, warm %.2f over %d experts", coldMean, warmMean, len(matchable))
	if warmMean < warmBatchFloor*coldMean {
		t.Fatalf("warm meanBatch=%.2f, want >= %.1f × cold %.2f (%d matchable experts)",
			warmMean, warmBatchFloor, coldMean, len(matchable))
	}
}

func TestObserveBatchSize(t *testing.T) {
	m := NewMetrics()
	for _, n := range []int{1, 1, 2, 5, 32, 200} {
		m.ObserveBatchSize(n)
	}
	bounds, counts, _, _ := m.BatchSizeHistogram()
	if len(counts) != len(bounds)+1 {
		t.Fatalf("%d counts for %d bounds", len(counts), len(bounds))
	}
	// bounds {1,2,4,8,16,32,64,128}: 1→b0 (×2), 2→b1, 5→b3, 32→b5, 200→+Inf.
	want := []uint64{2, 1, 0, 1, 0, 1, 0, 0, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, counts[i], w, counts)
		}
	}
}

// TestCloseDrains pins the graceful-shutdown contract: Close answers every
// admitted request, and later Predicts fail with ErrClosed.
func TestCloseDrains(t *testing.T) {
	_, snap := loadTiny(t)
	// A long MaxDelay parks admitted requests in dispatcher buckets, so
	// drain-on-close is what flushes them.
	srv, err := NewServer(snap, Config{Workers: 2, MaxBatch: 1 << 20, MaxDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	var wg sync.WaitGroup
	var completed atomic.Uint64
	rng := tensor.NewRNG(17)
	inputs := make([]tensor.Vector, n)
	for i := range inputs {
		inputs[i] = rng.NormVec(snap.InputDim(), 0, 1)
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.Predict(context.Background(), inputs[i]); err == nil {
				completed.Add(1)
			}
		}(i)
	}
	// Wait until every request is inside the batching pipeline before
	// closing, so the drain path is what answers them.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().admitted.Load() < n {
		if time.Now().After(deadline) {
			t.Fatal("requests never became admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if completed.Load() != n {
		t.Fatalf("close drained %d of %d requests", completed.Load(), n)
	}
	if _, err := srv.Predict(context.Background(), inputs[0]); err != ErrClosed {
		t.Fatalf("post-close Predict: %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
