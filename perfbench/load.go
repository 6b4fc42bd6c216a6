package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// errRefused marks a request the system turned away (queue full, 503).
var errRefused = errors.New("refused")

// call issues request i and returns nil on success, an error wrapping
// errRefused when the system refused it, or another error on failure.
type call func(i int) error

// phaseResult counts and times one load phase. Latencies are kept per
// slice of the phase (by due time in an open loop, completion time in a
// closed one). The reported figures are taken per slice and then over the
// quiet quarter of the slices: the upper quartile of the slice rates and
// the lower quartile of the slice latency quantiles. On a shared host the
// other tenants take the CPUs away for seconds at a time, and a whole-run
// or median figure then measures them, not this program.
type phaseResult struct {
	name                      string
	sent, ok, failed, refused int
	elapsed                   time.Duration
	width                     time.Duration
	// slices[k] holds the latencies (ms) of slice k's requests; failed and
	// refused requests carry the phase length, so they miss any latency
	// limit. The last, partial slice is kept but not used for figures.
	slices [][]float32
	okIn   []int // successes per slice
	// Open loop only: how late the generator issued requests, the peak
	// number outstanding, and whether the outstanding count grew.
	lateMaxMs, lateP99Ms float64
	outstandingMax       int
	backlogGrew          bool
}

func newPhase(name string, width time.Duration) *phaseResult {
	return &phaseResult{name: name, width: width}
}

func (p *phaseResult) throughput() float64 { return float64(p.ok) / p.elapsed.Seconds() }

// all returns every latency of the phase.
func (p *phaseResult) all() []float64 {
	var out []float64
	for _, s := range p.slices {
		for _, v := range s {
			out = append(out, float64(v))
		}
	}
	return out
}

func (p *phaseResult) String() string {
	lat := p.all()
	s := fmt.Sprintf("phase %-24s sent=%d ok=%d failed=%d refused=%d elapsed=%.3fs rate=%.1f/s p50=%.4fms p99=%.4fms (n=%d); quiet quarter of %d %s slices: rate=%.1f/s p50=%.4fms p99=%.4fms",
		p.name, p.sent, p.ok, p.failed, p.refused, p.elapsed.Seconds(), p.throughput(),
		quantile(lat, 0.5), quantile(lat, 0.99), len(lat),
		p.full(), p.width, p.quietRate(), p.quietQuantile(0.5), p.quietQuantile(0.99))
	if n := p.full(); n >= 4 {
		rates, p99s := p.sliceRates(), p.sliceQuantiles(0.99)
		s += fmt.Sprintf("; slice quartiles: rate %.0f/%.0f/%.0f p99 %.3f/%.3f/%.3f",
			quantile(rates, 0.25), quantile(rates, 0.5), quantile(rates, 0.75),
			quantile(p99s, 0.25), quantile(p99s, 0.5), quantile(p99s, 0.75))
	}
	if p.lateMaxMs > 0 || p.outstandingMax > 0 {
		s += fmt.Sprintf("; generator late_max=%.4fms late_p99=%.4fms outstanding_max=%d backlog_grew=%t",
			p.lateMaxMs, p.lateP99Ms, p.outstandingMax, p.backlogGrew)
	}
	return s
}

// tally folds one request's outcome into the counters; at places it in
// its slice.
func (p *phaseResult) tally(err error, latMs float64, at time.Duration) {
	k := 0
	if p.width > 0 {
		k = int(at / p.width)
	}
	for len(p.slices) <= k {
		p.slices = append(p.slices, nil)
		p.okIn = append(p.okIn, 0)
	}
	p.sent++
	switch {
	case err == nil:
		p.ok++
		p.okIn[k]++
	case errors.Is(err, errRefused):
		p.refused++
		latMs = math.Max(latMs, p.elapsed.Seconds()*1e3)
	default:
		p.failed++
		latMs = math.Max(latMs, p.elapsed.Seconds()*1e3)
	}
	p.slices[k] = append(p.slices[k], float32(latMs))
}

// full is the number of whole slices in the phase.
func (p *phaseResult) full() int {
	if p.width <= 0 {
		return 0
	}
	return min(int(p.elapsed/p.width), len(p.slices))
}

// sliceQuantiles returns each whole slice's q-quantile latency.
func (p *phaseResult) sliceQuantiles(q float64) []float64 {
	var qs []float64
	for _, s := range p.slices[:p.full()] {
		if len(s) > 0 {
			f := make([]float64, len(s))
			for i, v := range s {
				f[i] = float64(v)
			}
			qs = append(qs, quantile(f, q))
		}
	}
	return qs
}

// quietQuantile is the lower quartile over the whole slices of each
// slice's q-quantile latency.
func (p *phaseResult) quietQuantile(q float64) float64 {
	qs := p.sliceQuantiles(q)
	if len(qs) == 0 {
		return quantile(p.all(), q)
	}
	return quantile(qs, 0.25)
}

// sliceRates returns each whole slice's successes per second, completed
// (closed loop) or issued (open loop).
func (p *phaseResult) sliceRates() []float64 {
	rates := make([]float64, p.full())
	for i := range rates {
		rates[i] = float64(p.okIn[i]) / p.width.Seconds()
	}
	return rates
}

// quietRate is the upper quartile over the whole slices of sliceRates.
func (p *phaseResult) quietRate() float64 {
	if p.full() == 0 {
		return p.throughput()
	}
	return quantile(p.sliceRates(), 0.75)
}

// basis describes the sample the phase's slice figures are taken over.
func (p *phaseResult) basis() string {
	if p.full() == 0 {
		return fmt.Sprintf("%d requests in phase %s, shorter than one %s slice", p.sent, p.name, p.width)
	}
	return fmt.Sprintf("quiet quartile of %d slices of %s; %d requests in phase %s", p.full(), p.width, p.sent, p.name)
}

// poissonSchedule returns arrival offsets at the given mean rate over dur.
func poissonSchedule(rng *tensor.RNG, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// openLoop issues request first+k at schedule[k] regardless of how earlier
// requests fare, each on its own goroutine, and times it from its due time.
// The generator wakes at most every tick and issues everything due.
func openLoop(name string, width time.Duration, schedule []time.Duration, first int, do call) *phaseResult {
	const tick = 100 * time.Microsecond
	n := len(schedule)
	lat := make([]float32, n)
	errs := make([]error, n)
	late := make([]float64, n)
	var outstanding atomic.Int64
	var samples []int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < n; {
		now := time.Since(start)
		for ; k < n && schedule[k] <= now; k++ {
			late[k] = float64(now-schedule[k]) / 1e6
			due := start.Add(schedule[k])
			wg.Add(1)
			outstanding.Add(1)
			go func(k int, due time.Time) {
				defer wg.Done()
				errs[k] = do(first + k)
				lat[k] = float32(time.Since(due)) / 1e6
				outstanding.Add(-1)
			}(k, due)
		}
		samples = append(samples, outstanding.Load())
		if k < n {
			time.Sleep(min(tick, schedule[k]-time.Since(start)))
		}
	}
	wg.Wait()
	p := newPhase(name, width)
	p.elapsed = time.Since(start)
	for k := range schedule {
		p.tally(errs[k], float64(lat[k]), schedule[k])
	}
	if n > 0 {
		p.lateP99Ms = quantile(late, 0.99)
		p.lateMaxMs = late[n-1]
	}
	q := len(samples) / 4
	var head, tail float64
	for i := 0; i < q; i++ {
		head += float64(samples[i])
		tail += float64(samples[len(samples)-1-i])
	}
	for _, s := range samples {
		p.outstandingMax = max(p.outstandingMax, int(s))
	}
	if q > 0 {
		p.backlogGrew = tail/float64(q) > 2*head/float64(q)+16
	}
	return p
}

// closedLoop runs callers that each issue their next request only after
// the previous one returned, for dur. Request indices start at first and
// never repeat; the phase reports how many were used.
func closedLoop(name string, width time.Duration, callers int, dur time.Duration, first int, do call) *phaseResult {
	return closedLoopN(name, width, callers, dur, first, math.MaxInt, do)
}

// closedLoopN is closedLoop that also stops after n requests.
func closedLoopN(name string, width time.Duration, callers int, dur time.Duration, first, n int, do call) *phaseResult {
	var next atomic.Int64
	next.Store(int64(first))
	type rec struct {
		lat float32 // ms; negative for a failure, whose error is in errs
		at  float32 // completion, seconds since start
	}
	recs := make([][]rec, callers)
	errs := make([][]error, callers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i-first >= n {
					return
				}
				t0 := time.Now()
				err := do(i)
				t1 := time.Now()
				r := rec{lat: float32(t1.Sub(t0)) / 1e6, at: float32(t1.Sub(start).Seconds())}
				if err != nil {
					errs[c] = append(errs[c], err)
					r.lat = -1
				}
				recs[c] = append(recs[c], r)
			}
		}(c)
	}
	wg.Wait()
	p := newPhase(name, width)
	p.elapsed = time.Since(start)
	for c := range recs {
		for _, r := range recs[c] {
			at := time.Duration(float64(r.at) * float64(time.Second))
			if r.lat < 0 {
				p.tally(errs[c][0], 0, at)
				errs[c] = errs[c][1:]
				continue
			}
			p.tally(nil, float64(r.lat), at)
		}
		recs[c] = nil
	}
	return p
}

// quantile returns the q-quantile (nearest rank) of xs, sorting xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median returns the middle value of xs (the mean of the middle two for
// an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
