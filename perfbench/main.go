// Command perfbench is the repository's benchmark. It runs one workload
// against the public APIs of serve, gateway, monitor and continual, all in
// this process, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) that BENCHMARK.json names, as the last line of
// standard output:
//
//	perfbench --workload ingest-cold --seed 1 --seconds 10 --trace 0
//
// Run it from the repository root (perfbench/run.sh does the build). The
// workloads and the layer each metric belongs to are described in
// perfbench/LAYERS.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names and units it must print.
type benchSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// run is the state shared by a workload and the reporting code.
type run struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	root    string
	tr      *tracer // nil unless traced

	values     map[string]float64
	bases      map[string]string // what each end-to-end value was taken over
	phases     []*phaseResult
	mismatches int
	notes      []string
	heapPeak   float64 // bytes
}

// set records a metric value by name.
func (r *run) set(name string, v float64) { r.values[name] = v }

// basis records the sample a metric was taken over, for the report.
func (r *run) basis(name, format string, args ...any) {
	r.bases[name] = fmt.Sprintf(format, args...)
}

// note prints a line of the human-readable report.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// addPhase records a load phase for the attempted/failed counts and
// takes the live heap at its end: mem_peak_mb is the largest heap the run
// retains at a phase boundary, which, unlike a peak sampled between
// collections, does not depend on when the collector happened to run.
func (r *run) addPhase(p *phaseResult) {
	r.phases = append(r.phases, p)
	r.note("%s", p)
	r.heapPeak = max(r.heapPeak, liveHeap())
}

// mismatch records a served answer that differs from the reference.
func (r *run) mismatch(format string, args ...any) {
	if r.mismatches < 5 {
		r.note("MISMATCH "+format, args...)
	}
	r.mismatches++
}

var workloads = map[string]func(*run) error{
	"ingest-cold": runIngestCold,
	"front-door":  runFrontDoor,
	"shift-adapt": runShiftAdapt,
}

func main() {
	code, err := mainErr()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func mainErr() (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (ingest-cold, front-door, shift-adapt)")
	seed := fs.Uint64("seed", 1, "workload seed: request order, per-request jitter and arrival schedule")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	root := fs.String("root", ".", "repository root (holds BENCHMARK.json)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2, err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	spec, err := readSpec(*root + "/BENCHMARK.json")
	if err != nil {
		return 2, err
	}

	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		root:    *root,
		values:  make(map[string]float64),
		bases:   make(map[string]string),
	}
	if r.traced {
		r.tr = newTracer()
	}
	r.note("host nproc=%d GOMAXPROCS=%d go=%s workload=%s seed=%d seconds=%d trace=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *workload, *seed, *seconds, *trace)
	if err := fn(r); err != nil {
		return 1, fmt.Errorf("%s: %w", *workload, err)
	}
	r.set("mem_peak_mb", r.heapPeak/(1<<20))
	r.basis("mem_peak_mb", "max over %d phase ends", len(r.phases))
	if r.traced {
		if err := r.tr.dump(*root+"/.bench_build/spans", fmt.Sprintf("%s-%d.jsonl", *workload, *seed), 50000); err != nil {
			r.note("span dump failed: %v", err)
		}
	}

	res := result{Correct: r.mismatches == 0, Metrics: make(map[string]metric)}
	for _, p := range r.phases {
		res.Attempted += p.sent
		res.Failed += p.failed + p.refused
	}
	list := spec.EndToEnd
	if r.traced {
		list = spec.PerLayer
	}
	var missing []string
	for _, m := range list {
		v, ok := r.values[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return 1, fmt.Errorf("%s measured no value for %v", *workload, missing)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-32s %16.6f %-8s %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit, r.bases[n])
	}
	var others []string
	for n := range r.values {
		if _, ok := res.Metrics[n]; !ok {
			others = append(others, n)
		}
	}
	sort.Strings(others)
	for _, n := range others {
		fmt.Printf("also   %-32s %16.6f\n", n, r.values[n])
	}
	fmt.Printf("correct=%t mismatches=%d attempted=%d failed=%d\n", res.Correct, r.mismatches, res.Attempted, res.Failed)
	out, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1, fmt.Errorf("%d served answers differ from the single-request reference", r.mismatches)
	}
	return 0, nil
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// liveHeap collects garbage and returns the live Go heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// goCounters reads the allocation and GC-cycle counters.
type goCounters struct{ allocBytes, gcCycles uint64 }

func readGoCounters() goCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return goCounters{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// setGoMetrics records the Go runtime's work between two readings.
func (r *run) setGoMetrics(before goCounters, ops int) {
	after := readGoCounters()
	r.set("go.alloc_bytes_per_op", float64(after.allocBytes-before.allocBytes)/float64(max(ops, 1)))
	r.set("go.gc_cycles", float64(after.gcCycles-before.gcCycles))
}
