package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call. parent is 0 for a root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps every span in memory. A nil *tracer records nothing, so
// the untraced run pays one nil check per call site.
type tracer struct {
	base  time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id and start offset.
func (t *tracer) begin() (uint64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.next.Add(1), int64(time.Since(t.base))
}

// end closes a span opened by begin.
func (t *tracer) end(id, parent uint64, name string, start int64) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start, End: int64(time.Since(t.base))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent uint64, f func(id uint64) error) error {
	id, start := t.begin()
	err := f(id)
	t.end(id, parent, name, start)
	return err
}

// tracePairs is how many untraced/traced block pairs a traced run
// alternates, so that host drift falls on both sides alike.
const tracePairs = 4

// alternating runs 2*pairs load blocks, untraced and traced in turn, and
// returns each side's blocks.
func (r *run) alternating(pairs int, block func(b int) *phaseResult) (off, on []*phaseResult) {
	saved := r.tr
	defer func() { r.tr = saved }()
	for b := 0; b < 2*pairs; b++ {
		r.tr = nil
		if b%2 == 1 {
			r.tr = saved
		}
		p := block(b)
		r.addPhase(p)
		if b%2 == 1 {
			on = append(on, p)
		} else {
			off = append(off, p)
		}
	}
	return off, on
}

func blockName(name string, b int) string {
	if b%2 == 1 {
		return fmt.Sprintf("%s-traced-%d", name, b/2)
	}
	return fmt.Sprintf("%s-untraced-%d", name, b/2)
}

// blockRate is the median over blocks of their successes per second.
func blockRate(blocks []*phaseResult) float64 {
	rates := make([]float64, len(blocks))
	for i, p := range blocks {
		rates[i] = p.throughput()
	}
	return median(rates)
}

// blockMean is the mean latency in ms over every request of the blocks.
func blockMean(blocks []*phaseResult) float64 {
	var all []float64
	for _, p := range blocks {
		all = append(all, p.all()...)
	}
	return mean(all)
}

// spanStats aggregates one span name: durations and self times (the
// span's duration minus the part of it its children cover).
type spanStats struct {
	durs  []float64 // ns
	selfs []float64 // ns
}

func (s *spanStats) meanDur() float64  { return mean(s.durs) }
func (s *spanStats) meanSelf() float64 { return mean(s.selfs) }

// aggregate computes per-name statistics over every recorded span.
func (t *tracer) aggregate() map[string]*spanStats {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*spanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		dur := float64(s.End - s.Start)
		st.durs = append(st.durs, dur)
		st.selfs = append(st.selfs, dur-covered(s, children[s.ID]))
	}
	return out
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, curS, curE := int64(0), int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		total += curE - curS
	}
	return float64(total)
}

// dump writes at most limit spans as JSON lines under dir.
func (t *tracer) dump(dir, name string, limit int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := t.spans[:min(len(t.spans), limit)]
	for _, s := range spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
