package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"bingo/internal/checkpoint"
	"bingo/internal/mem"
	"bingo/internal/prefetch"
	"bingo/internal/trace"
)

// span is one timed interval of the traced run: a workload pass, a cell
// within it, or a phase of a cell (sources, new, warmup, measure, save,
// load). Parent is the index of the enclosing span, -1 at the top.
type span struct {
	Name   string
	Parent int
	Start  time.Duration // since the tracer started
	Dur    time.Duration
}

// tracer records spans and per-call counts for traced passes. Spans stay
// in memory until writeChromeTrace. A nil *tracer records nothing, so the
// untraced passes run the same code without the wrappers.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of spans not yet ended

	// Per-pass totals, cleared by resetPass.
	phase      map[string]time.Duration // summed span time by span name
	phaseAlloc map[string]uint64        // summed heap bytes allocated by span name
	records    uint64                   // trace records pulled through Next
	nextNS     int64
	pf         pfCalls
}

type pfCalls struct {
	access, eviction     uint64
	accessNS, evictionNS int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.resetPass()
	return t
}

func (t *tracer) resetPass() {
	t.phase = map[string]time.Duration{}
	t.phaseAlloc = map[string]uint64{}
	t.records, t.nextNS, t.pf = 0, 0, pfCalls{}
}

// recordCount is the number of trace records pulled so far this pass.
func (t *tracer) recordCount() uint64 {
	if t == nil {
		return 0
	}
	return t.records
}

// begin opens a span and returns the function that ends it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0)})
	t.open = append(t.open, idx)
	alloc0 := readRuntime().allocBytes
	return func() {
		t.phaseAlloc[name] += readRuntime().allocBytes - alloc0
		s := &t.spans[idx]
		s.Dur = time.Since(t.t0) - s.Start
		t.phase[name] += s.Dur
		t.open = t.open[:len(t.open)-1]
	}
}

// sources wraps each trace source so its Next calls are counted and timed.
func (t *tracer) sources(srcs []trace.Source) []trace.Source {
	if t == nil {
		return srcs
	}
	out := make([]trace.Source, len(srcs))
	for i, s := range srcs {
		out[i] = &timedSource{src: s, t: t}
	}
	return out
}

type timedSource struct {
	src trace.Source
	t   *tracer
}

func (s *timedSource) Next() (trace.Record, bool) {
	start := time.Now()
	r, ok := s.src.Next()
	s.t.nextNS += int64(time.Since(start))
	s.t.records++
	return r, ok
}

// factory wraps a prefetcher factory so OnAccess and OnEviction are
// counted and timed. The wrapper forwards every optional interface the
// system looks for (outcome feedback, checkpointing), so wrapping changes
// no simulated result; the traced-vs-untraced check holds it to that.
func (t *tracer) factory(f prefetch.Factory) prefetch.Factory {
	if t == nil || f == nil {
		return f
	}
	return func(core int) prefetch.Prefetcher { return &timedPrefetcher{pf: f(core), t: t} }
}

type timedPrefetcher struct {
	pf prefetch.Prefetcher
	t  *tracer
}

func (p *timedPrefetcher) Name() string      { return p.pf.Name() }
func (p *timedPrefetcher) StorageBytes() int { return p.pf.StorageBytes() }

func (p *timedPrefetcher) OnAccess(ev prefetch.AccessEvent) []mem.Addr {
	start := time.Now()
	out := p.pf.OnAccess(ev)
	p.t.pf.accessNS += int64(time.Since(start))
	p.t.pf.access++
	return out
}

func (p *timedPrefetcher) OnEviction(addr mem.Addr) {
	start := time.Now()
	p.pf.OnEviction(addr)
	p.t.pf.evictionNS += int64(time.Since(start))
	p.t.pf.eviction++
}

func (p *timedPrefetcher) OnPrefetchOutcome(useful bool) {
	if o, ok := p.pf.(prefetch.OutcomeObserver); ok {
		o.OnPrefetchOutcome(useful)
	}
}

func (p *timedPrefetcher) SaveState(w *checkpoint.Writer) error {
	ck, ok := p.pf.(checkpoint.Checkpointable)
	if !ok {
		return fmt.Errorf("prefetcher %q is not checkpointable", p.pf.Name())
	}
	return ck.SaveState(w)
}

func (p *timedPrefetcher) LoadState(r *checkpoint.Reader) error {
	ck, ok := p.pf.(checkpoint.Checkpointable)
	if !ok {
		return fmt.Errorf("prefetcher %q is not checkpointable", p.pf.Name())
	}
	return ck.LoadState(r)
}

// writeChromeTrace writes the spans in Chrome trace_event format (open
// in chrome://tracing or Perfetto), with the host block as metadata.
func (t *tracer) writeChromeTrace(path string, host hostBlock) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent},
		}
	}
	doc := map[string]any{"traceEvents": events, "otherData": host}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
