// Package obs provides the observability primitives for the MSE pipeline
// and the extraction service: a lightweight Tracer/Span API with monotonic
// timings and per-span counters, plus process-wide Counters, Gauges and
// fixed-bucket Histograms backed by sync/atomic and publishable via expvar.
//
// Everything is stdlib-only and designed so that an *absent* hook costs
// nothing: all Tracer and Span methods are nil-safe, so instrumented code
// can call them unconditionally — a nil receiver turns every call into a
// single pointer comparison and no clock read.
//
//	tr := obs.NewTracer()
//	root := tr.Start("build_wrapper")
//	step := root.Child("render")
//	t0 := step.Begin()
//	// ... work ...
//	step.AddSince(t0) // accumulates across loop iterations
//	root.End()
//	fmt.Print(root.Snapshot().Format())
//
// Spans form a tree; a Child span created repeatedly under the same name
// is returned once and accumulates, so a per-page loop still yields exactly
// one span per pipeline step.  A span's duration is wall time: the union of
// its timed intervals, so workers timing one step concurrently count their
// overlap once.  The summed worker time is kept beside it as busy time.
// Snapshots are plain data and serialize to JSON.
package obs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Canonical span names for the nine pipeline steps of Section 3 of the
// paper, in execution order.  core.BuildWrapper emits exactly one span per
// step under its "build_wrapper" root.
const (
	StepRender      = "render"        // step 1: layout rendering
	StepMRE         = "mre"           // step 2: multi-record section extraction
	StepDSE         = "dse"           // step 3: dynamic section extraction
	StepRefine      = "refine"        // step 4: MR/DS refinement
	StepMining      = "mining"        // step 5: record mining
	StepGranularity = "granularity"   // step 6: granularity resolution
	StepCluster     = "cluster"       // step 7: cross-page instance grouping
	StepWrapper     = "wrapper_build" // step 8: wrapper construction
	StepFamilies    = "families"      // step 9: section families

	// StepPrune is the candidate-location / DOM-marking pass of the
	// compiled extraction path (internal/prune); extraction-only, not one
	// of the nine pipeline steps.
	StepPrune = "prune"
)

// PipelineSteps lists the nine step span names in pipeline order.
var PipelineSteps = []string{
	StepRender, StepMRE, StepDSE, StepRefine, StepMining,
	StepGranularity, StepCluster, StepWrapper, StepFamilies,
}

// Root span names emitted by core.
const (
	RootBuildWrapper = "build_wrapper"
	RootAnalyzePages = "analyze_pages"
	RootExtract      = "extract"
)

// Tracer collects root spans.  It is safe for concurrent use.  A Tracer
// accumulates every root span started on it, so it is meant for bounded
// runs (a CLI invocation, a test, a profiling window), not for unbounded
// per-request tracing — services should use Registry metrics instead.
type Tracer struct {
	mu    sync.Mutex
	roots []*Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Start begins a new root span.  A nil tracer returns a nil span, on which
// every Span method is a no-op.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	s := newSpan(name)
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Snapshot returns snapshots of all root spans in start order.
func (t *Tracer) Snapshot() []*SpanSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	roots := make([]*Span, len(t.roots))
	copy(roots, t.roots)
	t.mu.Unlock()
	out := make([]*SpanSnapshot, len(roots))
	for i, s := range roots {
		out[i] = s.Snapshot()
	}
	return out
}

// Reset drops all collected root spans.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.roots = nil
	t.mu.Unlock()
}

// Span is one timed node in a trace tree.  The duration of a span that
// was started but never ended is the time accumulated so far via AddSince;
// End adds the time since Start.  Timed intervals that overlap — workers
// of a parallel step — count once in the duration and in full in the busy
// time.  All methods are nil-safe.
type Span struct {
	name string
	t0   time.Time // set by newSpan; monotonic

	mu       sync.Mutex
	dur      time.Duration // wall: measure of covered plus untimed Adds
	busy     time.Duration // every AddSince, Add and End in full
	covered  []interval    // disjoint, sorted by start
	inline   [2]interval   // backs covered for the common one- or two-interval span
	ended    bool
	counters map[string]int64
	children []*Span
	index    map[string]*Span
}

// interval is the stretch of monotonic time [from, to).
type interval struct{ from, to time.Time }

func newSpan(name string) *Span {
	s := &Span{name: name, t0: time.Now()}
	s.covered = s.inline[:0]
	return s
}

// cover adds [from, to) to the span's covered time and returns the wall
// time it newly covers: the part of the interval that no earlier interval
// already spans.  The caller holds s.mu.
func (s *Span) cover(from, to time.Time) time.Duration {
	// i is the first interval ending at or after from; every interval
	// from i on that starts no later than to touches [from, to).
	i := sort.Search(len(s.covered), func(k int) bool { return !s.covered[k].to.Before(from) })
	merged := interval{from, to}
	var old time.Duration
	j := i
	for ; j < len(s.covered) && !s.covered[j].from.After(to); j++ {
		c := s.covered[j]
		if c.from.Before(merged.from) {
			merged.from = c.from
		}
		if c.to.After(merged.to) {
			merged.to = c.to
		}
		old += c.to.Sub(c.from)
	}
	s.covered = slices.Replace(s.covered, i, j, merged)
	return merged.to.Sub(merged.from) - old
}

// NewSpan starts a free-standing root span that is not collected by any
// Tracer.  Services use it for per-request span trees (stage timings for a
// wide-event journal line) where Tracer's accumulate-forever semantics
// would leak.
func NewSpan(name string) *Span { return newSpan(name) }

// Name returns the span name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start creates and starts a new child span.  Unlike Child it always
// appends a fresh span, so repeated Start calls under one name yield
// multiple children.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Child returns the child span with the given name, creating it (with zero
// duration) on first use.  Use together with Begin/AddSince to accumulate
// one span across loop iterations.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index == nil {
		s.index = map[string]*Span{}
	}
	if c, ok := s.index[name]; ok {
		return c
	}
	c := newSpan(name)
	s.index[name] = c
	s.children = append(s.children, c)
	return c
}

// Begin returns the current time for a live span and the zero time for a
// nil span, without reading the clock.  Pair with AddSince.
func (s *Span) Begin() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// AddSince accumulates the interval from t0 to now into the span: its
// duration grows by the part of the interval not already covered by an
// overlapping one, its busy time by the whole interval.  A zero t0 (from
// Begin on a nil span) contributes nothing, but callers normally hold a
// nil span then anyway.
func (s *Span) AddSince(t0 time.Time) {
	if s == nil || t0.IsZero() {
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.dur += s.cover(t0, now)
	s.busy += now.Sub(t0)
	s.mu.Unlock()
}

// Add accumulates d into the span's duration and busy time directly.  An
// untimed d has no place on the clock, so it never overlaps anything.
func (s *Span) Add(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.dur += d
	s.busy += d
	s.mu.Unlock()
}

// End stops the span, adding the interval since Start.  End is
// idempotent: the second and later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur += s.cover(s.t0, now)
		s.busy += now.Sub(s.t0)
	}
	s.mu.Unlock()
}

// Count adds n to the named counter on this span.
func (s *Span) Count(key string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = map[string]int64{}
	}
	s.counters[key] += n
	s.mu.Unlock()
}

// Duration returns the accumulated wall duration so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Busy returns the accumulated busy time so far: the sum of every timed
// interval, overlapping ones included.  Busy/Duration is the span's
// parallel efficiency numerator over its wall time.
func (s *Span) Busy() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy
}

// Snapshot returns a plain-data copy of the span tree, suitable for JSON
// serialization.  A nil span snapshots to nil.
func (s *Span) Snapshot() *SpanSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	snap := &SpanSnapshot{
		Name:     s.name,
		Duration: s.dur,
		Busy:     s.busy,
	}
	if len(s.counters) > 0 {
		snap.Counters = make(map[string]int64, len(s.counters))
		for k, v := range s.counters {
			snap.Counters[k] = v
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		snap.Children = append(snap.Children, c.Snapshot())
	}
	return snap
}

// SpanSnapshot is the serializable form of a span tree.
type SpanSnapshot struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"` // wall time
	// Busy is the summed time of every timed interval; it exceeds
	// Duration by the overlap of concurrent workers.
	Busy     time.Duration    `json:"busy_ns,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []*SpanSnapshot  `json:"children,omitempty"`
}

// Find returns the direct child with the given name, or nil.
func (s *SpanSnapshot) Find(name string) *SpanSnapshot {
	if s == nil {
		return nil
	}
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Format renders the span tree as an indented, human-readable table:
// name, duration, percentage of the root, and counters.  A span whose
// busy time exceeds its duration (a parallel step) also shows busy=.
func (s *SpanSnapshot) Format() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	total := s.Duration
	var walk func(sp *SpanSnapshot, depth int)
	walk = func(sp *SpanSnapshot, depth int) {
		pct := ""
		if total > 0 && depth > 0 {
			pct = fmt.Sprintf("%5.1f%%", 100*float64(sp.Duration)/float64(total))
		}
		busy := ""
		if sp.Busy > sp.Duration {
			busy = "  busy=" + sp.Busy.Round(time.Microsecond).String()
		}
		fmt.Fprintf(&b, "%-*s%-*s %10s %6s%s%s\n",
			2*depth, "", 24-2*depth, sp.Name,
			sp.Duration.Round(time.Microsecond), pct, busy, formatCounters(sp.Counters))
		for _, c := range sp.Children {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
	return b.String()
}

func formatCounters(c map[string]int64) string {
	if len(c) == 0 {
		return ""
	}
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s=%d", k, c[k])
	}
	return b.String()
}

// Merge sums a set of span snapshots into one: durations, busy times and
// counters add up, and children are merged recursively by name (ordered by first
// occurrence).  It is used to aggregate per-engine traces into one
// breakdown.  The merged root takes the name of the first snapshot; nil
// entries are skipped; Merge of an empty set returns nil.
func Merge(snaps []*SpanSnapshot) *SpanSnapshot {
	var out *SpanSnapshot
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if out == nil {
			out = &SpanSnapshot{Name: s.Name}
		}
		mergeInto(out, s)
	}
	return out
}

func mergeInto(dst, src *SpanSnapshot) {
	dst.Duration += src.Duration
	dst.Busy += src.Busy
	if len(src.Counters) > 0 && dst.Counters == nil {
		dst.Counters = map[string]int64{}
	}
	for k, v := range src.Counters {
		dst.Counters[k] += v
	}
	for _, c := range src.Children {
		d := dst.Find(c.Name)
		if d == nil {
			d = &SpanSnapshot{Name: c.Name}
			dst.Children = append(dst.Children, d)
		}
		mergeInto(d, c)
	}
}
