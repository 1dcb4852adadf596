package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root")
	a := root.Start("a")
	time.Sleep(2 * time.Millisecond)
	a.End()
	b := root.Start("b")
	time.Sleep(1 * time.Millisecond)
	b.End()
	root.End()

	snaps := tr.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("roots = %d, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Name != "root" || len(s.Children) != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Children[0].Name != "a" || s.Children[1].Name != "b" {
		t.Fatalf("children out of order: %v, %v", s.Children[0].Name, s.Children[1].Name)
	}
	sum := s.Children[0].Duration + s.Children[1].Duration
	if sum > s.Duration {
		t.Fatalf("children sum %v exceeds root %v", sum, s.Duration)
	}
	if s.Children[0].Duration < time.Millisecond {
		t.Fatalf("child a duration %v, want >= 1ms", s.Children[0].Duration)
	}
}

// TestSpanCoverUnion checks the wall-time bookkeeping: each interval adds
// only the time no earlier interval covers, whatever order they arrive in.
func TestSpanCoverUnion(t *testing.T) {
	base := time.Now()
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	s := newSpan("step")
	for _, c := range []struct {
		from, to int
		want     time.Duration
	}{
		{10, 20, ms(10)}, // first interval
		{30, 40, ms(10)}, // disjoint, later
		{0, 5, ms(5)},    // disjoint, earlier
		{12, 18, 0},      // nested in [10, 20)
		{15, 35, ms(10)}, // bridges [10, 20) and [30, 40)
		{40, 45, ms(5)},  // touches [10, 40)
		{0, 50, ms(10)},  // swallows everything
	} {
		if got := s.cover(at(c.from), at(c.to)); got != c.want {
			t.Fatalf("cover [%d, %d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if len(s.covered) != 1 || !s.covered[0].from.Equal(at(0)) || !s.covered[0].to.Equal(at(50)) {
		t.Fatalf("covered = %v, want the single interval [0, 50)", s.covered)
	}
}

// TestSpanConcurrentWorkersCountWallOnce has workers time one step at the
// same time: the step's duration is the wall time they spanned, never more
// than its parent's, while its busy time sums every worker.
func TestSpanConcurrentWorkersCountWallOnce(t *testing.T) {
	root := NewSpan("root")
	step := root.Child("step")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := step.Begin()
			time.Sleep(5 * time.Millisecond)
			step.AddSince(t0)
		}()
	}
	wg.Wait()
	root.End()
	s := root.Snapshot()
	c := s.Children[0]
	if c.Duration > s.Duration {
		t.Fatalf("step duration %v exceeds root %v", c.Duration, s.Duration)
	}
	if c.Busy < 4*5*time.Millisecond {
		t.Fatalf("step busy = %v, want >= 20ms (4 workers x 5ms)", c.Busy)
	}
	if c.Duration < 5*time.Millisecond || c.Busy <= c.Duration {
		t.Fatalf("step duration %v, busy %v: want 5ms <= duration < busy", c.Duration, c.Busy)
	}
	if !strings.Contains(s.Format(), "busy=") {
		t.Fatalf("Format() does not show the parallel step's busy time:\n%s", s.Format())
	}
}

func TestSpanChildAccumulates(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root")
	for i := 0; i < 3; i++ {
		c := root.Child("step")
		t0 := c.Begin()
		time.Sleep(time.Millisecond)
		c.AddSince(t0)
	}
	root.End()
	s := tr.Snapshot()[0]
	if len(s.Children) != 1 {
		t.Fatalf("children = %d, want 1 accumulated span", len(s.Children))
	}
	if s.Children[0].Duration < 3*time.Millisecond {
		t.Fatalf("accumulated duration = %v, want >= 3ms", s.Children[0].Duration)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer()
	s := tr.Start("x")
	s.End()
	d := s.Duration()
	time.Sleep(2 * time.Millisecond)
	s.End()
	if s.Duration() != d {
		t.Fatalf("second End changed duration: %v -> %v", d, s.Duration())
	}
}

func TestSpanCounters(t *testing.T) {
	tr := NewTracer()
	s := tr.Start("x")
	s.Count("pages", 5)
	s.Count("pages", 2)
	s.Count("records", 10)
	s.End()
	snap := s.Snapshot()
	if snap.Counters["pages"] != 7 || snap.Counters["records"] != 10 {
		t.Fatalf("counters = %v", snap.Counters)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start("root") // nil tracer -> nil span
	if s != nil {
		t.Fatalf("nil tracer returned non-nil span")
	}
	// Every method must be a no-op, not a panic.
	s.Start("a").End()
	c := s.Child("b")
	t0 := c.Begin()
	if !t0.IsZero() {
		t.Fatalf("nil span Begin read the clock")
	}
	c.AddSince(t0)
	c.Add(time.Second)
	c.Count("k", 1)
	c.End()
	if c.Duration() != 0 || c.Snapshot() != nil || c.Name() != "" {
		t.Fatalf("nil span leaked state")
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
	tr.Reset()
}

func TestSpanConcurrent(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				root.Child("c").Add(time.Nanosecond)
				root.Count("n", 1)
			}
		}()
	}
	wg.Wait()
	root.End()
	s := root.Snapshot()
	if s.Counters["n"] != 1600 {
		t.Fatalf("counter = %d, want 1600", s.Counters["n"])
	}
	if s.Children[0].Duration != 1600*time.Nanosecond {
		t.Fatalf("accumulated = %v, want 1600ns", s.Children[0].Duration)
	}
}

func TestSnapshotJSONAndFormat(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("build_wrapper")
	root.Child("render").Add(5 * time.Millisecond)
	root.Count("pages", 5)
	root.End()
	snap := root.Snapshot()

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back SpanSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "build_wrapper" || back.Children[0].Name != "render" {
		t.Fatalf("round trip = %+v", back)
	}

	txt := snap.Format()
	for _, want := range []string{"build_wrapper", "render", "pages=5"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("Format() missing %q:\n%s", want, txt)
		}
	}
}

func TestMerge(t *testing.T) {
	mk := func(renderD time.Duration, pages int64) *SpanSnapshot {
		return &SpanSnapshot{
			Name:     "build_wrapper",
			Duration: 2 * renderD,
			Counters: map[string]int64{"pages": pages},
			Children: []*SpanSnapshot{{Name: "render", Duration: renderD}},
		}
	}
	m := Merge([]*SpanSnapshot{mk(10*time.Millisecond, 5), nil, mk(20*time.Millisecond, 3)})
	if m.Duration != 60*time.Millisecond {
		t.Fatalf("merged duration = %v", m.Duration)
	}
	if m.Counters["pages"] != 8 {
		t.Fatalf("merged counters = %v", m.Counters)
	}
	r := m.Find("render")
	if r == nil || r.Duration != 30*time.Millisecond {
		t.Fatalf("merged render = %+v", r)
	}
	if Merge(nil) != nil {
		t.Fatalf("Merge(nil) != nil")
	}
}
