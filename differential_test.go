package mse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mse/internal/cluster"
	"mse/internal/core"
	"mse/internal/dom"
	"mse/internal/editdist"
	"mse/internal/htmlparse"
	"mse/internal/layout"
	"mse/internal/synth"
	"mse/internal/wrapper"
)

// differentialBed is the small synthetic test bed the differential tests
// share: eight engines, four of them multi-section, ten queries each.
func differentialBed() []*synth.Engine {
	return synth.GenerateTestbed(synth.Config{Seed: 2006, Engines: 8, MultiSection: 4, Queries: 10})
}

// TestDifferentialCacheAndParallelism is the end-to-end soundness check for
// the tree-distance cache and the data-parallel stages: for every engine of
// a small synthetic test bed, a serial run against a flushed (cold) cache
// is the reference, and a serial and a four-worker run against the cache
// it left warm must produce byte-identical wrappers and byte-identical
// extractions.  Cache corruption or scheduling-dependent arithmetic shows
// up as a diff here; fingerprint collisions and the cached values
// themselves are checked against the exact distance by
// TestTreeDistMatchesExactOnTestbed.
func TestDifferentialCacheAndParallelism(t *testing.T) {
	for ei, e := range differentialBed() {
		var samples []*core.SamplePage
		for q := 0; q < 5; q++ {
			gp := e.Page(q)
			samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		run := func(name string, workers int) (wrapperJSON []byte, extractions [][]byte) {
			opt := core.DefaultOptions()
			opt.Parallelism = workers
			ew, err := core.BuildWrapper(samples, opt)
			if err != nil {
				t.Fatalf("engine %d (%s): %v", ei, name, err)
			}
			wj, err := json.Marshal(ew)
			if err != nil {
				t.Fatalf("engine %d: marshal wrapper: %v", ei, err)
			}
			for q := 5; q < 10; q++ {
				gp := e.Page(q)
				sj, err := json.Marshal(ew.Extract(gp.HTML, gp.Query))
				if err != nil {
					t.Fatalf("engine %d page %d: marshal sections: %v", ei, q, err)
				}
				extractions = append(extractions, sj)
			}
			return wj, extractions
		}

		editdist.ResetCache()
		refWrapper, refPages := run("cold-serial", 1)
		for _, variant := range []struct {
			name    string
			workers int
		}{
			{"warm-serial", 1},
			{"warm-parallel", 4},
		} {
			gotWrapper, gotPages := run(variant.name, variant.workers)
			if !bytes.Equal(gotWrapper, refWrapper) {
				t.Errorf("engine %d: %s wrapper differs from reference\nref: %s\ngot: %s",
					ei, variant.name, truncate(refWrapper), truncate(gotWrapper))
			}
			for pi := range refPages {
				if !bytes.Equal(gotPages[pi], refPages[pi]) {
					t.Errorf("engine %d page %d: %s extraction differs from reference\nref: %s\ngot: %s",
						ei, pi, variant.name, truncate(refPages[pi]), truncate(gotPages[pi]))
				}
			}
		}
	}
}

// TestTreeDistMatchesExactOnTestbed checks the tree-distance cache against
// the exact Zhang-Shasha distance over every element subtree of the
// differential bed's fresh and drifted pages.  The cache trusts
// fingerprint equality (distance 0, shared cache entries), so subtrees
// with equal fingerprints must have equal preorder label serializations —
// a collision would fail here.  On a deterministic sample of pairs of
// small distinct subtrees (one per fingerprint), TreeDist must equal TreeEditDistance normalized by the larger size, and
// WithinTreeDist must agree with the exact comparison at every threshold.
func TestTreeDistMatchesExactOnTestbed(t *testing.T) {
	var serialize func(sb *strings.Builder, n *dom.Node)
	serialize = func(sb *strings.Builder, n *dom.Node) {
		sb.WriteString(n.Label())
		sb.WriteByte('(')
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			serialize(sb, c)
		}
		sb.WriteByte(')')
	}
	seen := map[dom.Fingerprint]string{}
	var small []*dom.Node
	subtrees := 0
	for ei, e := range differentialBed() {
		for _, src := range []*synth.Engine{e, e.Drifted()} {
			for q := 0; q < 10; q++ {
				htmlparse.Parse(src.Page(q).HTML).Walk(func(n *dom.Node) bool {
					if n.Type != dom.ElementNode {
						return true
					}
					subtrees++
					var sb strings.Builder
					serialize(&sb, n)
					fp := n.Fingerprint()
					prev, ok := seen[fp]
					if !ok {
						seen[fp] = sb.String()
						if fp.Size <= 32 {
							small = append(small, n)
						}
					} else if prev != sb.String() {
						t.Fatalf("engine %d page %d: fingerprint collision %+v:\n%.200s\n%.200s",
							ei, q, fp, prev, sb.String())
					}
					return true
				})
			}
		}
	}

	r := rand.New(rand.NewSource(2006))
	const pairs = 3000
	for i := 0; i < pairs; i++ {
		a, b := small[r.Intn(len(small))], small[r.Intn(len(small))]
		maxSize := a.Size()
		if s := b.Size(); s > maxSize {
			maxSize = s
		}
		exact := float64(editdist.TreeEditDistance(a, b)) / float64(maxSize)
		if got := editdist.TreeDist(a, b); got != exact {
			t.Fatalf("pair %d: TreeDist = %v, exact %v", i, got, exact)
		}
		for k := 0; k <= 10; k++ {
			eps := float64(k) / 10
			if got, want := editdist.WithinTreeDist(a, b, eps), exact <= eps; got != want {
				t.Fatalf("pair %d: WithinTreeDist(eps=%v) = %v, exact %v", i, eps, got, exact)
			}
		}
	}
	t.Logf("%d element subtrees, %d distinct fingerprints (%d small); %d pairs checked",
		subtrees, len(seen), len(small), pairs)
}

// TestDifferentialCacheHitRepeatability re-runs one engine's pipeline with a
// warm cache: answers served from resident entries must reproduce the
// first (cache-filling) run exactly.
func TestDifferentialCacheHitRepeatability(t *testing.T) {
	editdist.ResetCache()

	e := synth.NewEngine(2006, 1, true)
	var samples []*core.SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	var first []byte
	for i := 0; i < 3; i++ {
		ew, err := core.BuildWrapper(samples, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		wj, err := json.Marshal(ew)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = wj
		} else if !bytes.Equal(wj, first) {
			t.Fatalf("run %d differs from the cache-filling run", i)
		}
	}
	if s := editdist.Stats(); s.Hits+s.Identical == 0 {
		t.Fatalf("warm runs never hit the cache: %+v", s)
	}
}

func truncate(b []byte) string {
	const max = 400
	if len(b) <= max {
		return string(b)
	}
	return fmt.Sprintf("%s... (%d bytes)", b[:max], len(b))
}

// TestDifferentialArenas is the soundness check for the zero-allocation
// fast path: for every engine of a small synthetic test bed, the wrapper
// BuildWrapper induces over pooled parse arenas and render scratches must
// serialize byte-identically to the reference wrapper built from the
// unpooled core.AnalyzePages through steps 7-9, and the pooled extraction
// (arenas, pooled render, pooled apply scratch) must match the reference
// extraction over an unpooled parse and render.  Interning bugs, arena
// aliasing, stale pooled state or a divergence in the byte-oriented text
// normalization all show up as a diff here.
func TestDifferentialArenas(t *testing.T) {
	for ei, e := range differentialBed() {
		var samples []*core.SamplePage
		for q := 0; q < 5; q++ {
			gp := e.Page(q)
			samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		ref := referenceWrapper(t, samples, core.DefaultOptions())
		refWrapper, err := json.Marshal(ref)
		if err != nil {
			t.Fatalf("engine %d: marshal reference wrapper: %v", ei, err)
		}
		var refPages [][]byte
		for q := 5; q < 10; q++ {
			gp := e.Page(q)
			refPages = append(refPages, referenceExtract(t, ref, gp.HTML, gp.Query))
		}
		// Two pooled runs back to back: the second reuses arenas and
		// scratches recycled by the first, so stale pooled state cannot
		// hide behind a cold pool.
		for round := 0; round < 2; round++ {
			ew, err := core.BuildWrapper(samples, core.DefaultOptions())
			if err != nil {
				t.Fatalf("engine %d round %d: %v", ei, round, err)
			}
			gotWrapper, err := json.Marshal(ew)
			if err != nil {
				t.Fatalf("engine %d: marshal wrapper: %v", ei, err)
			}
			if !bytes.Equal(gotWrapper, refWrapper) {
				t.Errorf("engine %d round %d: pooled wrapper differs from reference\nref: %s\ngot: %s",
					ei, round, truncate(refWrapper), truncate(gotWrapper))
			}
			for pi, ref := range refPages {
				gp := e.Page(5 + pi)
				got, err := json.Marshal(ew.Extract(gp.HTML, gp.Query))
				if err != nil {
					t.Fatalf("engine %d page %d: marshal sections: %v", ei, 5+pi, err)
				}
				if !bytes.Equal(got, ref) {
					t.Errorf("engine %d page %d round %d: pooled extraction differs from reference\nref: %s\ngot: %s",
						ei, 5+pi, round, truncate(ref), truncate(got))
				}
			}
		}
	}
}

// referenceWrapper runs steps 1-6 through the unpooled core.AnalyzePages
// and steps 7-9 exactly as BuildWrapper does: the non-pooled reference
// build.
func referenceWrapper(t *testing.T, samples []*core.SamplePage, opt core.Options) *core.EngineWrapper {
	t.Helper()
	pages, err := core.AnalyzePages(samples, opt)
	if err != nil {
		t.Fatal(err)
	}
	groups := cluster.GroupInstances(pages, opt.Cluster)
	avgStart := func(g *cluster.Group) float64 {
		sum := 0
		for _, inst := range g.Instances {
			sum += inst.Section.Start
		}
		return float64(sum) / float64(len(g.Instances))
	}
	sort.SliceStable(groups, func(i, j int) bool { return avgStart(groups[i]) < avgStart(groups[j]) })
	var ws []*wrapper.SectionWrapper
	for order, g := range groups {
		ws = append(ws, wrapper.Build(g, pages, order, opt.Wrapper))
	}
	ws, fams := wrapper.BuildFamilies(ws, opt.Wrapper)
	ew := &core.EngineWrapper{Wrappers: ws, Families: fams}
	ew.SetOptions(opt)
	return ew
}

// referenceExtract is the interpreted reference extraction: an unpooled
// parse and full render, then every wrapper and family locating its own
// candidates.
func referenceExtract(t *testing.T, ew *core.EngineWrapper, html string, query []string) []byte {
	t.Helper()
	b, err := json.Marshal(ew.ExtractFromPage(layout.Render(htmlparse.Parse(html)), query))
	if err != nil {
		t.Fatalf("marshal reference sections: %v", err)
	}
	return b
}

// TestDifferentialLeasedExtraction checks the serving-path lease contract:
// sections returned by ExtractLeased must compare byte-identical before
// and after the lease is released, and repeated leased extractions of the
// same page through the recycled pools must reproduce each other exactly.
func TestDifferentialLeasedExtraction(t *testing.T) {
	e := synth.NewEngine(2006, 3, true)
	var samples []*core.SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	ew, err := core.BuildWrapper(samples, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gp := e.Page(7)
	var first []byte
	for i := 0; i < 5; i++ {
		sections, lease := ew.ExtractLeased(gp.HTML, gp.Query)
		before, err := json.Marshal(sections)
		if err != nil {
			t.Fatal(err)
		}
		lease.Release()
		lease.Release() // idempotent
		after, err := json.Marshal(sections)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("iteration %d: sections changed after lease release\nbefore: %s\nafter:  %s",
				i, truncate(before), truncate(after))
		}
		if first == nil {
			first = before
		} else if !bytes.Equal(before, first) {
			t.Fatalf("iteration %d differs from the first leased extraction", i)
		}
	}
}

// TestDifferentialCompiledWrappers is the soundness check for the compiled
// extraction path (wrapper compilation + query-aware DOM pruning): across
// the full paper-scale synthetic testbed — 119 engines, 38 multi-section —
// every extraction through ew.Extract (prune pass, pruned render with
// skeleton lines and early stop, interned-signature partitioning,
// precompiled boundary markers) must be byte-identical to the interpreted
// reference, ExtractFromPage over an unpooled, unpruned render.  Drifted
// variants of every engine run too, so the fallback machinery (signature
// descend, tag-level classification, cohesion mining on skeleton-free
// ranges) is differential-tested, not just the happy path.  Compilation
// must also leave the wrapper's serialized form untouched.
func TestDifferentialCompiledWrappers(t *testing.T) {
	bed := synth.GenerateTestbed(synth.DefaultConfig())
	if testing.Short() {
		bed = bed[:12]
	}
	for ei, e := range bed {
		var samples []*core.SamplePage
		for q := 0; q < 5; q++ {
			gp := e.Page(q)
			samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		ew, err := core.BuildWrapper(samples, core.DefaultOptions())
		if err != nil {
			t.Fatalf("engine %d: %v", ei, err)
		}
		wjBefore, err := json.Marshal(ew)
		if err != nil {
			t.Fatalf("engine %d: marshal wrapper: %v", ei, err)
		}
		drifted := e.Drifted()
		compare := func(html string, query []string, what string, q int) {
			ref := referenceExtract(t, ew, html, query)
			got, err := json.Marshal(ew.Extract(html, query))
			if err != nil {
				t.Fatalf("engine %d %s page %d: marshal compiled: %v", ei, what, q, err)
			}
			if !bytes.Equal(got, ref) {
				t.Errorf("engine %d %s page %d: compiled extraction differs\nref: %s\ngot: %s",
					ei, what, q, truncate(ref), truncate(got))
			}
		}
		for q := 5; q < 10; q++ {
			gp := e.Page(q)
			compare(gp.HTML, gp.Query, "fresh", q)
			dp := drifted.Page(q)
			compare(dp.HTML, dp.Query, "drifted", q)
		}
		wjAfter, err := json.Marshal(ew)
		if err != nil {
			t.Fatalf("engine %d: re-marshal wrapper: %v", ei, err)
		}
		if !bytes.Equal(wjBefore, wjAfter) {
			t.Errorf("engine %d: compilation changed the wrapper's serialized form", ei)
		}
	}
}
