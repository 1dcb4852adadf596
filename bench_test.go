package mse

// Benchmark harness: one benchmark per table / figure / quantitative claim
// of the paper's evaluation (Section 6), as indexed in DESIGN.md.  The
// benchmarks print the regenerated rows once per run (on the first
// iteration) and measure the cost of the underlying computation, so
//
//	go test -bench=. -benchmem
//
// both regenerates the paper's results and reports throughput.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mse/internal/baseline"
	"mse/internal/core"
	"mse/internal/editdist"
	"mse/internal/eval"
	"mse/internal/excache"
	"mse/internal/serve"
	"mse/internal/synth"
)

var benchBed = struct {
	once    sync.Once
	engines []*synth.Engine
}{}

func testbed() []*synth.Engine {
	benchBed.once.Do(func() {
		benchBed.engines = synth.GenerateTestbed(synth.DefaultConfig())
	})
	return benchBed.engines
}

func mseRun(engines []*synth.Engine, multiOnly bool, opt core.Options, sampleCount int) eval.Result {
	return eval.Run(engines, eval.RunConfig{
		SampleCount: sampleCount,
		PageCount:   10,
		MultiOnly:   multiOnly,
		NewExtractor: func() eval.Extractor {
			return eval.NewMSE(opt)
		},
	})
}

func printSection(b *testing.B, title string, res eval.Result) {
	b.Logf("%s\n%s", title, eval.Header())
	for _, row := range res.Rows() {
		b.Logf("%s", row.Format())
	}
}

// BenchmarkTable1SectionExtractionAll regenerates Table 1: section
// extraction recall/precision (perfect and total) over all 119 engines,
// 1190 pages, split into sample and test pages.
func BenchmarkTable1SectionExtractionAll(b *testing.B) {
	engines := testbed()
	var res eval.Result
	for i := 0; i < b.N; i++ {
		res = mseRun(engines, false, core.DefaultOptions(), 5)
	}
	printSection(b, "Table 1 (paper: perfect R/P 84.3/80.6, total R/P 97.6/93.2)", res)
}

// BenchmarkTable2SectionExtractionMulti regenerates Table 2: the same
// evaluation restricted to the 38 multi-section engines.
func BenchmarkTable2SectionExtractionMulti(b *testing.B) {
	engines := testbed()
	var res eval.Result
	for i := 0; i < b.N; i++ {
		res = mseRun(engines, true, core.DefaultOptions(), 5)
	}
	printSection(b, "Table 2 (paper: perfect R/P 81.0/78.5, total R/P 96.1/93.1)", res)
}

// BenchmarkTable3RecordExtraction regenerates Table 3: record-level recall
// and precision within perfectly and partially correctly extracted
// sections.
func BenchmarkTable3RecordExtraction(b *testing.B) {
	engines := testbed()
	var res eval.Result
	for i := 0; i < b.N; i++ {
		res = mseRun(engines, false, core.DefaultOptions(), 5)
	}
	b.Logf("Table 3 (paper: recall 98.7, precision 98.8)\n%s", eval.RecordHeader())
	for _, row := range res.Rows() {
		b.Logf("%s", row.RecordFormat())
	}
}

// BenchmarkWrapperConstruction measures wrapper construction from five
// sample pages of one engine — the paper reports 20-50 s on a 1.3 GHz
// Pentium M.
func BenchmarkWrapperConstruction(b *testing.B) {
	e := synth.NewEngine(2006, 3, true)
	var samples []SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(samples, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWrapperApplication measures extraction from one new result page
// with a prebuilt wrapper — the paper reports "a small fraction of a
// second".
func BenchmarkWrapperApplication(b *testing.B) {
	e := synth.NewEngine(2006, 3, true)
	var samples []SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	w, err := Train(samples, nil)
	if err != nil {
		b.Fatal(err)
	}
	gp := e.Page(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Extract(gp.HTML, gp.Query)
	}
}

// BenchmarkTestbedStatistics regenerates the test-bed statistics quoted in
// §1-2: the multi-section engine fraction and boundary-marker coverage.
func BenchmarkTestbedStatistics(b *testing.B) {
	var multi, total, withLBM, sections int
	for i := 0; i < b.N; i++ {
		engines := synth.GenerateTestbed(synth.DefaultConfig())
		multi, total, withLBM, sections = 0, 0, 0, 0
		for _, e := range engines {
			total++
			if e.MultiSection() {
				multi++
			}
			for _, ss := range e.Schema.Sections {
				sections++
				if ss.HasLBM {
					withLBM++
				}
			}
		}
	}
	b.Logf("multi-section engines: %d/%d = %.1f%% (paper: 19%% of dataset 2; 38/119 overall)",
		multi, total, 100*float64(multi)/float64(total))
	b.Logf("sections with SBMs: %d/%d = %.1f%% (paper: 96.9%%)",
		withLBM, sections, 100*float64(withLBM)/float64(sections))
}

// BenchmarkAblationComponents quantifies what refinement (Step 4) and
// granularity resolution (Step 6) contribute, on the multi-section
// engines.
func BenchmarkAblationComponents(b *testing.B) {
	engines := testbed()
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"full", core.DefaultOptions()},
		{"no-refine", func() core.Options { o := core.DefaultOptions(); o.DisableRefine = true; return o }()},
		{"no-granularity", func() core.Options { o := core.DefaultOptions(); o.DisableGranularity = true; return o }()},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var res eval.Result
			for i := 0; i < b.N; i++ {
				res = mseRun(engines, true, v.opt, 5)
			}
			tt := res.Total()
			b.Logf("%s: R-Tot %.1f%%  P-Tot %.1f%%", v.name,
				100*tt.RecallTotal(), 100*tt.PrecisionTotal())
		})
	}
}

// BenchmarkAblationSectionFamily isolates the section-family contribution
// (Step 9): evaluation restricted to pages holding a section that was
// hidden from the sample pages, with families on and off.
func BenchmarkAblationSectionFamily(b *testing.B) {
	engines := testbed()
	// Keep only engines that actually produce a hidden-section case.
	var hidden []*synth.Engine
	for _, e := range engines {
		seen := map[int]bool{}
		for q := 0; q < 5; q++ {
			for _, s := range e.Page(q).Truth.Sections {
				seen[s.SchemaIndex] = true
			}
		}
		for q := 5; q < 10; q++ {
			for _, s := range e.Page(q).Truth.Sections {
				if !seen[s.SchemaIndex] {
					hidden = append(hidden, e)
					q = 10
					break
				}
			}
		}
	}
	if len(hidden) == 0 {
		b.Skip("no hidden-section engines in the test bed")
	}
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"families-on", core.DefaultOptions()},
		{"families-off", func() core.Options { o := core.DefaultOptions(); o.DisableFamilies = true; return o }()},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var res eval.Result
			for i := 0; i < b.N; i++ {
				res = mseRun(hidden, false, v.opt, 5)
			}
			tt := res.Total()
			b.Logf("%s over %d hidden-section engines: R-Tot %.1f%%  P-Tot %.1f%%",
				v.name, len(hidden), 100*tt.RecallTotal(), 100*tt.PrecisionTotal())
		})
	}
}

// BenchmarkAblationWParameter sweeps the W threshold of §5.3/§5.5 around
// the paper's 1.8.
func BenchmarkAblationWParameter(b *testing.B) {
	engines := testbed()
	for _, wv := range []float64{1.0, 1.4, 1.8, 2.2, 3.0} {
		wv := wv
		b.Run(fmt.Sprintf("W=%.1f", wv), func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.Refine.W = wv
			opt.Granularity.W = wv
			var res eval.Result
			for i := 0; i < b.N; i++ {
				res = mseRun(engines, true, opt, 5)
			}
			tt := res.Total()
			b.Logf("W=%.1f: R-Tot %.1f%%  P-Tot %.1f%%", wv,
				100*tt.RecallTotal(), 100*tt.PrecisionTotal())
		})
	}
}

// BenchmarkAblationSampleCount varies the number of sample pages used for
// wrapper construction.
func BenchmarkAblationSampleCount(b *testing.B) {
	engines := testbed()
	for _, n := range []int{2, 3, 4, 5} {
		n := n
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			var res eval.Result
			for i := 0; i < b.N; i++ {
				res = mseRun(engines, false, core.DefaultOptions(), n)
			}
			tt := res.Total()
			b.Logf("%d samples: R-Tot %.1f%%  P-Tot %.1f%%", n,
				100*tt.RecallTotal(), 100*tt.PrecisionTotal())
		})
	}
}

// BenchmarkBaselineMDR compares MSE with the MDR-style and single-section
// baselines on the multi-section engines (the §7 discussion).
func BenchmarkBaselineMDR(b *testing.B) {
	engines := testbed()
	systems := []struct {
		name  string
		newEx func() eval.Extractor
	}{
		{"MSE", func() eval.Extractor { return eval.NewMSE(core.DefaultOptions()) }},
		{"MDR", func() eval.Extractor { return baseline.NewMDR() }},
		{"ViNTs-single", func() eval.Extractor { return baseline.NewSingleSection() }},
	}
	for _, sys := range systems {
		sys := sys
		b.Run(sys.name, func(b *testing.B) {
			var res eval.Result
			for i := 0; i < b.N; i++ {
				res = eval.Run(engines, eval.RunConfig{
					SampleCount: 5, PageCount: 10, MultiOnly: true, NewExtractor: sys.newEx,
				})
			}
			tt := res.Total()
			b.Logf("%s: R-Tot %.1f%%  P-Tot %.1f%%", sys.name,
				100*tt.RecallTotal(), 100*tt.PrecisionTotal())
		})
	}
}

// BenchmarkTreeDistMemoization runs the full Table-1 evaluation over a
// slice of the test bed with the tree-distance memoization cache (always
// on) and logs the cache's lookup, hit and miss counters, so the cache's
// effectiveness on the pipeline's real distance workload is visible next
// to its cost.
func BenchmarkTreeDistMemoization(b *testing.B) {
	engines := testbed()[:24]
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mseRun(engines, false, core.DefaultOptions(), 5)
		}
		s := editdist.Stats()
		b.Logf("cache: lookups=%d identical=%d hits=%d misses=%d early-exits=%d hit-rate=%.1f%%",
			s.Lookups, s.Identical, s.Hits, s.Misses, s.EarlyExits, 100*s.HitRate())
	})
}

// BenchmarkParallelismScaling measures wrapper construction at explicit
// worker counts; on a single-core host the 1/2/4 worker rows coincide, and
// the differential test guarantees the outputs do regardless.
func BenchmarkParallelismScaling(b *testing.B) {
	e := synth.NewEngine(2006, 3, true)
	var samples []*core.SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.Parallelism = workers
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildWrapper(samples, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaleWrapperConstruction measures wrapper construction across a
// spread of engine complexities, reporting per-engine cost at test-bed
// scale (119 engines trains in ~1 s on one modern core, versus the paper's
// 20-50 s for a single engine on 2006 hardware).
func BenchmarkScaleWrapperConstruction(b *testing.B) {
	engines := testbed()
	// Pre-generate the sample pages so the benchmark isolates training.
	type trainSet struct{ samples []SamplePage }
	sets := make([]trainSet, 0, len(engines))
	for _, e := range engines[:24] {
		var ts trainSet
		for q := 0; q < 5; q++ {
			gp := e.Page(q)
			ts.samples = append(ts.samples, SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		sets = append(sets, ts)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := sets[i%len(sets)]
		if _, err := Train(ts.samples, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractHotPath measures one warm-wrapper extraction of a single
// page — the per-request cost of the serving fast path with pooled parse
// arenas, render scratches and apply scratches.  Run with -benchmem; the
// allocs/op figure is the PR's zero-allocation-fast-path scorecard.
func BenchmarkExtractHotPath(b *testing.B) {
	e := synth.NewEngine(2006, 5, true)
	var samples []SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	w, err := Train(samples, nil)
	if err != nil {
		b.Fatal(err)
	}
	gp := e.Page(7)
	b.SetBytes(int64(len(gp.HTML)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Extract(gp.HTML, gp.Query)
	}
}

// BenchmarkExtractHotPathParallel is the concurrent-throughput variant of
// BenchmarkExtractHotPath: GOMAXPROCS goroutines extracting at once, the
// shape of a loaded extraction service.  It exercises pool contention and
// cross-goroutine arena recycling.
func BenchmarkExtractHotPathParallel(b *testing.B) {
	e := synth.NewEngine(2006, 5, true)
	var samples []SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	w, err := Train(samples, nil)
	if err != nil {
		b.Fatal(err)
	}
	gp := e.Page(7)
	b.SetBytes(int64(len(gp.HTML)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			w.Extract(gp.HTML, gp.Query)
		}
	})
}

// BenchmarkExtractionThroughput measures steady-state extraction pages/sec
// with a warm wrapper — the serving-path cost of the metasearch and
// deep-crawl applications.
func BenchmarkExtractionThroughput(b *testing.B) {
	e := synth.NewEngine(2006, 5, true)
	var samples []SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	w, err := Train(samples, nil)
	if err != nil {
		b.Fatal(err)
	}
	var pages []*synth.GenPage
	for q := 5; q < 10; q++ {
		pages = append(pages, e.Page(q))
	}
	totalBytes := 0
	for _, gp := range pages {
		totalBytes += len(gp.HTML)
	}
	b.SetBytes(int64(totalBytes / len(pages)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gp := pages[i%len(pages)]
		w.Extract(gp.HTML, gp.Query)
	}
}

// benchServeRegistry builds a serving registry with one trained wrapper
// ("bench") over the BenchmarkExtractHotPath engine.  cacheBytes > 0
// installs the content-addressed result cache.
func benchServeRegistry(b *testing.B, cacheBytes int64) (*serve.Registry, *synth.Engine) {
	b.Helper()
	e := synth.NewEngine(2006, 5, true)
	var samples []*core.SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	ew, err := core.BuildWrapper(samples, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(ew)
	if err != nil {
		b.Fatal(err)
	}
	reg := serve.NewRegistry(core.DefaultOptions())
	if cacheBytes > 0 {
		reg.SetCache(cacheBytes)
	}
	if err := reg.Add("bench", data); err != nil {
		b.Fatal(err)
	}
	return reg, e
}

// BenchmarkExtractCachedHotPath measures the serving path with the
// content-addressed result cache at controlled hit rates.  hit=100 is the
// pure repeat-page cost (hash + shard lookup); hit=90 and hit=99 mix in
// misses by evicting one pool entry before extracting it, so a miss pays
// the full parse/prune/render/apply pipeline plus cache refill.  Compare
// against BenchmarkExtractHotPath — the PR 6 always-miss cost — for the
// cache speedup at each hit rate.
func BenchmarkExtractCachedHotPath(b *testing.B) {
	const poolSize = 10
	run := func(missEvery int) func(b *testing.B) {
		return func(b *testing.B) {
			reg, e := benchServeRegistry(b, 64<<20)
			ctx := context.Background()
			pages := make([]*synth.GenPage, poolSize)
			keys := make([]excache.Key, poolSize)
			total := 0
			for i := range pages {
				pages[i] = e.Page(5 + i)
				keys[i] = excache.Key{
					Engine: "bench", Gen: 1,
					Hash: excache.HashPage(pages[i].HTML, pages[i].Query),
				}
				total += len(pages[i].HTML)
				if _, _, err := reg.ExtractCached(ctx, "bench", pages[i].HTML, pages[i].Query); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(total / poolSize))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := i % poolSize
				if missEvery > 0 && i%missEvery == 0 {
					reg.Cache().Remove(keys[p])
				}
				if _, _, err := reg.ExtractCached(ctx, "bench", pages[p].HTML, pages[p].Query); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("hit=100", run(0))
	b.Run("hit=99", run(100))
	b.Run("hit=90", run(10))
}

// BenchmarkExtractCachedHotPathParallel is the loaded-service shape of the
// cached path: GOMAXPROCS goroutines on a shared registry, mostly hits,
// with periodic evictions so concurrent misses on the same key exercise
// the singleflight collapse (one extraction, the rest wait for its entry).
func BenchmarkExtractCachedHotPathParallel(b *testing.B) {
	reg, e := benchServeRegistry(b, 64<<20)
	ctx := context.Background()
	gp := e.Page(7)
	key := excache.Key{Engine: "bench", Gen: 1, Hash: excache.HashPage(gp.HTML, gp.Query)}
	if _, _, err := reg.ExtractCached(ctx, "bench", gp.HTML, gp.Query); err != nil {
		b.Fatal(err)
	}
	var ops atomic.Int64
	b.SetBytes(int64(len(gp.HTML)))
	b.ReportAllocs()
	// At least 8 goroutines even on a single-P machine, so evicted keys see
	// concurrent misses and the singleflight path actually runs.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if ops.Add(1)%512 == 0 {
				reg.Cache().Remove(key)
			}
			if _, _, err := reg.ExtractCached(ctx, "bench", gp.HTML, gp.Query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	s := reg.Cache().Stats()
	b.ReportMetric(float64(s.Collapsed), "collapsed")
}

// BenchmarkExtractBatch measures POST /extract/batch amortization over the
// single-request path, end to end through HTTP.  single16 issues 16
// sequential /extract requests per op; batch16 ships the same 16 distinct
// pages in one /extract/batch request (cache off — the win is transport
// and admission amortization); dedup16 ships 16 copies of one page, which
// the within-batch content-hash dedupe collapses into a single extraction;
// warm16 is batch16 against a warmed cache (pure hit assembly).  Compare
// ns/page across the variants.
func BenchmarkExtractBatch(b *testing.B) {
	const items = 16
	type batchItem struct {
		Engine string `json:"engine"`
		Q      string `json:"q"`
		HTML   string `json:"html"`
	}
	makeBody := func(pages []*synth.GenPage) []byte {
		its := make([]batchItem, 0, items)
		for i := 0; i < items; i++ {
			gp := pages[i%len(pages)]
			its = append(its, batchItem{Engine: "bench", Q: strings.Join(gp.Query, "+"), HTML: gp.HTML})
		}
		body, err := json.Marshal(map[string]any{"items": its})
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	post := func(b *testing.B, url string, body []byte) {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	distinct := func(e *synth.Engine) []*synth.GenPage {
		pages := make([]*synth.GenPage, items)
		for i := range pages {
			pages[i] = e.Page(5 + i)
		}
		return pages
	}
	perPage := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/page")
	}

	b.Run("single16", func(b *testing.B) {
		reg, e := benchServeRegistry(b, 0)
		srv := httptest.NewServer(reg.Handler())
		defer srv.Close()
		pages := distinct(e)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, gp := range pages {
				post(b, srv.URL+"/extract?engine=bench&q="+url.QueryEscape(strings.Join(gp.Query, "+")),
					[]byte(gp.HTML))
			}
		}
		perPage(b)
	})
	b.Run("batch16", func(b *testing.B) {
		reg, e := benchServeRegistry(b, 0)
		srv := httptest.NewServer(reg.Handler())
		defer srv.Close()
		body := makeBody(distinct(e))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, srv.URL+"/extract/batch", body)
		}
		perPage(b)
	})
	b.Run("dedup16", func(b *testing.B) {
		reg, e := benchServeRegistry(b, 0)
		srv := httptest.NewServer(reg.Handler())
		defer srv.Close()
		body := makeBody([]*synth.GenPage{e.Page(7)})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, srv.URL+"/extract/batch", body)
		}
		perPage(b)
	})
	b.Run("warm16", func(b *testing.B) {
		reg, e := benchServeRegistry(b, 64<<20)
		srv := httptest.NewServer(reg.Handler())
		defer srv.Close()
		body := makeBody(distinct(e))
		post(b, srv.URL+"/extract/batch", body) // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, srv.URL+"/extract/batch", body)
		}
		perPage(b)
	})
}
