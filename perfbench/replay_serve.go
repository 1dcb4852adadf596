package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"mse/internal/annotate"
	"mse/internal/core"
	"mse/internal/dom"
	"mse/internal/excache"
	"mse/internal/htmlparse"
	"mse/internal/layout"
	"mse/internal/prune"
	"mse/internal/quality"
	"mse/internal/relearn"
	"mse/internal/serve"
	"mse/internal/wrapper"
)

// compiled is an engine wrapper lowered the way core compiles it, built
// here from the wrapper's public fields: compiled wrappers and families
// plus one prune spec per wrapper/family, index-aligned.
type compiled struct {
	ws    []*wrapper.CompiledWrapper
	fams  []*wrapper.CompiledFamily
	specs []prune.Spec
}

func compileEngine(ew *core.EngineWrapper) *compiled {
	c := &compiled{}
	for _, w := range ew.Wrappers {
		c.ws = append(c.ws, wrapper.Compile(w))
		c.specs = append(c.specs, prune.Spec{Path: w.Pref, Wildcard: -1})
	}
	for _, f := range ew.Families {
		c.fams = append(c.fams, wrapper.CompileFamily(f))
		switch f.Type {
		case wrapper.Type1:
			c.specs = append(c.specs, prune.Spec{Path: f.Pref, Wildcard: -1})
		case wrapper.Type2:
			pat := append(append(dom.CompactPath(nil), f.Pref...), f.SPref...)
			c.specs = append(c.specs, prune.Spec{Path: pat, Wildcard: len(f.Pref)})
		default:
			c.specs = append(c.specs, prune.Spec{Path: dom.CompactPath{{Tag: "\x00none"}}, Wildcard: -1})
		}
	}
	return c
}

// The /extract wire form, as serve encodes it.
type unitJSON struct {
	Type string `json:"type"`
	Text string `json:"text"`
}

type recordJSON struct {
	Lines []string   `json:"lines"`
	Links []string   `json:"links,omitempty"`
	Units []unitJSON `json:"units,omitempty"`
}

type sectionJSON struct {
	Heading string       `json:"heading,omitempty"`
	Records []recordJSON `json:"records"`
}

type extractResponse struct {
	Engine   string        `json:"engine"`
	Sections []sectionJSON `json:"sections"`
}

// tracedFill is the serving fill path taken apart: the compiled
// extraction (parse, prune, pruned render, compiled apply), annotation of
// every record, response encoding and the drift observation, each under
// its own span.  It returns the extracted sections and the response body.
func tracedFill(t *tracer, req int32, name string, c *compiled, qt *quality.Tracker, html string, query []string, full *int, skel *int) ([]*core.Section, []byte, error) {
	root := t.begin("serve.fill", req, -1)
	ex := t.begin("core.extract", req, root)
	start := time.Now()
	sp := t.begin("htmlparse.parse", req, ex)
	doc, arena := htmlparse.ParsePooled(html)
	t.end(sp)
	sp = t.begin("prune.run", req, ex)
	res := prune.Run(doc, c.specs, nil)
	t.end(sp)
	sp = t.begin("layout.render_pruned", req, ex)
	page, info := layout.RenderPooledPruned(doc, nil, res.Outer())
	t.end(sp)
	prune.AddRendered(info.FullLines, info.SkeletonLines)
	*full += info.FullLines
	*skel += info.SkeletonLines
	wopt := core.DefaultOptions().Wrapper
	var all []*core.Section
	sp = t.begin("wrapper.apply", req, ex)
	for i, cw := range c.ws {
		if s := cw.Apply(page, res.Cands(i), query, wopt); s != nil {
			all = append(all, s)
		}
	}
	for i, cf := range c.fams {
		all = append(all, cf.ApplyCands(page, res.Cands(len(c.ws)+i), wopt)...)
	}
	t.end(sp)
	sp = t.begin("core.finish", req, ex)
	res.Release()
	sections := finishSections(all)
	t.end(sp)
	elapsed := time.Since(start)
	t.end(ex)

	resp := extractResponse{Engine: name, Sections: make([]sectionJSON, 0, len(sections))}
	records := 0
	for _, s := range sections {
		sj := sectionJSON{Heading: s.Heading, Records: make([]recordJSON, 0, len(s.Records))}
		for _, rec := range s.Records {
			rj := recordJSON{Lines: rec.Lines, Links: rec.Links}
			sp = t.begin("annotate.record", req, root)
			units := annotate.Record(rec)
			t.end(sp)
			for _, u := range units {
				rj.Units = append(rj.Units, unitJSON{Type: u.Type.String(), Text: u.Text})
			}
			sj.Records = append(sj.Records, rj)
		}
		records += len(s.Records)
		resp.Sections = append(resp.Sections, sj)
	}
	sp = t.begin("serve.encode", req, root)
	body, err := json.MarshalIndent(resp, "", "  ")
	body = append(body, '\n')
	t.end(sp)
	sp = t.begin("quality.observe", req, root)
	qt.Observe(name, quality.Observation{Sections: len(sections), Records: records, Latency: elapsed})
	t.end(sp)
	page.Release()
	arena.Release()
	t.end(root)
	return sections, body, err
}

// finishSections orders and deduplicates the per-wrapper extractions the
// way core does: by start line, regular wrappers before family matches on
// ties, dropping any section more than half covered by a kept one.
func finishSections(all []*core.Section) []*core.Section {
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Start != all[j].Start {
			return all[i].Start < all[j].Start
		}
		return !all[i].FromFamily && all[j].FromFamily
	})
	var out []*core.Section
	for _, s := range all {
		dup := false
		for _, kept := range out {
			if overlapFrac(kept, s) > 0.5 {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

func overlapFrac(a, b *core.Section) float64 {
	lo, hi := max(a.Start, b.Start), min(a.End, b.End)
	if hi <= lo {
		return 0
	}
	minLen := min(a.End-a.Start, b.End-b.Start)
	if minLen == 0 {
		return 0
	}
	return float64(hi-lo) / float64(minLen)
}

// serveReplay is the outcome of the traced in-process serve replay.
type serveReplay struct {
	metrics map[string]float64
	checks  []string // failed correctness or accountability checks
	lines   []string // human-readable notes
}

// replayServe replays the first n open-loop requests of the stream
// in-process.  Every distinct page goes through three paths in rotating
// order — the untraced core.ExtractLeased, the traced decomposition of the
// fill path and the untraced cache-less serve.Registry.ExtractCached —
// plus the reservoir feed and the cache hash and lookup.  Then every
// request, repeats included, goes through a serve.Registry.Handler()
// configured like the server, over httptest with no socket.
func replayServe(ctx context.Context, t *tracer, tb *testbed, wrappers [][]byte, st *stream, w workloadSpec, n int) (*serveReplay, error) {
	out := &serveReplay{metrics: map[string]float64{}}
	n = min(n, len(st.open))
	reqs := st.open[:n]

	ews := make([]*core.EngineWrapper, len(wrappers))
	cs := make([]*compiled, len(wrappers))
	fillReg := serve.NewRegistry(core.DefaultOptions())
	handlerReg := serve.NewRegistry(core.DefaultOptions())
	handlerReg.SetLimits(2*runtime.GOMAXPROCS(0), time.Second)
	handlerReg.SetCache(w.cacheBytes)
	ctrl := handlerReg.EnableRelearn(relearn.DefaultConfig())
	defer ctrl.Close()
	for i, data := range wrappers {
		ew := &core.EngineWrapper{}
		if err := json.Unmarshal(data, ew); err != nil {
			return nil, err
		}
		ew.SetOptions(core.DefaultOptions())
		ews[i], cs[i] = ew, compileEngine(ew)
		if err := fillReg.Add(tb.names[i], data); err != nil {
			return nil, err
		}
		if err := handlerReg.Add(tb.names[i], data); err != nil {
			return nil, err
		}
	}
	qt := quality.NewTracker(quality.DefaultConfig())
	rc := relearn.NewController(relearn.DefaultConfig(), relearn.Hooks{
		Build: func(context.Context, []*core.SamplePage) (*core.EngineWrapper, error) {
			return nil, fmt.Errorf("relearn is not exercised by the replay")
		},
		Swap: func(string, []byte) error { return fmt.Errorf("relearn is not exercised by the replay") },
	})
	defer rc.Close()
	hc := excache.New(1 << 30)

	var order []int // distinct pages in first-use order
	seen := map[int]bool{}
	for _, r := range reqs {
		for _, pi := range r.pages {
			if !seen[pi] {
				seen[pi] = true
				order = append(order, pi)
			}
		}
	}
	var (
		extract, fill, remainder, hash, get, observe []float64
		missLayers                                   = map[int]time.Duration{}
		sumMiss, sumFill                             time.Duration
		extractLayers                                []float64
		full, skel                                   int
		mismatches                                   int
	)
	for k, pi := range order {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		p := st.pages[pi]
		name, html, query := tb.names[p.engine], p.html, p.terms
		req := int32(k)
		var dExtract, dFill, dAnnotate, dObserve time.Duration
		var refSecs, secs []*core.Section
		var body, fillBody []byte
		var err error
		for step := 0; step < 3; step++ {
			switch (k + step) % 3 {
			case 0:
				start := time.Now()
				s, lease := ews[p.engine].ExtractLeased(html, query)
				dExtract = time.Since(start)
				lease.Release()
				refSecs = s
			case 1:
				mark := len(t.spans)
				secs, body, err = tracedFill(t, req, name, cs[p.engine], qt, html, query, &full, &skel)
				if err != nil {
					return nil, err
				}
				var layers, finish time.Duration
				for _, s := range t.spans[mark:] {
					d := time.Duration(s.End - s.Start)
					switch s.Name {
					case "htmlparse.parse", "prune.run", "layout.render_pruned", "wrapper.apply":
						layers += d
					case "core.finish":
						finish = d
					case "annotate.record":
						dAnnotate += d
					case "quality.observe":
						dObserve = d
					}
				}
				missLayers[pi] = layers
				extractLayers = append(extractLayers, us(layers+finish))
			case 2:
				start := time.Now()
				if fillBody, _, err = fillReg.ExtractCached(ctx, name, html, query); err != nil {
					return nil, err
				}
				dFill = time.Since(start)
			}
		}
		if !sameSections(secs, refSecs) || sha256.Sum256(body) != p.ref || sha256.Sum256(fillBody) != p.ref {
			mismatches++
		}
		extract = append(extract, us(dExtract))
		fill = append(fill, us(dFill))
		remainder = append(remainder, us(dFill-dExtract-dAnnotate-dObserve))
		sumFill += dFill
		sumMiss += missLayers[pi]

		start := time.Now()
		rc.ObservePage(name, html, query)
		observe = append(observe, us(time.Since(start)))
		start = time.Now()
		h := excache.HashPage(html, query)
		hash = append(hash, us(time.Since(start)))
		key := excache.Key{Engine: name, Gen: 1, Hash: h}
		if _, _, _, err := hc.Do(ctx, key, func() (*excache.Entry, error) { return &excache.Entry{Body: fillBody}, nil }); err != nil {
			return nil, err
		}
		start = time.Now()
		if _, ok := hc.Get(key); !ok {
			return nil, fmt.Errorf("excache: resident key missing")
		}
		get = append(get, us(time.Since(start)))
	}
	if mismatches > 0 {
		out.checks = append(out.checks, fmt.Sprintf("serve decomposition: %d of %d pages differ from ExtractLeased or the reference body", mismatches, len(order)))
	}

	// Handler replay, every request in stream order.
	mismatches = 0
	handler := handlerReg.Handler()
	var handlerUS, batchItemUS []float64
	var sumHandler, sumHandlerMiss time.Duration
	for _, r := range reqs {
		misses0 := handlerReg.Cache().Stats().Misses
		hreq := httptest.NewRequest(http.MethodPost, r.url, strings.NewReader(r.body))
		rec := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rec, hreq)
		d := time.Since(start)
		sumHandler += d
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("handler replay: %s answered %d", r.url, rec.Code)
		}
		if !r.batch {
			handlerUS = append(handlerUS, us(d))
			if sha256.Sum256(rec.Body.Bytes()) != st.pages[r.pages[0]].ref {
				mismatches++
			}
			if handlerReg.Cache().Stats().Misses > misses0 {
				sumHandlerMiss += missLayers[r.pages[0]]
			}
			continue
		}
		batchItemUS = append(batchItemUS, us(d)/float64(len(r.pages)))
		var br struct {
			Results []struct {
				Cached bool `json:"cached"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || len(br.Results) != len(r.pages) {
			return nil, fmt.Errorf("handler replay: bad batch response")
		}
		for j, it := range br.Results {
			if !it.Cached {
				sumHandlerMiss += missLayers[r.pages[j]]
			}
		}
	}
	if mismatches > 0 {
		out.checks = append(out.checks, fmt.Sprintf("handler replay: %d responses differ from the reference", mismatches))
	}

	m := out.metrics
	m["htmlparse.parse_us"] = medianUS(t.durations("htmlparse.parse"))
	m["prune.run_us"] = medianUS(t.durations("prune.run"))
	m["layout.render_pruned_us"] = medianUS(t.durations("layout.render_pruned"))
	m["wrapper.apply_us"] = medianUS(t.durations("wrapper.apply"))
	m["prune.full_line_share"] = float64(full) / float64(max(1, full+skel))
	m["core.extract_us"] = median(extract)
	m["annotate.record_us"] = medianUS(t.durations("annotate.record"))
	m["quality.observe_us"] = medianUS(t.durations("quality.observe"))
	m["serve.fill_us"] = median(fill)
	m["serve.encode_us"] = median(remainder)
	m["excache.hash_us"] = median(hash)
	m["excache.get_us"] = median(get)
	m["relearn.observe_page_us"] = median(observe)
	m["serve.handler_us"] = median(handlerUS)
	m["serve.batch_item_us"] = median(batchItemUS)

	// Accountability: the median over pages of the traced layers' sum —
	// core's own ordering and dedupe of the sections counted as one more
	// span — against the median untraced extraction.  Medians of the
	// separate layers would not add up (the pages are heterogeneous), and
	// totals would let one stolen-CPU stall decide.  Then the traced
	// extraction against the untraced one.
	m["core.extract_accounted_share"] = median(extractLayers) / m["core.extract_us"]
	m["trace.overhead_pct"] = 100 * (medianUS(t.durations("core.extract"))/m["core.extract_us"] - 1)
	m["serve.miss_path_fill_share"] = float64(sumMiss) / float64(sumFill)
	m["serve.miss_path_server_share"] = float64(sumHandlerMiss) / float64(sumHandler)
	if s := m["core.extract_accounted_share"]; s < 0.9 || s > 1.1 {
		out.checks = append(out.checks, fmt.Sprintf("serve accountability: the traced layers account for %.3f of the untraced extraction time, outside [0.9, 1.1]", s))
	}
	out.lines = append(out.lines, fmt.Sprintf("serve replay: %d requests, %d distinct pages decomposed, %d handler calls (%d single, %d batch)",
		n, len(order), len(reqs), len(handlerUS), len(batchItemUS)))
	return out, nil
}

// sameSections reports whether two extractions are identical.
func sameSections(a, b []*core.Section) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}
