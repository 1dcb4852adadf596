package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"mse/internal/cluster"
	"mse/internal/core"
	"mse/internal/dom"
	"mse/internal/dse"
	"mse/internal/editdist"
	"mse/internal/granularity"
	"mse/internal/htmlparse"
	"mse/internal/layout"
	"mse/internal/mining"
	"mse/internal/mre"
	"mse/internal/prune"
	"mse/internal/refine"
	"mse/internal/sect"
	"mse/internal/wrapper"
)

// tracedBuild is core.BuildWrapper at Parallelism 1 taken apart: the nine
// paper steps called one by one through each layer's public functions,
// each call under its own span.
func tracedBuild(t *tracer, req int32, samples []*core.SamplePage) (*core.EngineWrapper, error) {
	opt := core.DefaultOptions()
	opt.Parallelism = 1
	root := t.begin("core.build", req, -1)
	defer t.end(root)
	type lease struct {
		page  *layout.Page
		arena *dom.Arena
	}
	leases := make([]lease, len(samples))
	defer func() {
		for _, l := range leases {
			if l.page != nil {
				l.page.Release()
			}
			if l.arena != nil {
				l.arena.Release()
			}
		}
	}()
	inputs := make([]*dse.PageInput, len(samples))
	for i, s := range samples {
		sp := t.begin("htmlparse.parse_full", req, root)
		doc, arena := htmlparse.ParsePooled(s.HTML)
		t.end(sp)
		leases[i].arena = arena
		sp = t.begin("layout.render_full", req, root)
		page := layout.RenderPooledCancel(doc, nil)
		t.end(sp)
		leases[i].page = page
		sp = t.begin("mre.extract", req, root)
		mrs := mre.Extract(page, opt.MRE)
		t.end(sp)
		inputs[i] = &dse.PageInput{Page: page, Query: s.Query, MRs: mrs}
	}
	sp := t.begin("dse.run", req, root)
	dss, marks := dse.Run(inputs, opt.DSE)
	t.end(sp)
	pages := make([]*cluster.PageSections, len(samples))
	for i, in := range inputs {
		sp := t.begin("refine.refine", req, root)
		sections := refine.Refine(in.Page, in.MRs, dss[i], marks[i], opt.Refine)
		t.end(sp)
		sp = t.begin("mining.mine", req, root)
		for _, s := range sections {
			if len(s.Records) == 0 {
				mining.Mine(s, opt.Mining)
			}
		}
		t.end(sp)
		sp = t.begin("granularity.resolve", req, root)
		sections = granularity.Resolve(in.Page, sections, opt.Granularity)
		t.end(sp)
		pages[i] = &cluster.PageSections{Page: in.Page, Query: in.Query, Sections: dropEmpty(sections)}
	}
	clOpt := opt.Cluster
	if clOpt.Parallelism == 0 {
		clOpt.Parallelism = opt.Parallelism
	}
	sp = t.begin("cluster.group", req, root)
	groups := cluster.GroupInstances(pages, clOpt)
	t.end(sp)
	sp = t.begin("wrapper.build", req, root)
	sort.SliceStable(groups, func(i, j int) bool { return avgStart(groups[i]) < avgStart(groups[j]) })
	ws := make([]*wrapper.SectionWrapper, 0, len(groups))
	for order, g := range groups {
		ws = append(ws, wrapper.Build(g, pages, order, opt.Wrapper))
	}
	ws, fams := wrapper.BuildFamilies(ws, opt.Wrapper)
	t.end(sp)
	return &core.EngineWrapper{Wrappers: ws, Families: fams}, nil
}

func dropEmpty(sections []*sect.Section) []*sect.Section {
	out := sections[:0]
	for _, s := range sections {
		if s.Len() > 0 && len(s.Records) > 0 {
			out = append(out, s)
		}
	}
	return out
}

func avgStart(g *cluster.Group) float64 {
	total := 0
	for _, inst := range g.Instances {
		total += inst.Section.Start
	}
	return float64(total) / float64(len(g.Instances))
}

// buildReplay is the outcome of the traced build replay.
type buildReplay struct {
	metrics map[string]float64
	checks  []string
	lines   []string
}

// replayBuild decomposes the first n build cases.  Each case is built
// three ways in rotating order — core.BuildWrapper at the default
// parallelism, core.BuildWrapper at Parallelism 1, and the traced serial
// decomposition — each from a cold tree-distance cache.  The decomposed
// wrapper must serialize byte for byte like the serial build's.
func replayBuild(ctx context.Context, t *tracer, cases []*buildCase, reqBase int32) (*buildReplay, error) {
	out := &buildReplay{metrics: map[string]float64{}}
	serialOpt := core.DefaultOptions()
	serialOpt.Parallelism = 1
	var serial, parallelMS, treeCalls, layerSums []float64
	var lookups, hits int64
	mismatches := 0
	pruneRuns0 := prune.StatsSnapshot().Runs
	for k, c := range cases {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var ref, got []byte
		for step := 0; step < 3; step++ {
			editdist.ResetCache()
			switch (k + step) % 3 {
			case 0:
				start := time.Now()
				if _, err := core.BuildWrapper(c.samples, core.DefaultOptions()); err != nil {
					return nil, err
				}
				parallelMS = append(parallelMS, ms(time.Since(start)))
			case 1:
				start := time.Now()
				ew, err := core.BuildWrapper(c.samples, serialOpt)
				if err != nil {
					return nil, err
				}
				serial = append(serial, ms(time.Since(start)))
				if ref, err = json.Marshal(ew); err != nil {
					return nil, err
				}
			case 2:
				calls0 := editdist.TreeCalls()
				mark := len(t.spans)
				ew, err := tracedBuild(t, reqBase+int32(k), c.samples)
				if err != nil {
					return nil, err
				}
				var layers time.Duration
				for _, s := range t.spans[mark:] {
					if s.Name != "core.build" {
						layers += time.Duration(s.End - s.Start)
					}
				}
				layerSums = append(layerSums, ms(layers))
				treeCalls = append(treeCalls, float64(editdist.TreeCalls()-calls0))
				cs := editdist.Stats()
				lookups += cs.Lookups
				hits += cs.Hits
				if got, err = json.Marshal(ew); err != nil {
					return nil, err
				}
			}
		}
		if !bytes.Equal(ref, got) {
			mismatches++
		}
	}
	if mismatches > 0 {
		out.checks = append(out.checks, fmt.Sprintf("build decomposition: %d of %d wrappers differ from core.BuildWrapper", mismatches, len(cases)))
	}
	if d := prune.StatsSnapshot().Runs - pruneRuns0; d != 0 {
		out.checks = append(out.checks, fmt.Sprintf("build replay ran %d prune passes; serve layers must stay idle", d))
	}

	m := out.metrics
	perBuild := func(name string) float64 { return medianMS(perBuildTotals(t, name)) }
	m["htmlparse.parse_full_us"] = medianUS(t.durations("htmlparse.parse_full"))
	m["layout.render_full_us"] = medianUS(t.durations("layout.render_full"))
	m["mre.extract_ms"] = perBuild("mre.extract")
	m["dse.run_ms"] = perBuild("dse.run")
	m["refine.refine_ms"] = perBuild("refine.refine")
	m["mining.mine_ms"] = perBuild("mining.mine")
	m["granularity.resolve_ms"] = perBuild("granularity.resolve")
	m["cluster.group_ms"] = perBuild("cluster.group")
	m["wrapper.build_ms"] = perBuild("wrapper.build")
	m["editdist.tree_calls"] = median(treeCalls)
	m["editdist.cache_hit_ratio"] = float64(hits) / float64(max(1, lookups))
	m["core.build_serial_ms"] = median(serial)
	m["par.speedup"] = median(serial) / median(parallelMS)
	// Accountability: the median over builds of the traced layers' sum
	// against the median untraced serial build.  Medians of the separate
	// layers would not add up (the builds are heterogeneous), and totals
	// would let one stolen-CPU stall decide.
	m["core.build_accounted_share"] = median(layerSums) / m["core.build_serial_ms"]
	if s := m["core.build_accounted_share"]; s < 0.9 || s > 1.1 {
		out.checks = append(out.checks, fmt.Sprintf("build accountability: the traced layers account for %.3f of the untraced serial build time, outside [0.9, 1.1]", s))
	}
	out.lines = append(out.lines, fmt.Sprintf("build replay: %d engines decomposed, parallel build median %.3f ms", len(cases), median(parallelMS)))
	return out, nil
}

// perBuildTotals sums the named spans per build.
func perBuildTotals(t *tracer, name string) []time.Duration {
	totals := map[int32]time.Duration{}
	for _, s := range t.spans {
		if s.Name == name {
			totals[s.Req] += time.Duration(s.End - s.Start)
		}
	}
	out := make([]time.Duration, 0, len(totals))
	for _, d := range totals {
		out = append(out, d)
	}
	return out
}
