package main

import (
	"context"
	"math/rand"
	"time"

	"mse/internal/core"
	"mse/internal/editdist"
	"mse/internal/eval"
	"mse/internal/synth"
)

// featureMix is the scenario engines' difficulty mix the build phase
// draws from: a plain engine and each single pathology.
var featureMix = []synth.Features{
	{},
	{CJK: true},
	{DeepNesting: 3},
	{MissingHeadings: true},
	{FalseSBM: true},
	{HiddenSections: true},
}

// buildCase is one freshly synthesized engine: the sample pages its
// wrapper is induced from and the held-out pages the wrapper is scored on.
type buildCase struct {
	samples []*core.SamplePage
	holdout []*synth.GenPage
}

// newBuildCases synthesizes engines lo..hi-1 of a fixed population with
// the feature mix and the testbed's share of multi-section schemas.  The
// seed picks which of each engine's result pages are the samples and
// which are held out.
func newBuildCases(seed int64, lo, hi int) []*buildCase {
	qBase := int(seed%2000) * 1000
	cfg := synth.DefaultConfig()
	multiShare := float64(cfg.MultiSection) / float64(cfg.Engines)
	cases := make([]*buildCase, hi-lo)
	parallel(len(cases), func(i int) {
		id := lo + i
		rng := rand.New(rand.NewSource(buildSeedBase*31 + int64(id)))
		multi := rng.Float64() < multiShare
		e := synth.NewEngineFeatured(buildSeedBase, id, multi, featureMix[rng.Intn(len(featureMix))])
		c := &buildCase{}
		for q := 0; q < buildSamplePages+buildHoldoutPages; q++ {
			gp := e.Page(qBase + q)
			if q < buildSamplePages {
				c.samples = append(c.samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
			} else {
				c.holdout = append(c.holdout, gp)
			}
		}
		cases[i] = c
	})
	return cases
}

// buildOutcome is the build phase's result.
type buildOutcome struct {
	ms     [][]float64 // per round, each engine's fastest build
	failed int
	score  eval.PageScore // held-out pages of every built wrapper
}

// runBuilds is one round of builds: it induces one wrapper per case, one
// engine after another at the default parallelism, timing each
// core.BuildWrapperCtx call, then scores the wrapper on the case's
// held-out pages (untimed).  Each engine is built buildReps times in a row,
// each time from an empty tree-distance cache as in a fresh process, and
// its fastest build counts: a 1 ms build that the host hypervisor preempts
// reads several times slower, and on a shared VM host that noise decided
// the median.
func runBuilds(ctx context.Context, cases []*buildCase, out *buildOutcome) error {
	var times []float64
	defer func() { out.ms = append(out.ms, times) }()
	for _, c := range cases {
		var ew *core.EngineWrapper
		var err error
		fastest := time.Duration(-1)
		for range buildReps {
			editdist.ResetCache()
			start := time.Now()
			ew, err = core.BuildWrapperCtx(ctx, c.samples, core.DefaultOptions())
			if d := time.Since(start); fastest < 0 || d < fastest {
				fastest = d
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			out.failed++
			continue
		}
		times = append(times, ms(fastest))
		for _, gp := range c.holdout {
			out.score.Add(eval.ScorePage(gp.Truth, ew.Extract(gp.HTML, gp.Query)))
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
