package prune_test

import (
	"context"
	"testing"

	"mse/internal/cancel"
	"mse/internal/core"
	"mse/internal/dom"
	"mse/internal/htmlparse"
	"mse/internal/prune"
	"mse/internal/synth"
	"mse/internal/wrapper"
)

// engineSpecs builds a wrapper for e and derives its prune specs the way
// core.EngineWrapper.Compile does.  Every section wrapper pref is also
// turned into pattern specs with the wildcard at each step, so pattern
// mode is exercised on every engine, not only on those with Type-2
// families.
func engineSpecs(t *testing.T, e *synth.Engine) (specs []prune.Spec, type1, type2 int) {
	t.Helper()
	var samples []*core.SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	ew, err := core.BuildWrapper(samples, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ew.Wrappers {
		specs = append(specs, prune.Spec{Path: w.Pref, Wildcard: -1})
		for k := range w.Pref {
			specs = append(specs, prune.Spec{Path: w.Pref, Wildcard: k})
		}
	}
	for _, f := range ew.Families {
		switch f.Type {
		case wrapper.Type1:
			specs = append(specs, prune.Spec{Path: f.Pref, Wildcard: -1})
			type1++
		case wrapper.Type2:
			pat := append(append(dom.CompactPath(nil), f.Pref...), f.SPref...)
			specs = append(specs, prune.Spec{Path: pat, Wildcard: len(f.Pref)})
			type2++
		}
	}
	return specs, type1, type2
}

// patternCands is the reference for pattern mode: the preorder walk of
// the interpreted Type-2 family application, which compares each node's
// compact path to the pattern step for step with a free sibling count at
// the wildcard and does not descend below a match.
func patternCands(doc *dom.Node, pattern dom.CompactPath, wildcard int) []*dom.Node {
	var out []*dom.Node
	doc.Walk(func(n *dom.Node) bool {
		cp := dom.PathOf(n).Compact()
		if len(cp) != len(pattern) {
			return true
		}
		for i := range cp {
			if cp[i].Tag != pattern[i].Tag || (i != wildcard && cp[i].SBefore != pattern[i].SBefore) {
				return true
			}
		}
		out = append(out, n)
		return false
	})
	return out
}

// referenceCands is the candidate list the interpreted path computes for
// spec: dom.LocateCompactAll for tolerant specs, the Type-2 walk for
// pattern specs.
func referenceCands(doc *dom.Node, sp prune.Spec) []*dom.Node {
	if sp.Wildcard < 0 {
		return dom.LocateCompactAll(doc, sp.Path)
	}
	return patternCands(doc, sp.Path, sp.Wildcard)
}

// outermost counts the nodes of set that have no proper ancestor in set:
// the marked regions a pruned render waits to close before stopping.
func outermost(set map[*dom.Node]bool) int {
	n := 0
	for c := range set {
		top := true
		for a := c.Parent; a != nil; a = a.Parent {
			if set[a] {
				top = false
				break
			}
		}
		if top {
			n++
		}
	}
	return n
}

// TestRunMatchesReference: on fresh and drifted pages of synth engines,
// every spec's candidate list is element-identical to the interpreted
// path's, exactly the candidates are marked, Outer counts the outermost
// marked regions, and every matcher acquired is released.
func TestRunMatchesReference(t *testing.T) {
	before := prune.StatsSnapshot()
	bed := synth.GenerateTestbed(synth.DefaultConfig())
	if testing.Short() {
		bed = bed[:10]
	}
	var total, type1, type2, tolerantCands, patternCandsSeen int
	for ei, e := range bed {
		specs, t1, t2 := engineSpecs(t, e)
		type1 += t1
		type2 += t2
		drifted := e.Drifted()
		for q := 5; q < 8; q++ {
			for variant, gp := range map[string]*synth.GenPage{"fresh": e.Page(q), "drifted": drifted.Page(q)} {
				doc := htmlparse.Parse(gp.HTML)
				res := prune.Run(doc, specs, nil)
				want := map[*dom.Node]bool{}
				for i, sp := range specs {
					ref := referenceCands(doc, sp)
					got := res.Cands(i)
					if len(got) != len(ref) {
						t.Fatalf("engine %d %s page %d spec %d (wildcard %d): %d candidates, reference has %d",
							ei, variant, q, i, sp.Wildcard, len(got), len(ref))
					}
					for j := range ref {
						if got[j] != ref[j] {
							t.Fatalf("engine %d %s page %d spec %d: candidate %d differs from reference", ei, variant, q, i, j)
						}
						want[ref[j]] = true
					}
					if sp.Wildcard < 0 {
						tolerantCands += len(ref)
					} else {
						patternCandsSeen += len(ref)
					}
				}
				marked := map[*dom.Node]bool{}
				doc.Walk(func(n *dom.Node) bool {
					if n.Mark == dom.MarkCandidate {
						marked[n] = true
					}
					return true
				})
				if len(marked) != len(want) {
					t.Fatalf("engine %d %s page %d: %d nodes marked, %d distinct candidates", ei, variant, q, len(marked), len(want))
				}
				for n := range want {
					if !marked[n] {
						t.Fatalf("engine %d %s page %d: candidate left unmarked", ei, variant, q)
					}
				}
				if got, ref := res.Outer(), outermost(want); got != ref {
					t.Fatalf("engine %d %s page %d: Outer() = %d, want %d", ei, variant, q, got, ref)
				}
				res.Release()
				total++
			}
		}
	}
	if type1 == 0 || type2 == 0 || tolerantCands == 0 || patternCandsSeen == 0 {
		t.Fatalf("vacuous coverage: %d Type-1 and %d Type-2 families, %d tolerant and %d pattern candidates",
			type1, type2, tolerantCands, patternCandsSeen)
	}
	after := prune.StatsSnapshot()
	if runs := after.Runs - before.Runs; runs != uint64(total) {
		t.Fatalf("Runs advanced by %d over %d passes", runs, total)
	}
	if acq, rel := after.Acquires-before.Acquires, after.Releases-before.Releases; acq != rel || acq != uint64(total) {
		t.Fatalf("matcher pool: %d acquired, %d released over %d passes", acq, rel, total)
	}
	t.Logf("%d passes; %d Type-1 and %d Type-2 families; %d tolerant and %d pattern candidates",
		total, type1, type2, tolerantCands, patternCandsSeen)
}

// TestRunPreFiredToken: an already-canceled token aborts the pass with
// cancel.Signal before any candidate is produced, and the pooled matcher
// is back in its pool.
func TestRunPreFiredToken(t *testing.T) {
	e := synth.NewEngine(7, 0, true)
	specs, _, _ := engineSpecs(t, e)
	ctx, stop := context.WithCancel(context.Background())
	stop()
	tok := cancel.FromContext(ctx)
	doc := htmlparse.Parse(e.Page(6).HTML)
	before := prune.StatsSnapshot()
	func() {
		defer func() {
			if r := recover(); !cancel.IsSignal(r) {
				t.Fatalf("recovered %v, want cancel.Signal", r)
			}
		}()
		prune.Run(doc, specs, tok)
		t.Fatal("Run returned despite a fired token")
	}()
	after := prune.StatsSnapshot()
	if acq, rel := after.Acquires-before.Acquires, after.Releases-before.Releases; acq != 1 || rel != 1 {
		t.Fatalf("matcher pool: %d acquired, %d released, want 1/1", acq, rel)
	}
	if after.Runs != before.Runs {
		t.Fatalf("aborted pass counted as a run")
	}
	doc.Walk(func(n *dom.Node) bool {
		if n.Mark != 0 {
			t.Fatalf("aborted pass marked a node")
		}
		return true
	})
}
