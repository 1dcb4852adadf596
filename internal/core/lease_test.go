package core

import (
	"sync"
	"testing"

	"mse/internal/dom"
	"mse/internal/htmlparse"
	"mse/internal/layout"
)

// TestPageLeaseReleaseIdempotent covers the sequential contract: releasing
// twice (or releasing nil) must be a no-op the second time.
func TestPageLeaseReleaseIdempotent(t *testing.T) {
	doc, arena := htmlparse.ParsePooled("<html><body><p>x</p></body></html>")
	page := layout.RenderPooledCancel(doc, nil)
	l := &PageLease{page: page, arena: arena}

	before := dom.ArenaStatsSnapshot().Releases
	l.Release()
	l.Release()
	if got := dom.ArenaStatsSnapshot().Releases - before; got != 1 {
		t.Fatalf("arena releases after double Release = %d, want 1", got)
	}
	if l.Page() != nil {
		t.Fatalf("Page() after Release = %v, want nil", l.Page())
	}
	var nilLease *PageLease
	nilLease.Release() // must not panic
}

// TestPageLeaseConcurrentRelease is the regression test for the
// double-release race: two goroutines calling Release simultaneously could
// both observe non-nil fields and return the same arena to the pool twice,
// corrupting it for the two future requests that would each be handed the
// same slabs.  The fix gates Release behind an atomic CAS; exactly one
// caller may win.  Run with -race to catch the field races as well.
func TestPageLeaseConcurrentRelease(t *testing.T) {
	const goroutines = 8
	for iter := 0; iter < 300; iter++ {
		doc, arena := htmlparse.ParsePooled("<html><body><table><tr><td>r</td></tr></table></body></html>")
		page := layout.RenderPooledCancel(doc, nil)
		l := &PageLease{page: page, arena: arena}

		arenaBefore := dom.ArenaStatsSnapshot().Releases
		scratchBefore := layout.ScratchStatsSnapshot().Releases

		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				l.Release()
			}()
		}
		close(start)
		wg.Wait()

		if got := dom.ArenaStatsSnapshot().Releases - arenaBefore; got != 1 {
			t.Fatalf("iter %d: arena released %d times, want exactly 1", iter, got)
		}
		if got := layout.ScratchStatsSnapshot().Releases - scratchBefore; got != 1 {
			t.Fatalf("iter %d: render scratch released %d times, want exactly 1", iter, got)
		}
	}
}
