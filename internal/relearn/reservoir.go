package relearn

import (
	"sync"

	"mse/internal/excache"
)

// pageSample is one sampled request page: the raw HTML (the serving path's
// single body copy, retained as-is — never re-copied), the query terms it
// was extracted under, and its content address.
type pageSample struct {
	html  string
	query []string
	hash  excache.Hash128
}

// reservoir is the bounded per-engine store of recent raw request pages the
// relearner trains and canary-validates on.  It keeps insertion order
// (oldest first) under two bounds — a byte budget and a page cap — and
// dedupes by the same 128-bit content address the extraction cache keys on,
// so byte-identical resubmissions (retries, cache hits, hot queries) cannot
// crowd out template diversity.  Eviction is oldest-first: after a template
// drift the newest pages are the new template, which is exactly what a
// relearn needs to see.
type reservoir struct {
	maxBytes int64
	maxPages int

	mu      sync.Mutex
	pages   []pageSample // oldest first
	bytes   int64
	seen    map[excache.Hash128]struct{}
	added   int64
	deduped int64
	evicted int64
}

func newReservoir(maxBytes int64, maxPages int) *reservoir {
	return &reservoir{
		maxBytes: maxBytes,
		maxPages: maxPages,
		seen:     map[excache.Hash128]struct{}{},
	}
}

// add samples one served page.  The html string is retained, not copied —
// the caller hands over its one per-request body copy.  A page alone larger than the byte budget is skipped
// (it would evict the whole reservoir for one page).
func (r *reservoir) add(html string, query []string) {
	if int64(len(html)) > r.maxBytes {
		return
	}
	h := excache.HashPage(html, query)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.seen[h]; ok {
		r.deduped++
		return
	}
	r.pages = append(r.pages, pageSample{html: html, query: query, hash: h})
	r.seen[h] = struct{}{}
	r.bytes += int64(len(html))
	r.added++
	for (r.bytes > r.maxBytes || len(r.pages) > r.maxPages) && len(r.pages) > 1 {
		old := r.pages[0]
		// Shift down rather than reslice so the evicted page's bytes are
		// unreachable immediately (a reslice would pin them in the backing
		// array until overwritten).
		copy(r.pages, r.pages[1:])
		r.pages[len(r.pages)-1] = pageSample{}
		r.pages = r.pages[:len(r.pages)-1]
		delete(r.seen, old.hash)
		r.bytes -= int64(len(old.html))
		r.evicted++
	}
}

// newest returns a copy of the most recent n samples (all of them when the
// reservoir holds fewer), oldest first.
func (r *reservoir) newest(n int) []pageSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > len(r.pages) {
		n = len(r.pages)
	}
	out := make([]pageSample, n)
	copy(out, r.pages[len(r.pages)-n:])
	return out
}

// size returns the current page count and byte total.
func (r *reservoir) size() (int, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pages), r.bytes
}
