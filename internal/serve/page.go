package serve

// The per-page serving path.  A result page reaches a wrapper three ways —
// alone on POST /extract, as one item of POST /extract/batch, or through
// ExtractCached — and all three run it through the steps in this file, so
// every per-page policy has exactly one implementation:
//
//	lookup     missing engine 400, misrouted 421 naming the owner, unknown
//	           404; then the per-engine request count
//	checkSize  page over MaxPageBytes 413
//	admit      extraction slot: 429 with Retry-After, or 499 while queued;
//	           the in-flight gauge (release gives both back)
//	extract    cache or pipeline, error to status mapping, served totals,
//	           relearn reservoir feed
//	journal    the page's wide-event journal line from its outcome
//
// /extract admits before it reads the body, so a shed request costs no
// read; the batch knows every page's size up front and checks it first.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"mse/internal/core"
	"mse/internal/excache"
	"mse/internal/obs"
	"mse/internal/quality"
)

// page is one result page on its way through the per-page steps, and
// afterwards its outcome: err when it failed, entry when it was served.
type page struct {
	name  string
	ent   *engineEntry
	em    *engineMetrics
	html  string
	query []string
	key   excache.Key   // content address, set by cacheKey
	root  *obs.Span     // per-page span tree; nil unless journaled
	wait  time.Duration // admission queue wait
	err   *pageError

	entry  *excache.Entry // the response, when served
	cached bool           // served without pipeline work: cache hit, collapsed miss or batch duplicate
	// assessment is the drift verdict the fill fed; hits carry none
	// (assessed=false) — a replayed result says nothing new about the
	// engine.
	assessment quality.Assessment
	assessed   bool
}

// pageError is a per-page failure: the status the page gets on /extract
// and in its batch item, and the error ExtractCached returns.
type pageError struct {
	status int
	msg    string
	owner  int   // 421: the shard that owns the engine
	cause  error // extraction failures: the pipeline's error
}

func (e *pageError) Error() string { return "serve: " + e.msg }
func (e *pageError) Unwrap() error { return e.cause }

// parseQuery splits a ?q= (or batch item "q") value on '+' and spaces.
func parseQuery(q string) []string {
	if q == "" {
		return nil
	}
	return strings.FieldsFunc(q, func(r rune) bool { return r == '+' || r == ' ' })
}

// lookup resolves the page's engine and counts the request against it.
func (r *Registry) lookup(p *page) *pageError {
	if p.name == "" {
		r.metrics.errors.Inc()
		return &pageError{status: http.StatusBadRequest, msg: "missing engine (set ?engine= or the item's engine)"}
	}
	ent, perr := r.resolve(p.name)
	if perr != nil {
		return perr
	}
	p.ent = ent
	p.em = r.metrics.engine(p.name)
	p.em.requests.Inc()
	return nil
}

// resolve finds a registered engine this shard owns.  Failures are not
// tracked per engine: arbitrary names from clients must not grow the
// metrics map without bound.
func (r *Registry) resolve(name string) (*engineEntry, *pageError) {
	if !r.Owns(name) {
		r.metrics.misrouted.Inc()
		idx, total, _ := r.ShardInfo()
		owner := r.ring.Owner(name)
		return nil, &pageError{
			status: http.StatusMisdirectedRequest,
			msg:    fmt.Sprintf("engine %q is owned by shard %d/%d (this is shard %d)", name, owner, total, idx),
			owner:  owner,
		}
	}
	ent, ok := r.get(name)
	if !ok {
		r.metrics.errors.Inc()
		return nil, &pageError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown engine %q", name)}
	}
	return ent, nil
}

// checkSize rejects a page of n bytes over MaxPageBytes.
func (r *Registry) checkSize(p *page, n int) *pageError {
	if n <= MaxPageBytes {
		return nil
	}
	r.countError(p.em)
	return &pageError{status: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("page exceeds %d bytes", MaxPageBytes)}
}

// admit takes an extraction slot for the page, waiting up to the queue
// budget.  Every admitted page must call release exactly once.
func (r *Registry) admit(ctx context.Context, p *page) *pageError {
	wait, err := r.limiter.acquire(ctx)
	p.wait = wait
	r.metrics.queueWait.Observe(wait)
	if err != nil {
		if errors.Is(err, errShed) {
			r.metrics.shed.Inc()
			return &pageError{status: http.StatusTooManyRequests, msg: "server at capacity, retry later"}
		}
		// Client gone (or deadline up) while queued: its problem, not
		// the engine's — per-engine error counters stay clean.
		r.metrics.canceled.Inc()
		return &pageError{status: statusClientClosedRequest, msg: "request canceled while queued"}
	}
	r.metrics.extractInFlight.Add(1)
	return nil
}

// release gives back the slot and in-flight count of an admitted page.
func (r *Registry) release() {
	r.metrics.extractInFlight.Add(-1)
	r.limiter.release()
}

// countError counts a failed page against its engine and the service.
func (r *Registry) countError(em *engineMetrics) {
	em.errors.Inc()
	r.metrics.errors.Inc()
}

// cacheKey returns the page's content address under the engine's current
// wrapper generation, hashing the page once.
func (p *page) cacheKey() excache.Key {
	if p.key.Engine == "" {
		p.key = excache.Key{Engine: p.name, Gen: p.ent.gen, Hash: excache.HashPage(p.html, p.query)}
	}
	return p.key
}

// extract serves the page from the content-addressed cache (when
// installed) or, on a miss, runs the full pipeline, serializes the
// response once, feeds the per-engine metrics and the drift detector, and
// caches the entry.  Concurrent identical misses collapse to one pipeline
// run.  A hit adds its sections and records to the served totals, which
// the miss that filled the entry counted once already.  Every served page
// is offered to the relearn reservoir.
func (r *Registry) extract(ctx context.Context, p *page) *pageError {
	fill := func() (*excache.Entry, error) {
		start := time.Now()
		sections, lease, err := p.ent.ew.ExtractLeasedCtx(ctx, p.html, p.query, p.root)
		elapsed := time.Since(start)
		p.em.latency.Observe(elapsed)
		if err != nil {
			if errors.Is(err, core.ErrCanceled) {
				// The pipeline aborted cooperatively; every pooled resource
				// is already back (ExtractLeasedCtx releases on the way
				// out).  The drift detector does not see this page: a
				// vanished client or an expired deadline says nothing about
				// the engine.
				return nil, err
			}
			r.countError(p.em)
			r.observeQuality(p, quality.Observation{Latency: elapsed, Err: true})
			return nil, err
		}
		// Deferred — not called right after serialization — so a panic while
		// building the entry still returns the page and its parse arena to
		// the pools.  The entry holds only plain bytes, so it outlives the
		// lease (and any number of future cache hits) regardless.
		defer lease.Release()
		if extractTestHook != nil {
			extractTestHook(p.name)
		}
		e := buildEntry(p.name, sections)
		p.em.served(e)
		if e.Sections == 0 {
			p.em.empty.Inc()
		}
		// The relearn reservoir takes the page before the drift detector
		// sees it: a DRIFTED verdict on this very page starts a relearn job
		// at once, and that job's training snapshot must include it.
		r.feedRelearn(p.name, p.html, p.query)
		r.observeQuality(p, quality.Observation{Sections: e.Sections, Records: e.Records, Latency: elapsed})
		return e, nil
	}
	var key excache.Key
	if r.cache != nil {
		key = p.cacheKey()
	}
	e, hit, _, err := r.cache.Do(ctx, key, fill)
	if err != nil {
		return r.extractError(ctx, err)
	}
	p.entry, p.cached = e, hit
	if hit {
		p.em.served(e)
		r.feedRelearn(p.name, p.html, p.query)
	}
	return nil
}

// observeQuality feeds the drift detector and mirrors its state onto the
// quality gauges; a verdict change is worth an operator-visible log line.
func (r *Registry) observeQuality(p *page, o quality.Observation) {
	a := r.quality.Observe(p.name, o)
	p.assessment, p.assessed = a, true
	p.em.applyQuality(a)
	if a.Changed && r.log != nil {
		r.log.Warn("drift verdict changed",
			"engine", p.name,
			"verdict", a.Verdict.String(),
			"anomaly_rate", a.AnomalyRate,
		)
	}
}

// extractError maps an extraction error to a page error: cooperative
// cancellation (the pipeline's ErrCanceled or a singleflight waiter's own
// context) becomes 499/503 without touching per-engine error counters — a
// vanished client says nothing about the engine — and anything else is a
// 500 whose counters the fill path already fed.
func (r *Registry) extractError(ctx context.Context, err error) *pageError {
	if errors.Is(err, core.ErrCanceled) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		r.metrics.canceled.Inc()
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return &pageError{status: http.StatusServiceUnavailable, msg: "deadline exceeded during extraction", cause: err}
		}
		return &pageError{status: statusClientClosedRequest, msg: "client canceled during extraction", cause: err}
	}
	return &pageError{status: http.StatusInternalServerError, msg: "extraction failed: " + err.Error(), cause: err}
}

// journal fills jev from the page's outcome: the input's identity, the
// queue wait, the counts or the error, the drift verdict and the stage
// timings.  The caller sets the status, time and total duration.
func (p *page) journal(jev *JournalEvent) {
	jev.PageBytes = len(p.html)
	if p.html != "" {
		jev.PageHash = pageHash(p.html)
	}
	jev.Query = p.query
	jev.QueueWaitMs = float64(p.wait) / float64(time.Millisecond)
	if p.err != nil {
		jev.Error = p.err.msg
	} else if e := p.entry; e != nil {
		jev.Sections, jev.Records, jev.Cached = e.Sections, e.Records, p.cached
	}
	if p.assessed {
		journalQuality(jev, p.assessment)
	}
	jev.StagesMs = stageTimings(p.root)
}

// writePageError answers a failed /extract (or relearn trigger) request.
func (r *Registry) writePageError(w http.ResponseWriter, name string, e *pageError) {
	switch e.status {
	case http.StatusMisdirectedRequest:
		// 421 plus the owner's index, so a thin front tier (or the client
		// itself) can re-aim the request without server-side proxying.
		_, total, _ := r.ShardInfo()
		writeJSON(w, e.status, misrouteJSON{Error: e.msg, Engine: name, OwnerShard: e.owner, Shards: total})
		return
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", r.limiter.retryAfter())
	}
	writeError(w, e.status, name, e.msg)
}

// misrouteJSON is the wire form of a 421 shard-misroute response.
type misrouteJSON struct {
	Error      string `json:"error"`
	Engine     string `json:"engine"`
	OwnerShard int    `json:"owner_shard"`
	Shards     int    `json:"shards"`
}

// ExtractCached runs one extraction for engine through the same per-page
// path /extract serves — lookup, size bound, cache and pipeline, status
// mapping — bypassing HTTP, admission control and journaling.  It returns
// the serialized response body and whether it came from the cache.  This
// is the programmatic surface benchmarks and differential tests drive.
func (r *Registry) ExtractCached(ctx context.Context, engine, html string, query []string) ([]byte, bool, error) {
	p := &page{name: engine, html: html, query: query}
	if p.err = r.lookup(p); p.err == nil {
		if p.err = r.checkSize(p, len(html)); p.err == nil {
			p.err = r.extract(ctx, p)
		}
	}
	if p.err != nil {
		return nil, false, p.err
	}
	return p.entry.Body, p.cached, nil
}
