package serve

// POST /extract/batch: the amortized serving surface for callers that hold
// many result pages at once (a crawler flush, a metasearch fan-in, a
// backfill).  One request carries N pages; the handler deduplicates them by
// content address before touching the cache, serves residents immediately,
// and fans the unique misses through the worker pool — each miss taking one
// admission slot, so a batch of N counts N against -max-inflight rather
// than sneaking past the limiter.  Results and errors are per item: one
// unknown engine or oversized page fails that item, not the batch.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"mse/internal/excache"
	"mse/internal/obs"
	"mse/internal/par"
)

// MaxBatchItems bounds the number of pages in one batch request.
const MaxBatchItems = 256

// MaxBatchBytes bounds the whole batch request body.
const MaxBatchBytes = 64 << 20

// batchItem is one page in a batch request.  Engine defaults to the
// ?engine= query parameter; Query uses the same +/space-separated form as
// the single endpoint's ?q=.
type batchItem struct {
	Engine string `json:"engine,omitempty"`
	Query  string `json:"q,omitempty"`
	HTML   string `json:"html"`
}

// batchItemResult is the wire form of one item's outcome.  Status is the
// HTTP status the same page would have received on /extract; Result is the
// byte-identical /extract response body on 200.
type batchItemResult struct {
	Engine     string          `json:"engine,omitempty"`
	Status     int             `json:"status"`
	Cached     bool            `json:"cached,omitempty"`
	OwnerShard *int            `json:"owner_shard,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// decodeBatch accepts either {"items":[...]} or a bare JSON array.
func decodeBatch(body []byte) ([]batchItem, error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var items []batchItem
		err := json.Unmarshal(trimmed, &items)
		return items, err
	}
	var wrapped struct {
		Items []batchItem `json:"items"`
	}
	err := json.Unmarshal(body, &wrapped)
	return wrapped.Items, err
}

func (r *Registry) handleExtractBatch(w http.ResponseWriter, req *http.Request) {
	defaultEngine := req.URL.Query().Get("engine")
	if req.Method != http.MethodPost {
		r.metrics.errors.Inc()
		writeError(w, http.StatusMethodNotAllowed, defaultEngine, "POST required")
		return
	}
	body, err := io.ReadAll(io.LimitReader(req.Body, MaxBatchBytes+1))
	if err != nil {
		if req.Context().Err() != nil || errors.Is(err, io.ErrUnexpectedEOF) {
			r.metrics.canceled.Inc()
			writeError(w, statusClientClosedRequest, defaultEngine, "client disconnected during body read")
			return
		}
		r.metrics.errors.Inc()
		writeError(w, http.StatusBadRequest, defaultEngine, "reading body: "+err.Error())
		return
	}
	if len(body) > MaxBatchBytes {
		r.metrics.errors.Inc()
		writeError(w, http.StatusRequestEntityTooLarge, defaultEngine,
			fmt.Sprintf("batch exceeds %d bytes", MaxBatchBytes))
		return
	}
	items, err := decodeBatch(body)
	if err != nil {
		r.metrics.errors.Inc()
		writeError(w, http.StatusBadRequest, defaultEngine, "decoding batch: "+err.Error())
		return
	}
	if len(items) == 0 {
		r.metrics.errors.Inc()
		writeError(w, http.StatusBadRequest, defaultEngine, "empty batch")
		return
	}
	if len(items) > MaxBatchItems {
		r.metrics.errors.Inc()
		writeError(w, http.StatusBadRequest, defaultEngine,
			fmt.Sprintf("batch has %d items, limit %d", len(items), MaxBatchItems))
		return
	}
	r.metrics.batches.Inc()
	r.metrics.batchPages.Add(int64(len(items)))
	rid := RequestID(req.Context())
	start := time.Now()

	// Validation + dedupe pass: every item either fails early (missing,
	// misrouted or unknown engine, oversized page) or joins the job for its
	// content address; lead[i] is the index of that job's first item.
	// Duplicates within the batch collapse before any cache or pipeline
	// work happens.
	pages := make([]page, len(items))
	jevs := make([]*JournalEvent, len(items))
	lead := make([]int, len(items))
	byKey := map[excache.Key]int{}
	var jobs []*page
	for i, it := range items {
		lead[i] = i
		p := &pages[i]
		p.name, p.html, p.query = it.Engine, it.HTML, parseQuery(it.Query)
		if p.name == "" {
			p.name = defaultEngine
		}
		if r.journal.Sample() {
			jevs[i] = &JournalEvent{RequestID: rid, Engine: p.name, Batch: true, BatchIndex: i}
		}
		if p.err = r.lookup(p); p.err != nil {
			continue
		}
		if p.err = r.checkSize(p, len(p.html)); p.err != nil {
			continue
		}
		l, dup := byKey[p.cacheKey()]
		if !dup {
			l = i
			byKey[p.key] = i
			jobs = append(jobs, p)
		}
		lead[i] = l
		// A job gets a span tree only when some item of it is journaled.
		if jevs[i] != nil && pages[l].root == nil {
			pages[l].root = obs.NewSpan(obs.RootExtract)
		}
	}

	// Fan the unique jobs through the worker pool.  Each job acquires its
	// own admission slot — the batch holds at most workers slots at once
	// and every page is accounted, exactly as if it had arrived alone.  A
	// worker panic propagates through par's re-raise to the recoverer, and
	// the deferred release runs during the unwind, so no slot leaks.
	ctx := req.Context()
	par.ForEachIndex(len(jobs), par.Workers(0), func(n int) {
		p := jobs[n]
		if p.err = r.admit(ctx, p); p.err != nil {
			return
		}
		defer r.release()
		p.err = r.extract(ctx, p)
	})

	// Assembly: every duplicate takes its job's outcome.  It was served
	// without pipeline work, which the served totals and the per-item
	// cached flag both reflect.  Then one sub-item journal event per
	// sampled index, all carrying the batch request's correlation ID.
	results := make([]batchItemResult, len(items))
	totalMs := float64(time.Since(start)) / float64(time.Millisecond)
	for i := range pages {
		p := &pages[i]
		if l := lead[i]; l != i {
			*p = pages[l]
			if p.err == nil {
				p.cached = true
				p.em.served(p.entry)
			}
		}
		results[i] = p.result()
		if jev := jevs[i]; jev != nil {
			jev.Time = nowRFC3339()
			jev.Status = results[i].Status
			jev.TotalMs = totalMs
			p.journal(jev)
			r.journal.Write(*jev)
		}
	}

	writeBatchResponse(w, results)
}

// result is the page's batch item: the status it would have received on
// /extract and, on 200, the byte-identical /extract body.
func (p *page) result() batchItemResult {
	res := batchItemResult{Engine: p.name}
	if e := p.err; e != nil {
		res.Status, res.Error = e.status, e.msg
		if e.status == http.StatusMisdirectedRequest {
			owner := e.owner
			res.OwnerShard = &owner
		}
		return res
	}
	res.Status = http.StatusOK
	res.Cached = p.cached
	res.Result = json.RawMessage(p.entry.Body)
	return res
}

// writeBatchResponse assembles the batch response by hand.  Each OK item's
// Result is an already-serialized /extract body; running the whole
// response through the indenting encoder would re-tokenize every body byte
// (the dominant cost of an all-hit batch), so the per-item metadata is
// appended by the response encoder's writers and the result bodies are
// spliced in verbatim.
func writeBatchResponse(w http.ResponseWriter, results []batchItemResult) {
	grow := 32
	for i := range results {
		grow += len(results[i].Result) + 128
	}
	b := make([]byte, 0, grow)
	b = append(b, `{"results":[`...)
	for i := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendBatchItem(b, &results[i])
	}
	b = append(b, "]}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}
