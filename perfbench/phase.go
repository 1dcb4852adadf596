package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// outcome is what one request got back.
type outcome struct {
	status int
	err    error
	ok     bool   // every page's body matched its reference
	body   []byte // kept for batches and for mismatches, to check afterwards
}

// phase accumulates one kind of load (open or closed loop) over the
// rounds of a run.
type phase struct {
	rounds       []*segmentResult
	failed       int
	firstFailure string
}

// segmentResult is one round's share of a phase.
type segmentResult struct {
	reqs    []request
	timings []timing
	pages   int
	busy    time.Duration // first send to last reply
	cpu     time.Duration // the server's CPU time over the segment
}

// segment drives reqs against the server over conns keep-alive
// connections — open loop when due is set, closed loop otherwise — then
// checks every response against the reference digests and records each
// page's outcome.
func (b *bench) segment(ctx context.Context, srv *server, st *stream, ph *phase, reqs []request, due []time.Duration) error {
	clients := make([]*client, conns)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].close()
	}
	outs := make([]outcome, len(reqs))
	send := func(w, i int) {
		r := &reqs[i]
		o := &outs[i]
		o.status, o.body, o.err = clients[w].post(srv.base+r.url, r.body)
		if o.err != nil || o.status != http.StatusOK {
			o.body = nil
			return
		}
		if !r.batch && sha256.Sum256(o.body) == st.pages[r.pages[0]].ref {
			o.ok, o.body = true, nil
			return
		}
		o.body = append([]byte(nil), o.body...)
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return fmt.Errorf("reading server CPU time: %w", err)
	}
	ts, err := drive(ctx, len(reqs), conns, due, send)
	if err != nil {
		return err
	}
	cpu1, err := srv.cpuTime()
	if err != nil {
		return fmt.Errorf("reading server CPU time: %w", err)
	}
	sr := &segmentResult{reqs: reqs, timings: ts, cpu: cpu1 - cpu0}
	var first, last time.Duration = -1, 0
	for i, t := range ts {
		if first < 0 || t.sent < first {
			first = t.sent
		}
		last = max(last, t.done)
		if !st.check(b.tb, &reqs[i], &outs[i]) {
			ph.failed++
			if ph.firstFailure == "" {
				ph.firstFailure = fmt.Sprintf("%s: status %d, error %v", reqs[i].url, outs[i].status, outs[i].err)
			}
		}
		sr.pages += len(reqs[i].pages)
	}
	sr.busy = last - first
	ph.rounds = append(ph.rounds, sr)
	return nil
}

// check settles one request: it is ok when its status is 200 and every
// page's body is byte-identical to the reference.  A page whose body
// differs is marked bad, keeping the fewest correct records any of its
// responses got.
func (st *stream) check(tb *testbed, r *request, o *outcome) bool {
	bodies := make([][]byte, len(r.pages))
	itemOK := make([]bool, len(r.pages))
	switch {
	case o.ok:
		for j := range itemOK {
			itemOK[j] = true
		}
	case r.batch && o.body != nil:
		var br struct {
			Results []struct {
				Status int             `json:"status"`
				Result json.RawMessage `json:"result"`
			} `json:"results"`
		}
		if json.Unmarshal(o.body, &br) == nil && len(br.Results) == len(r.pages) {
			o.ok = true
			for j, it := range br.Results {
				itemOK[j] = it.Status == http.StatusOK && sha256.Sum256(it.Result) == st.pages[r.pages[j]].refTrim
				o.ok = o.ok && itemOK[j]
				if !itemOK[j] && it.Status == http.StatusOK {
					bodies[j] = it.Result
				}
			}
		}
	case o.body != nil:
		bodies[0] = o.body
	}
	for j, pi := range r.pages {
		p := st.pages[pi]
		p.served = true
		if itemOK[j] {
			continue
		}
		correct := 0
		if bodies[j] != nil {
			correct, _ = scoreBody(tb, p, bodies[j]) // an undecodable body scores zero
		}
		if !p.bad || correct < p.badCorrect {
			p.bad, p.badCorrect = true, correct
		}
	}
	return o.ok
}

// recordRecall is the share of ground-truth records the responses got
// right, over the distinct pages served: a page counts its reference
// score when every response for it matched, else its worst response.
func (st *stream) recordRecall() (float64, int) {
	correct, truth, pages := 0, 0, 0
	for _, p := range st.pages {
		if !p.served {
			continue
		}
		pages++
		truth += p.truth
		if p.bad {
			correct += p.badCorrect
		} else {
			correct += p.refCorrect
		}
	}
	return float64(correct) / float64(max(1, truth)), pages
}

// latencies splits each round's latencies, in ms, into single /extract
// requests and batches.
func (ph *phase) latencies() (singles, batches [][]float64) {
	for _, sr := range ph.rounds {
		var s, b []float64
		for i, t := range sr.timings {
			if sr.reqs[i].batch {
				b = append(b, ms(t.latency()))
			} else {
				s = append(s, ms(t.latency()))
			}
		}
		singles, batches = append(singles, s), append(batches, b)
	}
	return singles, batches
}

// lagMS is how late each request was sent, in ms, over all rounds.
func (ph *phase) lagMS() []float64 {
	var out []float64
	for _, sr := range ph.rounds {
		for _, t := range sr.timings {
			out = append(out, ms(t.lag()))
		}
	}
	return out
}

// lagAndService gives the median lag and the median time from send to
// reply, in ms, over all rounds.
func (ph *phase) lagAndService() (lag, service float64) {
	var ls, ss []float64
	for _, sr := range ph.rounds {
		for _, t := range sr.timings {
			ls = append(ls, ms(t.lag()))
			ss = append(ss, ms(t.done-t.sent))
		}
	}
	return median(ls), median(ss)
}

// pagesPerSecond gives each round's pages completed per second of wall
// time and per second of server CPU time.
func (ph *phase) pagesPerSecond() (wall, perCPU []float64, pages int) {
	for _, sr := range ph.rounds {
		wall = append(wall, float64(sr.pages)/sr.busy.Seconds())
		perCPU = append(perCPU, float64(sr.pages)/sr.cpu.Seconds())
		pages += sr.pages
	}
	return wall, perCPU, pages
}
