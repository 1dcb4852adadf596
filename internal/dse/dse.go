// Package dse implements the DSE algorithm of Section 5.2 of the MSE
// paper (Figure 5): identification of candidate section boundary markers
// (CSBMs) by mutual-best matching of cleaned content lines across sample
// result pages, followed by identification of dynamic sections (DSs) as
// the maximal runs of non-CSBM lines.
//
// A content line is a CSBM candidate when — after removing its dynamic
// components (digits and query terms) — it has the same text and a
// compatible tag path on another result page of the same engine, with the
// two lines being each other's most compatible match (smallest tag path
// distance, Formula 1).  Tentative CSBMs whose text recurs in every record
// of an extracted MR ("Buy new: $…") are filtered out.
package dse

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"mse/internal/cancel"
	"mse/internal/dom"
	"mse/internal/layout"
	"mse/internal/sect"
)

// Options control DSE.
type Options struct {
	// MinPairs is the number of page pairs in which a line must be
	// mutual-best matched before it is accepted as a CSBM (1 = union of
	// pairwise marks, the default).
	MinPairs int
	// Cancel, when non-nil, is polled once per page pair of the CSBM
	// phase.  core.BuildWrapperCtx installs it; it never needs to be set
	// by hand.
	Cancel *cancel.Token `json:"-"`
}

// DefaultOptions returns the defaults.
func DefaultOptions() Options {
	return Options{MinPairs: 1}
}

// PageInput is one sample result page with the query that produced it and
// the MRs extracted from it by MRE (used for CSBM filtering).
type PageInput struct {
	Page  *layout.Page
	Query []string
	MRs   []*sect.Section
}

// CleanLine removes the dynamic components of a content line's text:
// digits are stripped from every token and query terms are dropped (lines
// 1-2 of Figure 5).  Rule lines are given a stable sentinel so static
// separators can match across pages.  Callers cleaning many lines against
// the same query should reuse a LineCleaner instead.
func CleanLine(l *layout.Line, query []string) string {
	var c LineCleaner
	c.Reset(query)
	return c.Clean(l)
}

// LineCleaner is a reusable CleanLine: the query-term set and the output
// buffer persist across Clean calls, so cleaning a line costs exactly one
// string allocation (the result).  The zero value is ready after Reset.
// A LineCleaner must not be shared between goroutines.
type LineCleaner struct {
	qset  map[string]bool
	out   []byte
	lower []byte
}

// Reset installs the query whose terms Clean drops from line texts.
func (c *LineCleaner) Reset(query []string) {
	if c.qset == nil {
		c.qset = make(map[string]bool, len(query))
	} else {
		clear(c.qset)
	}
	for _, q := range query {
		c.qset[strings.ToLower(q)] = true
	}
}

const trimCutset = ".,;:!?()"

func inCutset(b byte) bool { return b < 0x80 && strings.IndexByte(trimCutset, b) >= 0 }

// Clean returns the cleaned text of l, byte-identical to CleanLine with
// the query last given to Reset.
func (c *LineCleaner) Clean(l *layout.Line) string {
	if l.Type == layout.RuleLine {
		return "\x00hr"
	}
	out := c.out[:0]
	s := l.Text
	i := 0
	for i < len(s) {
		r, w := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(s[i:])
		}
		if unicode.IsSpace(r) {
			i += w
			continue
		}
		start := i
		for i < len(s) {
			r, w = rune(s[i]), 1
			if r >= utf8.RuneSelf {
				r, w = utf8.DecodeRuneInString(s[i:])
			}
			if unicode.IsSpace(r) {
				break
			}
			i += w
		}
		f := s[start:i]
		if c.isQueryTerm(f) {
			continue
		}
		mark := len(out)
		if len(out) > 0 {
			out = append(out, ' ')
		}
		stripped := appendStripDigits(out, f)
		if len(stripped) == len(out) {
			out = out[:mark] // field was digits-only; drop the separator too
			continue
		}
		out = stripped
	}
	c.out = out
	return string(out)
}

// isQueryTerm reports whether the field, with the punctuation cutset
// trimmed from both ends and lowercased, is one of the query terms.  The
// lookup allocates nothing for ASCII fields (the common case).
func (c *LineCleaner) isQueryTerm(f string) bool {
	if len(c.qset) == 0 {
		return false
	}
	// strings.Trim with an ASCII cutset only ever removes single bytes.
	for len(f) > 0 && inCutset(f[0]) {
		f = f[1:]
	}
	for len(f) > 0 && inCutset(f[len(f)-1]) {
		f = f[:len(f)-1]
	}
	ascii, lower := true, true
	for j := 0; j < len(f); j++ {
		b := f[j]
		if b >= 0x80 {
			ascii = false
			break
		}
		if b >= 'A' && b <= 'Z' {
			lower = false
		}
	}
	if !ascii {
		return c.qset[strings.ToLower(f)]
	}
	if lower {
		return c.qset[f]
	}
	buf := append(c.lower[:0], f...)
	c.lower = buf[:0]
	for j, b := range buf {
		if b >= 'A' && b <= 'Z' {
			buf[j] = b + 'a' - 'A'
		}
	}
	return c.qset[string(buf)]
}

// appendStripDigits appends s to dst with ASCII digits removed, matching
// the rune-oriented stripDigits byte for byte (invalid UTF-8 sequences
// become U+FFFD, as strings.Builder.WriteRune produced).
func appendStripDigits(dst []byte, s string) []byte {
	ascii := true
	for j := 0; j < len(s); j++ {
		if s[j] >= 0x80 {
			ascii = false
			break
		}
	}
	if ascii {
		for j := 0; j < len(s); j++ {
			if s[j] < '0' || s[j] > '9' {
				dst = append(dst, s[j])
			}
		}
		return dst
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			dst = utf8.AppendRune(dst, r)
		}
	}
	return dst
}

// cleanedPage caches per-line cleaned texts for one page.
type cleanedPage struct {
	in    *PageInput
	clean []string
}

func newCleanedPage(in *PageInput) *cleanedPage {
	cp := &cleanedPage{in: in, clean: make([]string, len(in.Page.Lines))}
	var c LineCleaner
	c.Reset(in.Query)
	for i := range in.Page.Lines {
		cp.clean[i] = c.Clean(&in.Page.Lines[i])
	}
	return cp
}

// mostCompatible implements find_most_compatible_line(l, L): among the
// lines of other with the same cleaned text and a compatible compact tag
// path, return the one with the smallest path distance (-1 if none).
func mostCompatible(self *cleanedPage, i int, other *cleanedPage) int {
	text := self.clean[i]
	if text == "" {
		return -1 // blank/number-only lines cannot be boundary markers
	}
	cp := self.in.Page.Lines[i].CPath
	best := -1
	bestDist := 0.0
	for j, t := range other.clean {
		if t != text {
			continue
		}
		ocp := other.in.Page.Lines[j].CPath
		if !cp.Compatible(ocp) {
			continue
		}
		d := dom.PathDistance(cp, ocp)
		if best == -1 || d < bestDist {
			best, bestDist = j, d
		}
	}
	return best
}

// IdentifyCSBMs runs the CSBM phase of DSE over every pair of input pages
// and returns, per page, a boolean mark for each content line.  A line is
// marked when it is mutual-best matched in at least MinPairs page pairs
// and survives the MR-based filter.
func IdentifyCSBMs(inputs []*PageInput, opt Options) [][]bool {
	if opt.MinPairs < 1 {
		opt.MinPairs = 1
	}
	cleaned := make([]*cleanedPage, len(inputs))
	for i, in := range inputs {
		cleaned[i] = newCleanedPage(in)
	}
	votes := make([][]int, len(inputs))
	for i, in := range inputs {
		votes[i] = make([]int, len(in.Page.Lines))
	}
	for a := 0; a < len(inputs); a++ {
		for b := a + 1; b < len(inputs); b++ {
			opt.Cancel.Check()
			matchPair(cleaned[a], cleaned[b], votes[a], votes[b])
		}
	}
	marks := make([][]bool, len(inputs))
	for i := range inputs {
		marks[i] = make([]bool, len(votes[i]))
		for j, v := range votes[i] {
			marks[i][j] = v >= opt.MinPairs
		}
	}
	// The boundary markers of an engine are engine-wide template content;
	// a text exposed as a false SBM by the MRs of any sample page is a
	// false SBM on every sample page (pages with too few records for MRE
	// cannot expose it themselves).
	falseTexts := map[string]bool{}
	for i := range inputs {
		collectFalseSBMs(cleaned[i], falseTexts)
	}
	if len(falseTexts) > 0 {
		for i := range inputs {
			for j := range marks[i] {
				if marks[i][j] && falseTexts[cleaned[i].clean[j]] {
					marks[i][j] = false
				}
			}
		}
	}
	return marks
}

// matchPair marks mutual-best line pairs between two pages (lines 3-9 of
// Figure 5).
func matchPair(p1, p2 *cleanedPage, votes1, votes2 []int) {
	mc1 := make([]int, len(p1.clean))
	for i := range p1.clean {
		mc1[i] = mostCompatible(p1, i, p2)
	}
	mc2 := make([]int, len(p2.clean))
	for j := range p2.clean {
		mc2[j] = mostCompatible(p2, j, p1)
	}
	for i, j := range mc1 {
		if j >= 0 && mc2[j] == i {
			votes1[i]++
			votes2[j]++
		}
	}
}

// collectFalseSBMs implements filter_CSBMs (lines 10-11 of Figure 5): a
// tentative CSBM whose cleaned text appears in (nearly) every record of
// some MR is a repeated record string, not a boundary marker.  The texts
// are accumulated into out so the verdict can be applied engine-wide.
func collectFalseSBMs(cp *cleanedPage, out map[string]bool) {
	for _, mr := range cp.in.MRs {
		if len(mr.Records) < 2 {
			continue
		}
		// Texts present in (nearly) every record of this MR.  Requiring
		// presence in at least 80% of records — rather than literally all
		// — keeps the filter effective when MRE mis-extracted a record
		// near the section boundary (the boundary problem of §5.1).
		counts := map[string]int{}
		for r := range mr.Records {
			for t := range recordTexts(cp, mr, r) {
				counts[t]++
			}
		}
		need := (len(mr.Records)*4 + 4) / 5 // ceil(0.8 n)
		if need < 2 {
			need = 2
		}
		for t, n := range counts {
			if n >= need && t != "" {
				out[t] = true
			}
		}
	}
}

func recordTexts(cp *cleanedPage, mr *sect.Section, r int) map[string]bool {
	out := map[string]bool{}
	rec := mr.Records[r]
	for i := rec.Start; i < rec.End && i < len(cp.clean); i++ {
		out[cp.clean[i]] = true
	}
	return out
}

// IdentifyDSs implements identify_DSs (lines 12-13 of Figure 5): the page
// is partitioned into maximal segments of consecutive CSBM / non-CSBM
// lines; the non-CSBM segments are the candidate dynamic sections, each
// taking the nearest surrounding CSBM lines as its LBM and RBM.
func IdentifyDSs(p *layout.Page, csbm []bool) []*sect.Section {
	var out []*sect.Section
	i := 0
	for i < len(p.Lines) {
		if csbm[i] {
			i++
			continue
		}
		start := i
		for i < len(p.Lines) && !csbm[i] {
			i++
		}
		ds := sect.New(p, start, i)
		if start > 0 {
			ds.LBM = start - 1
		}
		if i < len(p.Lines) {
			ds.RBM = i
		}
		out = append(out, ds)
	}
	return out
}

// Run executes DSE over the sample pages: CSBM identification followed by
// DS identification on every page.  It returns the per-page dynamic
// sections and the per-page CSBM marks.
func Run(inputs []*PageInput, opt Options) ([][]*sect.Section, [][]bool) {
	marks := IdentifyCSBMs(inputs, opt)
	dss := make([][]*sect.Section, len(inputs))
	for i, in := range inputs {
		dss[i] = IdentifyDSs(in.Page, marks[i])
	}
	return dss, marks
}
